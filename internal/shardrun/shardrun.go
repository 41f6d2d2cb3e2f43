// Package shardrun shards the coordinator itself: S sub-coordinators each
// own a contiguous node range, and a root merge layer maintains the
// global top-k from per-shard candidate sets. It removes the paper's
// single sequential coordinator as the scalability ceiling while keeping
// the reported top-k exact at every step — the direction of the
// domain-monitoring follow-up (Bemmann et al., arXiv:1706.03568) and the
// distributed top-k data structure of Biermeier et al. (arXiv:1709.07259).
//
// # Architecture
//
// The root is the fan-out core of internal/fanout — peers, pipelining,
// both ledgers, failover, Join, checkpoints; see that package —
// instantiated with delegated protocol executions. Where the networked
// engine runs Algorithm 2 round by round over all n nodes, the root
// delegates each execution to its shards: a shard runs the complete
// protocol over its local cohort (with the global population bound, so
// shard-local randomness matches the flat engines' at S=1) and answers
// with one wire.ShardDigest — its local winners, best first, plus a
// summary of the charges the local execution incurred. The root merges the
// S digests by key (digest). Pipelined, the local executions run
// concurrently — the fan-out completes before the first digest is awaited.
//
// Every execution, a FILTERRESET's included, is one such exchange: the
// reset asks every shard for its k+1 largest keys in one local execution
// (protocol.Exec with want = k+1; DESIGN.md "The reset is one sweep") and
// the k+1 largest of the S lists are the global ones — S local executions
// and one gather, where Algorithm 1's k+1 successive maxima took S + k
// executions and k further round trips even merged incrementally.
//
// Shards speak the same wire protocol as the networked engine's hosts
// with one reinterpretation: a wire.Round frame from the root means "run
// this whole execution locally" and is answered by a wire.ShardDigest.
//
// Exactness is inherited from Algorithm 1: the hierarchical execution
// computes the same extrema (each local protocol is Las Vegas-exact, and
// the want best of the shards' want best are the global want best), so
// membership decisions, T+/T− and filters evolve as in the flat algorithm.
// At S=1 the engine is bit-identical to the sequential engine — reports,
// counts, bytes, per-phase — which the equivalence tests pin. At S>1
// reports stay exact while the charged message counts grow with S, because
// every local execution pays its own protocol rounds. That growth, and the
// root↔shard frames the link ledger (Overhead) prices, are the
// coordination overhead the shard-overhead benchmark measures.
//
// One caveat inherits the model's distinctness assumption: exactness is
// exactness of the key order. In the default mode the tie-break
// injection makes all keys distinct, so the merged winner is unique and
// S>1 reports equal the flat engines' exactly. In DistinctValues mode a
// caller that transiently breaks the distinctness promise (e.g. nodes
// still holding the default 0 before their first sparse delta) can have
// tied keys, and the root — which merges digests in shard order — may
// resolve such a tie differently than a flat engine's global bid order
// would. The report is still a correct top-k of the tied key multiset;
// only the choice among tied nodes can differ, exactly as the paper's
// model leaves it undefined.
//
// # Hierarchical trees
//
// Config.Tree generalizes the star into an arbitrary-depth coordinator
// tree: each of the root's Branch links may lead to an interior
// coordinator (ServeInterior) that splits its range across Branch
// children of its own, down to Branch^Depth leaf shards. An interior is the
// same fanout.Fan over its child links that the root's engine is built on —
// ranges, per-link batches, send and gather, handshake, stats sweep and
// shutdown are the root's code, run with the direct drain — under a relay
// that routes each command by child range and merges its children's
// digests into one digest up, exactly the root's merge (digest) and as
// stateless; because that merge is associative and every leaf runs every
// execution in any shape, any tree shape is bit-identical to the flat star
// over the same leaves in reports and the algorithm ledger, an interior over a single child is the identity on
// frames, and at Depth 1 the engine is the flat engine. The link ledger
// keeps charging only the root's own links (fan-in Branch instead of
// Branch^Depth); each interior level's traffic lives in its own fan's
// ledger, polled uncharged through the tree by Engine.TreeStats. See
// DESIGN.md "Hierarchical coordination".
package shardrun

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/coord"
	"repro/internal/fanout"
	"repro/internal/order"
	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Config is fanout.Config plus the tree shape; see there for the shared
// fields.
type Config struct {
	N, K           int
	Seed           uint64
	DistinctValues bool
	Epsilon        float64
	// Tree declares the links to be subtree roots of a hierarchical
	// coordinator (see Tree): New then requires exactly Tree.Branch links
	// and at least Tree.Branch^Tree.Depth nodes. The zero value keeps the
	// flat star.
	Tree Tree

	Redial       func() (transport.Link, error)
	RetryBudget  int
	RetryBackoff time.Duration
	OnEvent      func(coord.Event)
}

// Core returns the configuration of the fan-out core underneath: every
// field but the tree shape.
func (c Config) Core() fanout.Config {
	return fanout.Config{
		N: c.N, K: c.K, Seed: c.Seed, DistinctValues: c.DistinctValues,
		Epsilon: c.Epsilon, Redial: c.Redial, RetryBudget: c.RetryBudget,
		RetryBackoff: c.RetryBackoff, OnEvent: c.OnEvent,
	}
}

// Engine is the root coordinator of the sharded monitor: a fanout.Engine
// whose protocol executions are delegated to the shards.
type Engine struct {
	*fanout.Engine
	tree Tree
}

// New performs the Assign/Ready handshake over the given links — shard i
// owns the i-th contiguous node range — and returns the root, under
// fanout.New's contract.
func New(cfg Config, links []transport.Link) (*Engine, error) {
	return build(cfg, links, func() (*fanout.Engine, error) {
		return fanout.New(cfg.Core(), links, execMerge(!cfg.DistinctValues))
	})
}

// Restore rebuilds a root over links from a checkpoint taken under the same
// configuration (including the same Tree shape), under fanout.Restore's
// contract.
func Restore(cfg Config, links []transport.Link, machFrame []byte, last []int64) (*Engine, error) {
	return build(cfg, links, func() (*fanout.Engine, error) {
		return fanout.Restore(cfg.Core(), links, execMerge(!cfg.DistinctValues), machFrame, last)
	})
}

// build checks the tree shape against the links and wraps the core engine
// mk constructs. Like the core constructors it closes every link on error.
func build(cfg Config, links []transport.Link, mk func() (*fanout.Engine, error)) (*Engine, error) {
	if err := cfg.checkTree(len(links)); err != nil {
		for _, l := range links {
			l.Close()
		}
		return nil, err
	}
	e, err := mk()
	if err != nil {
		return nil, err
	}
	return &Engine{Engine: e, tree: cfg.Tree}, nil
}

// checkTree validates a configured Tree against the link count and the
// node population; the zero Tree (flat star) always passes.
func (c Config) checkTree(links int) error {
	if c.Tree.zero() {
		return nil
	}
	leaves, err := c.Tree.Leaves()
	if err != nil {
		return err
	}
	if links != c.Tree.Branch {
		return fmt.Errorf("shardrun: tree branch %d needs exactly %d links, got %d", c.Tree.Branch, c.Tree.Branch, links)
	}
	if leaves > c.N {
		return fmt.Errorf("shardrun: tree %d^%d has %d leaves for N=%d nodes", c.Tree.Branch, c.Tree.Depth, leaves, c.N)
	}
	return nil
}

// LoopbackLink builds a single in-process shard behind a pipe and returns
// the root end (see fanout.Loopback).
func LoopbackLink() transport.Link { return fanout.Loopback(ServeShard) }

// LoopbackLinks builds one LoopbackLink per shard.
func LoopbackLinks(shards int) []transport.Link { return fanout.Loopbacks(shards, ServeShard) }

// NewLoopback builds an in-process sharded engine over LoopbackLinks. It
// is the engine behind topk.Config.Shards and topkmon -shards.
func NewLoopback(cfg Config, shards int) (*Engine, error) {
	return New(cfg, LoopbackLinks(shards))
}

// RestoreLoopback is Restore over fresh loopback shard links, the
// counterpart of NewLoopback for crash-restart tests and local monitors.
func RestoreLoopback(cfg Config, shards int, machFrame []byte, last []int64) (*Engine, error) {
	if shards < 1 || shards > cfg.N {
		return nil, fmt.Errorf("shardrun: need 1 <= shards <= N, got %d shards for N=%d", shards, cfg.N)
	}
	return Restore(cfg, LoopbackLinks(shards), machFrame, last)
}

// Shards returns the number of root links.
func (e *Engine) Shards() int { return e.Peers() }

// AppendCheckpoint appends one sealed frame of the root's checkpoint chain, of
// generation gen, to dst: a base frame, or with base != 0 a delta on it
// (see fanout.Engine.AppendCheckpoint).
func (e *Engine) AppendCheckpoint(dst []byte, gen, base uint64, dirty []uint64) ([]byte, error) {
	return e.Engine.AppendCheckpoint(dst, wire.EngineShard, gen, base, dirty)
}

// ServeShard runs one shard sub-coordinator on a link to the root: the
// leaf server of fanout.Serve, answering each Round frame — a delegated
// execution request — with localExec.
func ServeShard(link transport.Link) error { return fanout.Serve(link, localExec()) }

// localExec returns a shard's answer to a delegated execution request: run
// the whole local protocol for the tag and report only the local winners,
// best first, and a charge summary in a ShardDigest. The local rounds are
// protocol.Exec's with the global population bound and winner count the
// root supplies, so at S=1 the execution — randomness, charges, winners —
// is bit-identical to the flat engines'.
func localExec() fanout.RoundFunc {
	var led comm.Counter // per-execution local charges
	var ex protocol.Exec
	return func(bank *coord.Nodes, m wire.Round, dst []byte) []byte {
		led.Reset()
		ex.Begin(m.Bound, m.Want, coord.MinimumTag(m.Tag), &led, nil, m.Step)
		for ex.More() {
			bank.Round(m.Tag, ex.Round(), ex.Best(), m.Bound, m.Step, ex.Bid)
			ex.EndRound()
		}
		d := wire.ShardDigest{
			Ups:        led.Get(comm.Up),
			UpBytes:    led.GetBytes(comm.Up),
			Bcasts:     led.Get(comm.Bcast),
			BcastBytes: led.GetBytes(comm.Bcast),
		}
		d.SetWinners(ex.Winners())
		return d.Append(dst)
	}
}

// digest is the running merge of one delegated execution over a merger's
// children — the root's shards, an interior relay's subtrees — visited in
// ascending range order: the charges summed in the embedded digest, the
// winners kept in top. The merge is the selection the leaves ran, run
// again over their winners (protocol.Top): a child's list arrives best
// first and the children in range order, so among equal keys the first
// child keeps the lead, and what is kept is cut to the execution's want.
// Whatever is among the want best of all nodes is among the want best of
// its leaf, so the merged list is the flat engines'; and the merge of
// merges is the merge, so any nesting of relays reports what a flat root
// would compute from the leaves directly.
type digest struct {
	wire.ShardDigest
	top     protocol.Top
	want    int
	minimum bool
	strict  bool             // keys are distinct: a child's list must strictly descend
	child   wire.ShardDigest // decode target
}

// begin starts the merge of one execution for the want best keys.
func (d *digest) begin(want int, minimum bool) {
	d.Ups, d.UpBytes, d.Bcasts, d.BcastBytes = 0, 0, 0, 0
	d.want, d.minimum = want, minimum
	d.top.Reset(want, minimum)
}

// fold merges one child's answer frame — a shard's digest, or a whole
// subtree's — into d, [lo, hi) being the child's node range. A frame is
// validated before any of it is used: a winner the child does not own or
// names twice would corrupt membership, a list longer than asked for or
// out of order the merge, a negative charge the ledger, so each is rejected
// as the child misbehaving.
func (d *digest) fold(lo, hi int, answer []byte) error {
	c := &d.child
	if err := c.Decode(answer); err != nil {
		return err
	}
	if c.Ups < 0 || c.UpBytes < 0 || c.Bcasts < 0 || c.BcastBytes < 0 {
		return fmt.Errorf("negative digest charges %+v", *c)
	}
	if !c.OK && len(c.Rest) > 0 || len(c.Rest) >= d.want {
		return fmt.Errorf("digest lists %d further winners (first: %v) of an execution for %d", len(c.Rest), c.OK, d.want)
	}
	for i := 0; i < c.Winners(); i++ {
		w := c.Winner(i)
		if w.ID < lo || w.ID >= hi {
			return fmt.Errorf("digest winner %d outside range [%d, %d)", w.ID, lo, hi)
		}
		for j := 0; j < i; j++ {
			if c.Winner(j).ID == w.ID {
				return fmt.Errorf("digest names winner %d twice", w.ID)
			}
		}
		if i == 0 {
			continue
		}
		prev, key := order.Key(c.Winner(i-1).Key), order.Key(w.Key)
		if d.minimum {
			prev, key = order.Neg(prev), order.Neg(key)
		}
		if key > prev || d.strict && key == prev {
			return fmt.Errorf("digest winners out of order: key %d after %d", w.Key, c.Winner(i-1).Key)
		}
	}
	for i := 0; i < c.Winners(); i++ {
		d.top.Offer(c.Winner(i).ID, order.Key(c.Winner(i).Key))
	}
	d.Ups += c.Ups
	d.UpBytes += c.UpBytes
	d.Bcasts += c.Bcasts
	d.BcastBytes += c.BcastBytes
	return nil
}

// execMerge returns the sharded engine's Exec strategy: a delegated
// execution request goes to every shard, which runs it whole over its own
// nodes, and the digests are merged in ascending shard (hence node id)
// order. The want best of the per-shard want best are the global want
// best; the local charges are folded into the algorithm ledger. A
// FILTERRESET is S local executions and one gather. strict says the keys
// are distinct (the default tie-break injection).
func execMerge(strict bool) fanout.Exec {
	d := digest{strict: strict}
	return func(e *fanout.Engine, eff coord.Effect) ([]protocol.Winner, error) {
		d.begin(eff.Want, coord.MinimumTag(eff.Tag))
		req := wire.Round{Tag: eff.Tag, Round: 0, Best: int64(order.NegInf), Bound: eff.Bound, Step: e.Step(), Want: eff.Want}
		if err := e.Round(req, d.fold); err != nil {
			return nil, err
		}
		rec := e.Recorder(eff.Phase)
		rec.RecordSized(comm.Up, d.Ups, d.UpBytes)
		rec.RecordSized(comm.Bcast, d.Bcasts, d.BcastBytes)
		return d.top.Winners(), nil
	}
}
