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
// with one wire.ShardDigest — its local winner plus a summary of the
// charges the local execution incurred. The root merges the S digests by
// key. Pipelined, the local executions run concurrently — the fan-out
// completes before the first digest is awaited — and a FILTERRESET costs
// one synchronization point per extraction instead of one per command.
//
// Over the course of a FILTERRESET's k+1 repeated extractions that merge
// is exactly a k-merge on order.Key of the per-shard candidate streams,
// and it runs as one: the root keeps the digest each shard last answered
// an extraction with (its head; see head for when one stands) and re-asks
// only the shard whose head the last extraction took — the others' reset
// cohorts, keys and therefore local maxima are what they were. A reset
// runs S + k local executions, k of them one unicast [Winner, Round] round
// trip each, instead of (k+1)·S; violation and handler executions, whose
// cohorts the root cannot see, still go to every shard.
//
// Shards speak the same wire protocol as the networked engine's hosts
// with one reinterpretation: a wire.Round frame from the root means "run
// this whole execution locally" and is answered by a wire.ShardDigest.
//
// Exactness is inherited from Algorithm 1: the hierarchical execution
// computes the same extrema (each local protocol is Las Vegas-exact, and
// max over shard maxima is the global max), so membership decisions,
// T+/T− and filters evolve as in the flat algorithm. At S=1 the engine is
// bit-identical to the sequential engine — reports, counts, bytes,
// per-phase — which the equivalence tests pin: the single shard owns every
// winner, so it is re-asked every time. At S>1 reports stay exact while the
// charged message counts grow with S, because every local execution pays
// its own protocol rounds: by a factor S on violation and handler
// executions, by (S+k)/(k+1) on resets. That growth, and the root↔shard
// frames the link ledger (Overhead) prices, are the coordination overhead
// the shard-overhead benchmark measures.
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
// that routes each command by child range and k-merges its children's
// digests into one digest up, exactly the root's merge with exactly the
// root's one piece of state, a head per child; because that merge is
// associative and a leaf runs an execution under the same condition in any
// shape (something that can change its answer reached it), any tree shape
// is bit-identical to the flat star over the same leaves in reports and the
// algorithm ledger, an interior over a single child is the identity on
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
		return fanout.New(cfg.Core(), links, execMerge())
	})
}

// Restore rebuilds a root over links from a checkpoint taken under the same
// configuration (including the same Tree shape), under fanout.Restore's
// contract.
func Restore(cfg Config, links []transport.Link, machFrame []byte, last []int64) (*Engine, error) {
	return build(cfg, links, func() (*fanout.Engine, error) {
		return fanout.Restore(cfg.Core(), links, execMerge(), machFrame, last)
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

// AppendCheckpoint appends the root's sealed checkpoint envelope of
// generation gen to dst (see fanout.Engine.AppendCheckpoint).
func (e *Engine) AppendCheckpoint(dst []byte, gen uint64) ([]byte, error) {
	return e.Engine.AppendCheckpoint(dst, wire.EngineShard, gen)
}

// ServeShard runs one shard sub-coordinator on a link to the root: the
// leaf server of fanout.Serve, answering each Round frame — a delegated
// execution request — with localExec.
func ServeShard(link transport.Link) error { return fanout.Serve(link, localExec()) }

// localExec returns a shard's answer to a delegated execution request: run
// the whole local protocol for the tag and report only the local winner
// and a charge summary in a ShardDigest. The local rounds follow Algorithm
// 2 with the global population bound the root supplies, so at S=1 the
// execution — randomness, charges, winner — is bit-identical to the flat
// engines'.
func localExec() fanout.RoundFunc {
	var led comm.Counter // per-execution local charges
	return func(bank *coord.Nodes, m wire.Round, dst []byte) []byte {
		led.Reset()
		ex := protocol.NewExec(m.Bound, coord.MinimumTag(m.Tag), &led, nil, m.Step)
		for ex.More() {
			bank.Round(m.Tag, ex.Round(), ex.Best(), m.Bound, m.Step, ex.Bid)
			ex.EndRound()
		}
		res := ex.Result()
		d := wire.ShardDigest{
			OK:         res.OK,
			Ups:        led.Get(comm.Up),
			UpBytes:    led.GetBytes(comm.Up),
			Bcasts:     led.Get(comm.Bcast),
			BcastBytes: led.GetBytes(comm.Bcast),
		}
		if res.OK {
			d.ID, d.Key = res.ID, int64(res.Key)
		}
		return d.Append(dst)
	}
}

// head is the one piece of protocol state a digest merger — the root's Exec
// strategy, an interior relay — keeps per child: the validated digest the
// child last answered a TagReset execution with. A FILTERRESET's
// extractions all run over one shrinking cohort, so a child's answer to the
// next one is its answer to the last until something that can change it
// reaches the child: ResetBegin (the cohort refills), the Winner it owns
// (its maximum leaves the cohort), any Observe/ObserveDelta slice (keys
// move), any (re-)Assign (the bank is rebuilt). fresh says none of those
// was sent since the child answered; a head that is not fresh — never
// fetched, or invalidated — means "ask", never "trust", so the merger only
// has to watch the frames it sends that child. Every other cohort changes
// under violations the merger does not see, so only TagReset answers are
// kept, and every FILTERRESET starts by invalidating them all: no head
// outlives its reset, and an idle engine (the only kind that is
// checkpointed) holds none worth saving.
type head struct {
	wire.ShardDigest
	fresh bool
}

// digest is the running merge of one delegated execution over a merger's
// children, visited in ascending range order.
type digest struct {
	wire.ShardDigest
	tag  uint8
	best order.Key // running best in the comparison domain
	src  int       // child whose winner is the running best
}

// fold merges child i's share of the execution into d, [lo, hi) being the
// child's node range. A child that was asked contributes its answer frame —
// a shard's digest, or a whole subtree's: the charges of the execution it
// just ran are summed into d, and a TagReset answer becomes the child's
// head. A child that was not asked (answer nil: its head stands) contributes
// the head, whose charges an earlier execution already paid. Either way the
// winner competes by key, and among ties the first child in range order
// keeps the lead — the order a full re-merge of all children resolves them
// in, so which children were asked never shows in the result. The merge is
// associative, so any nesting of relays reports what a flat root would
// compute from the leaves directly.
//
// A frame is validated before it is used or kept: a winner the child does
// not own would corrupt membership and a negative charge the ledger, so
// either is rejected as the child misbehaving.
func (d *digest) fold(i int, h *head, answer []byte, lo, hi int) error {
	c := h.ShardDigest
	if answer != nil {
		var err error
		if c, err = wire.DecodeShardDigest(answer); err != nil {
			return err
		}
		if c.Ups < 0 || c.UpBytes < 0 || c.Bcasts < 0 || c.BcastBytes < 0 {
			return fmt.Errorf("negative digest charges %+v", c)
		}
		if c.OK && (c.ID < lo || c.ID >= hi) {
			return fmt.Errorf("digest winner %d outside range [%d, %d)", c.ID, lo, hi)
		}
		d.Ups += c.Ups
		d.UpBytes += c.UpBytes
		d.Bcasts += c.Bcasts
		d.BcastBytes += c.BcastBytes
		if d.tag == coord.TagReset {
			h.ShardDigest = c
		}
	}
	if !c.OK {
		return nil
	}
	cmp := order.Key(c.Key)
	if coord.MinimumTag(d.tag) {
		cmp = order.Neg(cmp)
	}
	if !d.OK || cmp > d.best {
		d.best, d.src = cmp, i
		d.OK, d.ID, d.Key = true, c.ID, c.Key
	}
	return nil
}

// execMerge returns the sharded engine's Exec strategy: a delegated
// execution request goes to the shards whose answer is not already known —
// every shard, except that a FILTERRESET's extractions after the first ask
// only the shard whose head the last one took (see head) — and the digests,
// fetched and standing, are merged in ascending shard (hence node id)
// order. The merged extremum of per-shard extrema is the global extremum;
// the local charges of the executions that ran are folded into the
// algorithm ledger. Over S shards a FILTERRESET is the k-merge of their
// candidate streams: S + k local executions, k of them one unicast round
// trip each.
//
// The root does not watch its own frames: the machine's effect order does
// it. TagReset executions occur only inside a FILTERRESET, which opens with
// ResetBegin to every shard (eff.First: all heads cold) and between
// extractions sends nothing but the Winner to the owner of the node the
// last extraction returned.
func execMerge() fanout.Exec {
	var heads []head
	return func(e *fanout.Engine, eff coord.Effect) (protocol.Result, error) {
		reset := eff.Tag == coord.TagReset
		if eff.First {
			if len(heads) != e.Peers() { // the first reset, or the first after a failover or Join
				heads = make([]head, e.Peers())
			}
			clear(heads)
		}
		d := digest{tag: eff.Tag}
		req := wire.Round{Tag: eff.Tag, Round: 0, Best: int64(order.NegInf), Bound: eff.Bound, Step: e.Step()}
		err := e.Round(req,
			func(pi int) bool { return !reset || !heads[pi].fresh },
			func(pi, lo, hi int, answer []byte) error {
				if reset {
					heads[pi].fresh = true // asked just now, or standing
				}
				return d.fold(pi, &heads[pi], answer, lo, hi)
			})
		if err != nil {
			return protocol.Result{}, err
		}
		if reset && d.OK {
			heads[d.src].fresh = false // the machine answers with a Winner for d.ID
		}
		rec := e.Recorder(eff.Phase)
		comm.RecordSized(rec, comm.Up, d.Ups, d.UpBytes)
		comm.RecordSized(rec, comm.Bcast, d.Bcasts, d.BcastBytes)
		return protocol.Result{OK: d.OK, ID: d.ID, Key: order.Key(d.Key)}, nil
	}
}
