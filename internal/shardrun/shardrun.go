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
// engine replays its hosts' bids as one execution over all n nodes, the
// root delegates each execution to its shards: a shard runs the complete
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
// Shards speak the same wire protocol as the networked engine's hosts,
// and like them run the whole execution a wire.Round frame asks for
// (coord.Nodes.Run); they answer with a wire.ShardDigest where a node host
// answers with its bid log.
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
// coordination overhead the shard-overhead benchmark measures. The
// tie-break injection makes every key distinct, so the merged winners are
// unique and S>1 reports equal the flat engines' exactly.
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
//
// The public monitor builds every shape through NewLoopbackTree: the star
// of S shards is the depth-1 tree Tree{S, 1}, a single shard Tree{1, 1},
// and a deeper Branch-1 tree a chain of relays over that one shard.
package shardrun

import (
	"fmt"

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
	N, K    int
	Seed    uint64
	Epsilon float64
	// Tree declares the links to be subtree roots of a hierarchical
	// coordinator (see Tree): New then requires exactly Tree.Branch links
	// and at least Tree.Branch^Tree.Depth nodes. The zero value keeps the
	// flat star.
	Tree Tree

	Redial  func() (transport.Link, error)
	OnEvent func(coord.Event)
}

// Core returns the configuration of the fan-out core underneath: every
// field but the tree shape.
func (c Config) Core() fanout.Config {
	return fanout.Config{
		N: c.N, K: c.K, Seed: c.Seed,
		Epsilon: c.Epsilon, Redial: c.Redial, OnEvent: c.OnEvent,
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
// fanout.New's contract; like it, New closes every link on error, a tree
// shape the links do not fit included.
func New(cfg Config, links []transport.Link) (*Engine, error) {
	if err := cfg.checkTree(len(links)); err != nil {
		for _, l := range links {
			l.Close()
		}
		return nil, err
	}
	e, err := fanout.New(cfg.Core(), links, execMerge())
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
		return fmt.Errorf("shardrun: %w", err)
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
// best first, and a charge summary in a ShardDigest. The local execution
// is the node hosts' (coord.Nodes.Run) with the global population bound
// and winner count the root supplies, so at S=1 the execution —
// randomness, charges, winners — is bit-identical to the flat engines'.
// Where a node host answers with every bid it made, for its coordinator to
// replay, a shard answers with its winners: the local execution is the
// model here.
func localExec() fanout.RoundFunc {
	var led comm.Counter // per-execution local charges
	var ex protocol.Exec
	return func(bank *coord.Nodes, m wire.Round, dst []byte) []byte {
		led.Reset()
		bank.Run(m.Tag, m.Bound, m.Want, m.Step, &ex, &led, nil)
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
		if key >= prev { // keys are distinct: a child's list strictly descends
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
// FILTERRESET is S local executions and one gather.
func execMerge() fanout.Exec {
	var d digest
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
