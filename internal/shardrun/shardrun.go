// Package shardrun is the hierarchical coordinator: the monitored nodes
// are hosted by leaf shards, each owning a contiguous node range, and the
// root reaches them through a tree of relays — the direction of the
// domain-monitoring follow-up (Bemmann et al., arXiv:1706.03568) and the
// distributed top-k data structure of Biermeier et al. (arXiv:1709.07259),
// whose pruned logs ship only what a subtree's cut leaves open.
//
// # Architecture
//
// The root is the fan-out core of internal/fanout — peers, pipelining,
// both ledgers, failover, Join, checkpoints; see that package —
// instantiated with the networked engine's protocol executions
// (netrun.ExecRounds): one Round request down every root link, one bid log
// back from each, replayed against the true cut. A leaf shard is a node
// host (netrun.Serve): it runs the whole execution over its range against
// its own running cut and answers with its bid log.
//
// A relay (ServeInterior) is a host of its whole subtree. It opens its
// children's logs, replays them against the subtree's own exact running
// cut (protocol.Exec.Replay) and writes each bid it keeps into its own
// reply: the log one host of the subtree's nodes would have written. So
// the root cannot tell a subtree from one wide host, and every execution —
// a FILTERRESET's one execution for the k+1 largest keys included — is
// charged exactly the sends of the flat algorithm: one Up per bid the root
// keeps, one Bcast per round.
//
// Exactness and the ledgers are inherited from the networked engine:
// every tree shape reports what the sequential engine reports, and its
// Counts, Bytes, Phases and Stats equal the sequential engine's bit for
// bit at the same seed — a node's coins are a keyed function of the seed
// and its global id, whatever host it lives on. The root↔shard frames the
// link ledger (Overhead) prices are the coordination overhead the
// shard-overhead benchmark measures.
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
// that routes each command by child range and answers a Round with its
// subtree's bid log; it keeps no protocol state from one frame to the
// next. An interior over a single child is the identity on frames, and at
// Depth 1 the engine is the flat star. The link ledger keeps charging only
// the root's own links (fan-in Branch instead of Branch^Depth); each
// interior level's traffic lives in its own fan's ledger, polled uncharged
// through the tree by Engine.TreeStats. See DESIGN.md "Hierarchical
// coordination".
//
// The public monitor builds every shape through NewLoopbackTree: the star
// of S shards is the depth-1 tree Tree{S, 1}, a single shard Tree{1, 1},
// and a deeper Branch-1 tree a chain of relays over that one shard.
package shardrun

import (
	"fmt"

	"repro/internal/coord"
	"repro/internal/fanout"
	"repro/internal/netrun"
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
// that replays the bid logs its subtrees answer with.
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
	e, err := fanout.New(cfg.Core(), links, netrun.ExecRounds())
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

// ServeShard runs one leaf shard on a link to its parent — the root or a
// relay: a node host (netrun.Serve), answering each Round frame with its
// bid log.
func ServeShard(link transport.Link) error { return netrun.Serve(link) }
