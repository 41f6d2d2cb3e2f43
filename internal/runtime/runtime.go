// Package runtime is the concurrent host of core.Monitor: a pool of shard
// goroutines, each owning a disjoint view of the monitor's node bank, over
// which the monitor runs its sweeps — the step's observation batch and a
// protocol execution — in parallel. New (and core.RestoreOn with Sharded)
// returns the monitor on that host: the concurrent engine. It demonstrates
// the distributed fidelity of the reproduction — a shard consults only its
// own nodes' state (current key, filter, membership bit) and everything the
// coordinator learns about values arrives in counted messages.
//
// The package owns the goroutines and nothing else: it is a parallel-for
// over the views, and knows no protocol. The machine, the bank, the effect
// loop, the sparse batch's routing, the executions, input validation, the
// accessors and checkpoints are core.Monitor's, the same code the
// sequential engine runs, so reports, ledgers and checkpoint frames cannot
// depend on the host; only the engine fingerprint (wire.EngineConc) tells a
// concurrent checkpoint from a sequential one.
//
// # Synchrony
//
// The paper's model is synchronous: observations happen in lockstep and an
// arbitrary protocol may run between two observations, with round
// boundaries being common knowledge, not messages. So where the rounds of
// an execution run is the engine's choice: each shard runs a whole
// execution over its own nodes and logs its bids, and the monitor replays
// the logs against the true cut (core.Monitor's exec), as the networked
// engine's coordinator does. A step costs the pool one sweep for its batch
// and one per execution, whatever the rounds (a pool of one shard is never
// swept: the monitor runs both on the bank in place); the hand-offs are
// uncounted plumbing, and counted messages — node value reports (Up) and
// coordinator broadcasts (Bcast) — are recorded by the replay, in ascending
// shard (hence node id) order.
//
// # Who may touch the bank, and when
//
// A sweep is strictly round-trip: the monitor hands a function to some
// shards and waits for each to finish it before it does anything else. A
// shard touches bank cells only while it runs that function, and is
// otherwise parked on its channel. So the completion orders every shard
// write before whatever the monitor does next, and the next hand-off
// orders that before every later shard access: between sweeps the
// monitor's goroutine owns the whole bank. That is core.Host's contract,
// and it is why the effects that touch one node (Winner, an order-filter
// check or install), one shared cell (a filter install) or the membership
// bitset (ResetBegin) run on the full-range bank, whose arrays the shards'
// views alias, and why Snapshot and the monitor's read views need no sweep
// either. A shard reads the membership bitset and never writes it, so views
// whose ranges split one of its words share that word race-free.
//
// # Sharding
//
// Nodes are partitioned into contiguous shards, one goroutine each, as many
// as GOMAXPROCS and never more than nodes. A sweep costs O(shards) channel
// operations rather than O(n), and a sparse step sweeps only the shards
// owning a touched node. Each node still takes exactly the decisions it
// would take alone (its coins are the same keyed function), so message
// counts are unaffected by the shard layout.
package runtime

import (
	gort "runtime"
	"sync"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/wire"
)

// Config mirrors core.Config for the concurrent engine.
type Config struct {
	N, K int
	Seed uint64
	// Epsilon selects the ε-approximate mode, exactly as in core.Config.
	Epsilon float64
	// Ordered selects the coordinator's ordered mode, exactly as in
	// core.Config.
	Ordered bool
}

func (c Config) core() core.Config {
	return core.Config{N: c.N, K: c.K, Seed: c.Seed, Epsilon: c.Epsilon, Ordered: c.Ordered}
}

// New returns a monitor on a freshly started shard pool. Callers must
// Close it to release the goroutines.
func New(cfg Config) *core.Monitor { return core.NewOn(cfg.core(), Sharded) }

// pool is the concurrent core.Host: a goroutine per view of one bank, each
// running the functions its channel hands it.
type pool struct {
	views  []*coord.Nodes
	work   []chan func(int) // view v's goroutine runs what arrives on work[v]
	done   chan struct{}    // a completion per function run, room for a sweep's
	wg     sync.WaitGroup
	closed bool
}

// Sharded is the shard pool's constructor for core.NewOn and
// core.RestoreOn: it splits the bank into at most min(n, GOMAXPROCS)
// contiguous views of equal size (the last may be shorter) and starts a
// goroutine on each.
func Sharded(bank *coord.Nodes) core.Host {
	n := bank.Len()
	shards := min(gort.GOMAXPROCS(0), n)
	size := (n + shards - 1) / shards
	p := &pool{done: make(chan struct{}, shards)}
	for lo := 0; lo < n; lo += size {
		v, work := len(p.views), make(chan func(int), 1)
		p.views, p.work = append(p.views, bank.Sub(lo, min(lo+size, n))), append(p.work, work)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for f := range work {
				f(v)
				p.done <- struct{}{}
			}
		}()
	}
	return p
}

// Views returns the shards' views, in shard order.
func (p *pool) Views() []*coord.Nodes { return p.views }

// Sweep hands f to the listed shards and waits until each has run it.
func (p *pool) Sweep(to []int, f func(int)) {
	for _, v := range to {
		p.work[v] <- f
	}
	for range to {
		<-p.done
	}
}

// Engine is the fingerprint of a concurrent engine's checkpoints.
func (p *pool) Engine() uint8 { return wire.EngineConc }

// Close shuts down all shard goroutines. Idempotent.
func (p *pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, w := range p.work {
		close(w)
	}
	p.wg.Wait()
}
