// Package runtime is the shard pool, the in-process monitor's parallel
// host: a pool of shard goroutines, each owning a disjoint view of the
// monitor's node bank, over which core.Monitor runs the sweeps of a dense
// step — the step's observation batch and its protocol executions — in
// parallel. Sharded is the host every in-process topk
// monitor is built on: the pool where it pays, else core.Inline. It
// demonstrates the distributed fidelity of the reproduction — a shard
// consults only its own nodes' state (current value, filter, membership bit)
// and everything the coordinator learns about values arrives in counted
// messages.
//
// The package owns the goroutines and nothing else: it is a parallel-for
// over the views, and knows no protocol. The machine, the bank, the effect
// loop, which steps are swept, the executions, input validation, the
// accessors and checkpoints are core.Monitor's, the same code whatever the
// host, so reports, ledgers and checkpoint frames cannot depend on it: a
// monitor on the pool writes the frames an inline one writes, byte for
// byte.
//
// # Synchrony
//
// The paper's model is synchronous: observations happen in lockstep and an
// arbitrary protocol may run between two observations, with round
// boundaries being common knowledge, not messages. So where the rounds of
// an execution run is the engine's choice: each shard runs a whole
// execution over its own nodes and logs its bids, and the monitor replays
// the logs against the true cut (core.Monitor's exec), as the networked
// engine's coordinator does. A dense step costs the pool one sweep for its
// batch and one per execution, whatever the rounds; a sparse step never
// reaches the pool, the monitor runs it on the bank in place. The
// hand-offs are uncounted plumbing, and
// counted messages — node value reports (Up) and coordinator broadcasts
// (Bcast) — are recorded by the replay, in ascending shard (hence node id)
// order.
//
// # Who may touch the bank, and when
//
// A sweep is strictly round-trip: the monitor hands a function to every
// shard and waits for each to finish it before it does anything else. A
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
// Nor does a shard replace the value column the views share, which exists
// from the bank's birth: a view given a value its column's tier cannot hold
// refuses it (coord.ErrNarrow), and the monitor widens the column between
// two sweeps and sweeps the step again.
//
// # Sharding
//
// Nodes are partitioned into contiguous shards of near-equal size, one
// goroutine each: Sharded takes as many as GOMAXPROCS, but no more than
// leave each shard minViewNodes nodes, and fewer than two is no pool. A
// sweep costs O(shards) channel operations rather than O(n). Each node
// still takes exactly the decisions it would take alone (its coins are the
// same keyed function), so message counts are unaffected by the shard
// layout.
package runtime

import (
	gort "runtime"
	"sync"

	"repro/internal/coord"
	"repro/internal/core"
)

// Config mirrors core.Config for New.
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

// minViewNodes is the fewest nodes Sharded gives a shard, the one size
// decision of the in-process host. It is read off BenchmarkRuntimeStep's
// grid (2-core host, 10 alternating pairs a row, EXPERIMENTS.md "one
// in-process engine"): the pool's dense step won 9 of 10 from n = 2¹⁶ on
// two shards up, and 7 of 10 at 2¹⁴.
const minViewNodes = 1 << 15

// New returns a monitor on a pool of min(n, GOMAXPROCS) shards, whatever
// their size (one shard is the inline host), which sweeps every dense step.
// Callers must Close it to release the goroutines.
func New(cfg Config) *core.Monitor {
	return core.NewOn(cfg.core(), func(bank *coord.Nodes) core.Host {
		return shards(bank, min(bank.Len(), gort.GOMAXPROCS(0)))
	})
}

// Sharded is the in-process monitor's host constructor for core.NewOn and
// core.RestoreOn: a pool of min(GOMAXPROCS, n / minViewNodes) shards, or
// core.Inline(bank) when that is fewer than two.
func Sharded(bank *coord.Nodes) core.Host {
	return shards(bank, min(gort.GOMAXPROCS(0), bank.Len()/minViewNodes))
}

// pool is the concurrent core.Host: a goroutine per view of one bank, each
// running the functions its channel hands it.
type pool struct {
	views  []*coord.Nodes
	work   []chan func(int) // view v's goroutine runs what arrives on work[v]
	done   chan struct{}    // a completion per function run, room for a sweep's
	wg     sync.WaitGroup
	closed bool
}

// shards splits the bank into views contiguous views of near-equal size
// (views <= n) and starts a goroutine on each; fewer than two views is
// core.Inline(bank).
func shards(bank *coord.Nodes, views int) core.Host {
	if views < 2 {
		return core.Inline(bank)
	}
	n := bank.Len()
	p := &pool{done: make(chan struct{}, views)}
	for v := range views {
		work := make(chan func(int), 1)
		p.views, p.work = append(p.views, bank.Sub(v*n/views, (v+1)*n/views)), append(p.work, work)
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

// Sweep hands f to every shard and waits until each has run it.
func (p *pool) Sweep(f func(int)) {
	for _, w := range p.work {
		w <- f
	}
	for range p.work {
		<-p.done
	}
}

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
