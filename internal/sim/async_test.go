package sim_test

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/fanout"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/transport"
)

// asyncPair builds the engine under asynchronous ingestion and its
// synchronous twin: same type, same configuration, same seed. The
// equivalence suites compare the two bit for bit, so the twin must be
// an independent instance — never a shared one.
type asyncPair struct {
	name string
	make func(tb testing.TB) (async, twin sim.AsyncEngine, done func())
}

func asyncPairs(n, k int, seed uint64, eps float64) []asyncPair {
	return []asyncPair{
		{"core", func(tb testing.TB) (sim.AsyncEngine, sim.AsyncEngine, func()) {
			a := core.New(core.Config{N: n, K: k, Seed: seed, Epsilon: eps})
			b := core.New(core.Config{N: n, K: k, Seed: seed, Epsilon: eps})
			return a, b, func() {}
		}},
		{"runtime", func(tb testing.TB) (sim.AsyncEngine, sim.AsyncEngine, func()) {
			a := runtime.New(runtime.Config{N: n, K: k, Seed: seed, Epsilon: eps})
			b := runtime.New(runtime.Config{N: n, K: k, Seed: seed, Epsilon: eps})
			return a, b, func() { a.Close(); b.Close() }
		}},
		{"netrun", func(tb testing.TB) (sim.AsyncEngine, sim.AsyncEngine, func()) {
			a := mustNet(tb, fanout.Config{N: n, K: k, Seed: seed, Epsilon: eps}, 3)
			b := mustNet(tb, fanout.Config{N: n, K: k, Seed: seed, Epsilon: eps}, 3)
			return a, b, func() { a.Close(); b.Close() }
		}},
		{"shard=1", func(tb testing.TB) (sim.AsyncEngine, sim.AsyncEngine, func()) {
			a := mustShard(tb, fanout.Config{N: n, K: k, Seed: seed, Epsilon: eps}, 1)
			b := mustShard(tb, fanout.Config{N: n, K: k, Seed: seed, Epsilon: eps}, 1)
			return a, b, func() { a.Close(); b.Close() }
		}},
		{"shard=2", func(tb testing.TB) (sim.AsyncEngine, sim.AsyncEngine, func()) {
			a := mustShard(tb, fanout.Config{N: n, K: k, Seed: seed, Epsilon: eps}, 2)
			b := mustShard(tb, fanout.Config{N: n, K: k, Seed: seed, Epsilon: eps}, 2)
			return a, b, func() { a.Close(); b.Close() }
		}},
	}
}

// asyncSrc picks the workload for one cell of the matrix: the E19-style
// drifting walk for the dense path, the sparse walk for the delta path.
func asyncSrc(n int, dense bool) stream.DeltaSource {
	if dense {
		return epsWalk(n, 5)
	}
	return stream.NewSparseWalk(stream.SparseWalkConfig{
		N: n, Changed: 3, MaxStep: 1 << 11, Lo: 1 << 18, Hi: 1 << 24, Seed: 6,
	})
}

// TestAsyncDrainEveryStepBitIdentical is the acceptance criterion of
// the async tentpole, cell by cell: for every engine × dense/delta ×
// ε ∈ {0, 0.05} × queue depth ∈ {1, 4, n}, staging each observation
// call asynchronously and draining immediately must be bit-identical —
// reports, message counts, charged bytes, per-phase ledgers, stats — to
// the synchronous run over the same trace. With a barrier after every
// call nothing can coalesce, so the applied trace RunAsync replays into
// the twin *is* the input trace, and every applied batch must map
// one-to-one to a call — also where a call has more nodes than the
// queue holds (every dense call below depth n, and delta calls at depth
// 1), which the driver hands to the worker whole.
func TestAsyncDrainEveryStepBitIdentical(t *testing.T) {
	const n, k, seed, steps = 20, 4, 33, 150
	for _, eps := range []float64{0, 0.05} {
		for _, dense := range []bool{true, false} {
			feed := map[bool]string{true: "dense", false: "delta"}[dense]
			for _, depth := range []int{n, 1, 4} {
				for _, p := range asyncPairs(n, k, seed, eps) {
					p := p
					t.Run(fmtDepthCell(p.name, feed, eps, depth, n), func(t *testing.T) {
						async, twin, done := p.make(t)
						defer done()
						rep, err := sim.RunAsync(async, twin, asyncSrc(n, dense), sim.AsyncConfig{
							Steps: steps, K: k, Epsilon: eps,
							QueueDepth: depth,
							Dense:      dense, DrainEvery: 1,
						})
						if err != nil {
							t.Fatal(err)
						}
						if rep.Batches != rep.ObserveCalls {
							t.Fatalf("drain-per-call run applied %d batches for %d calls [%s]",
								rep.Batches, rep.ObserveCalls, rep.Schedule())
						}
					})
				}
			}
		}
	}
}

// TestAsyncRandomBarriersEquivalence is the randomized-interleaving half
// of the suite: barriers land with probability 0.2 per call (three
// schedule seeds per cell), the delta path runs at a deliberately small
// queue depth so backpressure and mid-run coalescing both happen,
// the dense path runs at depth n and at depth 4 — where every call is a
// hand-off — and at every barrier the async engine must still be
// bit-identical to the synchronous replay of its recorded applied trace,
// and ε-valid (oracle-exact at ε=0) against the applied values. A dense
// call is never split, so there are never more batches than calls.
// Failures quote the recorded barrier schedule for replay.
func TestAsyncRandomBarriersEquivalence(t *testing.T) {
	const n, k, seed, steps = 20, 4, 33, 150
	for _, eps := range []float64{0, 0.05} {
		for _, c := range []struct {
			dense bool
			depth int
		}{{true, n}, {true, 4}, {false, 4}} {
			dense := c.dense
			feed := map[bool]string{true: "dense", false: "delta"}[dense]
			depth := c.depth
			for _, p := range asyncPairs(n, k, seed, eps) {
				p := p
				name := fmtCell(p.name, feed, eps)
				if dense {
					name = fmtDepthCell(p.name, feed, eps, depth, n)
				}
				t.Run(name, func(t *testing.T) {
					for schedSeed := uint64(1); schedSeed <= 3; schedSeed++ {
						async, twin, done := p.make(t)
						rep, err := sim.RunAsync(async, twin, asyncSrc(n, dense), sim.AsyncConfig{
							Steps: steps, K: k, Epsilon: eps,
							QueueDepth: depth,
							Dense:      dense, DrainProb: 0.2, Seed: schedSeed,
						})
						done()
						if err != nil {
							t.Fatalf("schedule seed %d: %v", schedSeed, err)
						}
						if rep.Batches > rep.ObserveCalls && dense {
							t.Fatalf("schedule seed %d: more batches (%d) than dense calls (%d) [%s]",
								schedSeed, rep.Batches, rep.ObserveCalls, rep.Schedule())
						}
					}
				})
			}
		}
	}
}

// TestAsyncTCP pins the equivalence over a real TCP transport: the
// asynchronous netrun engine speaks to its peers over loopback sockets
// while its twin runs on in-process pipes, and the two must still be bit
// bit-identical at every barrier.
func TestAsyncTCP(t *testing.T) {
	const n, k, seed, steps, peers = 12, 3, 17, 120, 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln, err := transport.Listen(ctx, "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer ln.Close()
	serveErr := make(chan error, peers)
	for i := 0; i < peers; i++ {
		go func() {
			link, err := transport.Dial(ctx, ln.Addr())
			if err != nil {
				serveErr <- err
				return
			}
			serveErr <- fanout.Serve(link)
		}()
	}
	links, err := ln.AcceptN(peers)
	if err != nil {
		t.Fatal(err)
	}
	async, err := fanout.New(fanout.Config{N: n, K: k, Seed: seed}, links)
	if err != nil {
		t.Fatal(err)
	}
	twin := mustNet(t, fanout.Config{N: n, K: k, Seed: seed}, peers)
	defer twin.Close()

	rep, runErr := sim.RunAsync(async, twin, asyncSrc(n, true), sim.AsyncConfig{
		Steps: steps, K: k,
		QueueDepth: n,
		Dense:      true, DrainProb: 0.25, Seed: 3,
	})
	async.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if rep.Batches == 0 {
		t.Fatalf("no batches applied over TCP [%s]", rep.Schedule())
	}
	for i := 0; i < peers; i++ {
		if err := <-serveErr; err != nil {
			t.Errorf("peer agent: %v", err)
		}
	}
}

// fmtDepthCell names a cell of a depth axis: depth n keeps the plain
// cell name, a shallower queue appends "/depth=D".
func fmtDepthCell(engine, feed string, eps float64, depth, n int) string {
	if depth == n {
		return fmtCell(engine, feed, eps)
	}
	return fmtCell(engine, feed, eps) + "/depth=" + strconv.Itoa(depth)
}

func fmtCell(engine, feed string, eps float64) string {
	if eps == 0 {
		return engine + "/" + feed + "/exact"
	}
	return engine + "/" + feed + "/eps"
}
