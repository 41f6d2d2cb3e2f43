package runtime

import (
	"bytes"
	gort "runtime"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/rng"
	"repro/internal/stream"
)

// TestPoolWidensBetweenSweeps runs the shard pool over a bank whose column
// starts narrow: ten dense steps of values under 2²⁰, one dense step in
// which nodes of both shards cross 2³¹, then sparse steps that move values
// on both sides of it. A shard's view never widens the column the views
// share; the monitor widens it between two sweeps, on its own goroutine.
// After every step the report must be the oracle's, and the report, every
// phase's ledger row, the statistics and both checkpoint frames the inline
// host's; the crossing step allocates the wide column once, on either host.
// Run it with -race: the widening happens while every shard is parked.
func TestPoolWidensBetweenSweeps(t *testing.T) {
	const n, k, seed = 1 << 16, 16, 11
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(2))
	cfg := core.Config{N: n, K: k, Seed: seed}
	var host core.Host
	pool := core.NewOn(cfg, func(bank *coord.Nodes) core.Host { host = Sharded(bank); return host })
	defer pool.Close()
	if len(host.Views()) != 2 {
		t.Fatalf("Sharded cut a bank of %d nodes into %d views at GOMAXPROCS 2, want 2", n, len(host.Views()))
	}
	inline := core.New(cfg)

	vals := make([]int64, n)
	src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 20, MaxStep: 64, Seed: seed})
	r := rng.New(seed, 3)
	check := func(s int, topPool, topInline []int) {
		t.Helper()
		if want := order.Oracle(vals, k); !slices.Equal(topPool, want) || !slices.Equal(topInline, want) {
			t.Fatalf("step %d: pool reports %v, inline %v, the oracle %v", s, topPool, topInline, want)
		}
		for _, p := range comm.Phases() {
			lp, li := pool.Ledger(), inline.Ledger()
			if lp.PhaseCounts(p) != li.PhaseCounts(p) || lp.PhaseBytes(p) != li.PhaseBytes(p) {
				t.Fatalf("step %d: phase %v ledger %v/%v on the pool, %v/%v inline", s, p,
					lp.PhaseCounts(p), lp.PhaseBytes(p), li.PhaseCounts(p), li.PhaseBytes(p))
			}
		}
		if pool.Stats() != inline.Stats() {
			t.Fatalf("step %d: stats %+v on the pool, %+v inline", s, pool.Stats(), inline.Stats())
		}
		mp, np, err := pool.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		mi, ni, err := inline.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mp, mi) || !bytes.Equal(np, ni) {
			t.Fatalf("step %d: checkpoint frames differ from the inline host's", s)
		}
	}
	allocated := func(f func()) uint64 {
		var before, after gort.MemStats
		gort.ReadMemStats(&before)
		f()
		gort.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	for s := 0; s < 10; s++ {
		src.Step(vals)
		check(s, pool.Observe(vals), inline.Observe(vals))
	}
	src.Step(vals)
	for _, id := range []int{5, n/2 - 1, n / 2, n/2 + 77, n - 1} {
		vals[id] = 1<<31 + int64(id) // both shards, at a view's edges and inside
	}
	var topPool, topInline []int
	for _, h := range []struct {
		name string
		step func()
	}{
		{"pool", func() { topPool = pool.Observe(vals) }},
		{"inline", func() { topInline = inline.Observe(vals) }},
	} {
		// The wide column, 8 B a node, and what the step's executions
		// allocate besides: under 9 B a node, where keeping a narrow column
		// beside it or widening twice would be 12 or 16.
		if got := allocated(h.step); got < 8*n || got > 9*n {
			t.Fatalf("the step crossing 2^31 allocates %d bytes on the %s host, want one wide column of %d", got, h.name, 8*n)
		}
	}
	check(10, topPool, topInline)
	for s := 11; s < 40; s++ {
		var ids []int
		var dv []int64
		for id := r.Intn(300); id < n; id += 1 + r.Intn(600) {
			v := vals[id] + r.Int63n(1<<12) - 1<<11
			if r.Intn(8) == 0 {
				v = 1<<31 - 64 + r.Int63n(128) // across 2³¹
			}
			vals[id] = v
			ids, dv = append(ids, id), append(dv, v)
		}
		check(s, pool.ObserveDelta(ids, dv), inline.ObserveDelta(ids, dv))
	}
}
