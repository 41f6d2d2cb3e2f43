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
// starts narrow: ten dense steps of values under 2²⁰, in 3-byte cells, one
// dense step in which nodes of both shards cross 2²³, one in which they
// cross 2³¹, one in which they cross 2⁴⁷ — in the value domain below 2¹⁶
// nodes — then sparse steps that move values on both sides of each. A shard's view never widens the column the views
// share; the monitor widens it between two sweeps, on its own goroutine.
// After every step the report must be the oracle's, and the report, every
// phase's ledger row, the statistics and both checkpoint frames the inline
// host's; each crossing step allocates the wider column once, 4, 6 and then
// 8 bytes a node, on either host. Run it with -race: the widening happens
// while every shard is parked.
func TestPoolWidensBetweenSweeps(t *testing.T) {
	const n, k, seed = 1 << 15, 16, 11
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(2))
	cfg := core.Config{N: n, K: k, Seed: seed}
	var host core.Host
	pool := core.NewOn(cfg, func(bank *coord.Nodes) core.Host { host = shards(bank, 2); return host })
	defer pool.Close()
	if len(host.Views()) != 2 {
		t.Fatalf("the pool cut a bank of %d nodes into %d views, want 2", n, len(host.Views()))
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
	for s, c := range []struct {
		at    int64 // the value the crossing nodes take, and the new tier
		bytes uint64
	}{{1 << 23, 4}, {1 << 31, 6}, {1 << 47, 8}} {
		src.Step(vals)
		for _, id := range []int{5, n/2 - 1, n / 2, n/2 + 77, n - 1} {
			vals[id] = c.at + int64(id) // both shards, at a view's edges and inside
		}
		var topPool, topInline []int
		for _, h := range []struct {
			name string
			step func()
		}{
			{"pool", func() { topPool = pool.Observe(vals) }},
			{"inline", func() { topInline = inline.Observe(vals) }},
		} {
			// The wider column, and what the step's executions allocate
			// besides: under 1 B a node more, where keeping the narrower
			// column beside it or widening twice would be 4 B or more.
			if got := allocated(h.step); got < c.bytes*n || got > (c.bytes+1)*n {
				t.Fatalf("the step crossing %d allocates %d bytes on the %s host, want one column of %d", c.at, got, h.name, c.bytes*n)
			}
		}
		check(10+s, topPool, topInline)
	}
	for s := 13; s < 40; s++ {
		var ids []int
		var dv []int64
		for id := r.Intn(300); id < n; id += 1 + r.Intn(600) {
			v := vals[id] + r.Int63n(1<<12) - 1<<11
			switch r.Intn(8) {
			case 0:
				v = 1<<31 - 64 + r.Int63n(128) // across 2³¹
			case 1:
				v = -1<<47 - 64 + r.Int63n(128) // across −2⁴⁷
			case 2:
				v = -1<<23 - 64 + r.Int63n(128) // across −2²³
			}
			vals[id] = v
			ids, dv = append(ids, id), append(dv, v)
		}
		check(s, pool.ObserveDelta(ids, dv), inline.ObserveDelta(ids, dv))
	}
}
