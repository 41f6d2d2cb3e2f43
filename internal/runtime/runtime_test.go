package runtime

import (
	"math"
	gort "runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/stream"
)

// onShards returns a monitor of cfg on a pool of min(n, count) shards
// (inline for fewer than two), whatever GOMAXPROCS and however small the
// shards. The monitor sweeps every dense step over them and runs every
// sparse one on the bank inline.
func onShards(cfg Config, count int) *core.Monitor { return core.NewOn(cfg.core(), sharding(count)) }

// sharding is the host constructor onShards builds its pool with.
func sharding(count int) func(*coord.Nodes) core.Host {
	return func(bank *coord.Nodes) core.Host { return shards(bank, min(bank.Len(), count)) }
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEquivalenceWithSequentialEngine is the central fidelity check: a
// monitor on a pool of two shards, every step swept, and the sequential
// engine must produce identical top-k reports AND identical message
// counts at every step, for the same seed.
func TestEquivalenceWithSequentialEngine(t *testing.T) {
	cases := []struct {
		name string
		n, k int
		src  func(n int) stream.Source
	}{
		{"walk", 12, 3, func(n int) stream.Source {
			return stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 100000, MaxStep: 400, Seed: 2})
		}},
		{"iid", 9, 2, func(n int) stream.Source {
			return stream.NewIID(stream.IIDConfig{N: n, Seed: 3, Dist: stream.Uniform, Lo: 0, Hi: 1 << 20})
		}},
		{"rotation", 7, 1, func(n int) stream.Source {
			return stream.NewRotation(stream.RotationConfig{N: n, Period: 4, Base: 10, Peak: 1000})
		}},
		{"twoband", 14, 4, func(n int) stream.Source {
			return stream.NewTwoBand(stream.TwoBandConfig{N: n, K: 4, Seed: 5, Gap: 1 << 16, BandWidth: 1 << 8, MaxStep: 40, SwapEvery: 30})
		}},
		{"k-equals-n", 6, 6, func(n int) stream.Source {
			return stream.NewIID(stream.IIDConfig{N: n, Seed: 6, Dist: stream.Uniform, Lo: 0, Hi: 1000})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const seed, steps = 41, 200
			seq := core.New(core.Config{N: tc.n, K: tc.k, Seed: seed})
			conc := onShards(Config{N: tc.n, K: tc.k, Seed: seed}, 2)
			defer conc.Close()

			srcA, srcB := tc.src(tc.n), tc.src(tc.n)
			va, vb := make([]int64, tc.n), make([]int64, tc.n)
			for s := 0; s < steps; s++ {
				srcA.Step(va)
				srcB.Step(vb)
				topSeq := seq.Observe(va)
				topCon := conc.Observe(vb)
				if !equal(topSeq, topCon) {
					t.Fatalf("step %d: reports differ: seq=%v conc=%v", s, topSeq, topCon)
				}
				if cs, cc := seq.Counts(), conc.Counts(); cs != cc {
					t.Fatalf("step %d: counts differ: seq=%v conc=%v", s, cs, cc)
				}
				if bs, bc := seq.Ledger().TotalBytes(), conc.Ledger().TotalBytes(); bs != bc {
					t.Fatalf("step %d: bytes differ: seq=%v conc=%v", s, bs, bc)
				}
			}
			// The per-phase breakdown must agree as well.
			for _, p := range comm.Phases() {
				if a, b := seq.Ledger().PhaseCounts(p), conc.Ledger().PhaseCounts(p); a != b {
					t.Fatalf("phase %v differs: seq=%v conc=%v", p, a, b)
				}
				if a, b := seq.Ledger().PhaseBytes(p), conc.Ledger().PhaseBytes(p); a != b {
					t.Fatalf("phase %v bytes differ: seq=%v conc=%v", p, a, b)
				}
			}
		})
	}
}

func TestRuntimeExactAgainstOracle(t *testing.T) {
	rt := onShards(Config{N: 10, K: 3, Seed: 7}, 2)
	defer rt.Close()
	src := stream.NewBursty(stream.BurstyConfig{N: 10, Seed: 8, Lo: 0, Hi: 1 << 22, Noise: 5, BurstProb: 0.05, BurstMax: 1 << 18})
	vals := make([]int64, 10)
	for s := 0; s < 250; s++ {
		src.Step(vals)
		got := rt.Observe(vals)
		if want := order.Oracle(vals, 3); !equal(got, want) {
			t.Fatalf("step %d: got %v want %v", s, got, want)
		}
	}
}

func TestRuntimePhaseBreakdown(t *testing.T) {
	rt := onShards(Config{N: 8, K: 2, Seed: 9}, 2)
	defer rt.Close()
	src := stream.NewIID(stream.IIDConfig{N: 8, Seed: 10, Dist: stream.Uniform, Lo: 0, Hi: 1 << 16})
	vals := make([]int64, 8)
	for s := 0; s < 60; s++ {
		src.Step(vals)
		rt.Observe(vals)
	}
	led := rt.Ledger()
	var phaseSum int64
	for _, p := range comm.Phases() {
		phaseSum += led.PhaseCounts(p).Total()
	}
	if total := led.Total().Total(); total == 0 || phaseSum != total {
		t.Fatalf("phase sum %d vs total %d", phaseSum, total)
	}
}

// TestShardedPoolFollowsGOMAXPROCS pins the rule that picks the in-process
// monitor's host, the one scheduling choice it makes up front:
// min(GOMAXPROCS, n / minViewNodes) shards, tiling [0, n) contiguously in
// order, none shorter than minViewNodes — and the bank inline, one view,
// when that is fewer than two.
func TestShardedPoolFollowsGOMAXPROCS(t *testing.T) {
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(0))
	for _, tc := range []struct{ n, procs, shards int }{
		{1, 4, 1},
		{2*minViewNodes - 1, 4, 1},
		{2 * minViewNodes, 1, 1},
		{2 * minViewNodes, 4, 2},
		{3*minViewNodes + 201, 7, 3},
		{5*minViewNodes + 63, 4, 4},
	} {
		gort.GOMAXPROCS(tc.procs)
		p := Sharded(coord.NewNodes(tc.n, 0, tc.n, 1, false, order.Tol{}))
		views := p.Views()
		if got := len(views); got != tc.shards {
			t.Errorf("n=%d procs=%d: %d shards, want %d", tc.n, tc.procs, got, tc.shards)
		}
		next := 0
		for i, v := range views {
			if v.Lo() != next || v.Hi() <= next || (len(views) > 1 && v.Len() < minViewNodes) {
				t.Errorf("n=%d procs=%d: shard %d holds [%d, %d), want it to start at %d and hold %d nodes or more", tc.n, tc.procs, i, v.Lo(), v.Hi(), next, minViewNodes)
			}
			next = v.Hi()
		}
		if next != tc.n {
			t.Errorf("n=%d procs=%d: shards end at %d, want %d", tc.n, tc.procs, next, tc.n)
		}
		p.Close()
	}
}

func TestRuntimeCloseIdempotent(t *testing.T) {
	rt := onShards(Config{N: 4, K: 1, Seed: 11}, 2)
	rt.Close()
	rt.Close() // must not panic
}

func TestRuntimeObserveAfterClosePanics(t *testing.T) {
	rt := onShards(Config{N: 4, K: 1, Seed: 12}, 2)
	rt.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rt.Observe([]int64{1, 2, 3, 4})
}

func TestRuntimePanics(t *testing.T) {
	for i, f := range []func(){
		func() { New(Config{N: 0, K: 1}) },
		func() { New(Config{N: 3, K: 0}) },
		func() { New(Config{N: 3, K: 4}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
	rt := New(Config{N: 3, K: 1, Seed: 1})
	defer rt.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for wrong observation width")
			}
		}()
		rt.Observe([]int64{1, 2})
	}()
	// A value outside the value domain is rejected by a shard's bank; the
	// panic must surface on the calling goroutine, where it can be
	// recovered, as on the sequential engine — on a shard goroutine it
	// takes the process down. The violation is terminal: the step stays in
	// flight, and Close still returns.
	bad := onShards(Config{N: 4, K: 1}, 2)
	defer bad.Close()
	for _, step := range []func(){
		func() { bad.Observe([]int64{1, 2, math.MaxInt64, 4}) },
		func() { bad.Observe([]int64{1, 2, 3, 4}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic for an out-of-domain value, and for the step after it")
				}
			}()
			step()
		}()
	}
}

func TestRuntimeTopStableWithoutViolations(t *testing.T) {
	rt := onShards(Config{N: 6, K: 2, Seed: 14}, 2)
	defer rt.Close()
	vals := []int64{60, 50, 40, 30, 20, 10}
	first := rt.Observe(vals)
	after := rt.Counts()
	for s := 0; s < 50; s++ {
		got := rt.Observe(vals)
		if !equal(got, first) {
			t.Fatalf("top changed on constant input: %v -> %v", first, got)
		}
	}
	if rt.Counts() != after {
		t.Fatalf("constant input cost messages: %v -> %v", after, rt.Counts())
	}
}

// counting is a host that counts the sweeps its monitor asks of it.
type counting struct {
	core.Host
	sweeps *int
}

func (c counting) Sweep(f func(int)) {
	*c.sweeps++
	c.Host.Sweep(f)
}

// TestFirstStepSweepsTwice pins what a swept step costs the pool: one sweep
// for its batch and one per protocol execution, whatever the execution's
// rounds. The first step is the time-0 FILTERRESET, one execution: two
// sweeps on the two shards Sharded takes at n = 2·minViewNodes and
// GOMAXPROCS 2, where a pool crossing over once per round would take
// 1 + ⌈log₂ n⌉ + 1 = 18, for values the column a bank is born with holds
// (under 2²³). A step with a value it does not hold sweeps its batch once
// more, after the bank widens the column (core's split.observe): three.
func TestFirstStepSweepsTwice(t *testing.T) {
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(2))
	const n = 2 * minViewNodes
	for _, arm := range []struct {
		hi     int64 // the walk's values lie below it
		sweeps int
	}{{1 << 20, 2}, {1 << 24, 3}} {
		sweeps := 0
		m := core.NewOn(Config{N: n, K: 8, Seed: 1}.core(), func(bank *coord.Nodes) core.Host {
			return counting{Sharded(bank), &sweeps}
		})
		vals := make([]int64, n)
		stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: arm.hi, MaxStep: 8, Seed: 2}).Step(vals)
		m.Observe(vals)
		m.Close()
		if st := m.Stats(); st.Resets != 1 || st.HandlerCalls != 0 {
			t.Fatalf("values below %d: the first step ran %+v, want the time-0 reset alone", arm.hi, st)
		}
		if sweeps != arm.sweeps {
			t.Fatalf("values below %d: the first step swept the pool %d times, want %d: its batch, a widening's second, and its one execution", arm.hi, sweeps, arm.sweeps)
		}
	}
}
