package runtime

import (
	"math"
	"sort"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/stream"
)

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

func oracleTop(vals []int64, k int) []int {
	codec := order.NewCodec(len(vals))
	keys := make([]order.Key, len(vals))
	for i, v := range vals {
		keys[i] = codec.Encode(v, i)
	}
	ids := make([]int, len(vals))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool { return keys[ids[a]] > keys[ids[b]] })
	top := append([]int(nil), ids[:k]...)
	sort.Ints(top)
	return top
}

// TestEquivalenceWithSequentialEngine is the central fidelity check: the
// goroutine engine and the sequential engine must produce identical top-k
// reports AND identical message counts at every step, for the same seed.
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
			conc := New(Config{N: tc.n, K: tc.k, Seed: seed})
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
	rt := New(Config{N: 10, K: 3, Seed: 7})
	defer rt.Close()
	src := stream.NewBursty(stream.BurstyConfig{N: 10, Seed: 8, Lo: 0, Hi: 1 << 22, Noise: 5, BurstProb: 0.05, BurstMax: 1 << 18})
	vals := make([]int64, 10)
	for s := 0; s < 250; s++ {
		src.Step(vals)
		got := rt.Observe(vals)
		if want := oracleTop(vals, 3); !equal(got, want) {
			t.Fatalf("step %d: got %v want %v", s, got, want)
		}
	}
}

func TestRuntimePhaseBreakdown(t *testing.T) {
	rt := New(Config{N: 8, K: 2, Seed: 9})
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

func TestRuntimeCloseIdempotent(t *testing.T) {
	rt := New(Config{N: 4, K: 1, Seed: 11})
	rt.Close()
	rt.Close() // must not panic
}

func TestRuntimeObserveAfterClosePanics(t *testing.T) {
	rt := New(Config{N: 4, K: 1, Seed: 12})
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
	bad := New(Config{N: 4, K: 1, Shards: 2})
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
	rt := New(Config{N: 6, K: 2, Seed: 14})
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
