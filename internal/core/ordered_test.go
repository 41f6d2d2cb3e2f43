package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/stream"
)

// newOrdered builds a monitor in the coordinator's ordered mode.
func newOrdered(cfg Config) *Monitor {
	cfg.Ordered = true
	return New(cfg)
}

// observeRanked runs one step and returns the ranking it settled on.
func observeRanked(om *Monitor, vals []int64) []int {
	om.Observe(vals)
	return om.AppendRanking(nil)
}

// runOrderedChecked asserts exact rank reports at every step.
func runOrderedChecked(t *testing.T, om *Monitor, src stream.Source, steps int) {
	t.Helper()
	vals := make([]int64, om.N())
	for s := 0; s < steps; s++ {
		src.Step(vals)
		got := observeRanked(om, vals)
		want := sim.RankOracle(vals, om.K())
		if !equalInts(got, want) {
			t.Fatalf("step %d: ranked top-k %v, oracle %v (vals=%v)", s, got, want, vals)
		}
	}
}

func TestOrderedMonitorWalkExact(t *testing.T) {
	om := newOrdered(Config{N: 12, K: 4, Seed: 61})
	src := stream.NewRandomWalk(stream.WalkConfig{N: 12, Lo: 0, Hi: 100000, MaxStep: 400, Seed: 62})
	runOrderedChecked(t, om, src, 400)
}

func TestOrderedMonitorIIDExact(t *testing.T) {
	om := newOrdered(Config{N: 10, K: 3, Seed: 63})
	src := stream.NewIID(stream.IIDConfig{N: 10, Seed: 64, Dist: stream.Uniform, Lo: 0, Hi: 1 << 20})
	runOrderedChecked(t, om, src, 250)
}

func TestOrderedMonitorTwoBandSwapsExact(t *testing.T) {
	om := newOrdered(Config{N: 16, K: 5, Seed: 65})
	src := stream.NewTwoBand(stream.TwoBandConfig{N: 16, K: 5, Seed: 66, Gap: 1 << 16, BandWidth: 1 << 8, MaxStep: 30, SwapEvery: 40})
	runOrderedChecked(t, om, src, 300)
}

func TestOrderedMonitorRotationExact(t *testing.T) {
	om := newOrdered(Config{N: 8, K: 2, Seed: 67})
	src := stream.NewRotation(stream.RotationConfig{N: 8, Period: 3, Base: 100, Peak: 10000})
	runOrderedChecked(t, om, src, 200)
}

func TestOrderedMonitorK1(t *testing.T) {
	om := newOrdered(Config{N: 6, K: 1, Seed: 68})
	src := stream.NewBursty(stream.BurstyConfig{N: 6, Seed: 69, Lo: 0, Hi: 1 << 20, Noise: 5, BurstProb: 0.05, BurstMax: 1 << 16})
	runOrderedChecked(t, om, src, 200)
}

func TestOrderedMonitorKEqualsN(t *testing.T) {
	// With k = n the boundary layer is silent and the order layer alone
	// tracks the full ranking (the Lam et al. regime).
	om := newOrdered(Config{N: 5, K: 5, Seed: 70})
	src := stream.NewRandomWalk(stream.WalkConfig{N: 5, Lo: 0, Hi: 10000, MaxStep: 200, Seed: 71})
	runOrderedChecked(t, om, src, 250)
}

func TestOrderedCostsAtLeastSetMonitoring(t *testing.T) {
	// Rank information is strictly more than set information; on a
	// workload with heavy intra-band churn the ordered monitor must spend
	// more and the plain monitor must stay cheap.
	const n, k, steps = 16, 4, 500
	src1 := stream.NewTwoBand(stream.TwoBandConfig{N: n, K: k, Seed: 72, Gap: 1 << 18, BandWidth: 1 << 12, MaxStep: 1 << 10})
	src2 := stream.NewTwoBand(stream.TwoBandConfig{N: n, K: k, Seed: 72, Gap: 1 << 18, BandWidth: 1 << 12, MaxStep: 1 << 10})
	om := newOrdered(Config{N: n, K: k, Seed: 73})
	m := New(Config{N: n, K: k, Seed: 73})
	vals := make([]int64, n)
	for s := 0; s < steps; s++ {
		src1.Step(vals)
		om.Observe(vals)
	}
	for s := 0; s < steps; s++ {
		src2.Step(vals)
		m.Observe(vals)
	}
	ordCost, setCost := om.Counts().Total(), m.Counts().Total()
	if ordCost <= setCost {
		t.Fatalf("ordered (%d) should cost more than set-only (%d) under band churn", ordCost, setCost)
	}
	if setCost*3 < ordCost && setCost > 100 {
		// Sanity ceiling: order info within the band should not explode
		// beyond a small multiple on k=4.
		t.Logf("ordered/set cost ratio: %.1f", float64(ordCost)/float64(setCost))
	}
}

func TestOrderedOrderFilterAccessors(t *testing.T) {
	om := newOrdered(Config{N: 6, K: 2, Seed: 74})
	om.Observe([]int64{60, 50, 40, 30, 20, 10})
	members := om.AppendRanking(nil)
	if len(members) != 2 || members[0] != 0 || members[1] != 1 {
		t.Fatalf("rank order wrong: %v", members)
	}
	if _, ok := om.mach.OrderFilter(members[0]); !ok {
		t.Fatal("member should expose an order filter")
	}
	if _, ok := om.mach.OrderFilter(5); ok {
		t.Fatal("non-member should not expose an order filter")
	}
	// Order filters of adjacent ranks must not overlap beyond a point.
	top, _ := om.mach.OrderFilter(members[0])
	second, _ := om.mach.OrderFilter(members[1])
	if second.Hi > top.Lo {
		t.Fatalf("rank filters overlap: %v vs %v", top, second)
	}
}

func TestOrderedTopIsCopy(t *testing.T) {
	om := newOrdered(Config{N: 4, K: 2, Seed: 75})
	om.Observe([]int64{4, 3, 2, 1})
	got := om.AppendRanking(nil)
	got[0] = 99
	if om.AppendRanking(nil)[0] == 99 {
		t.Fatal("AppendRanking must return a copy")
	}
}

func TestOrderedDeterministic(t *testing.T) {
	run := func() int64 {
		om := newOrdered(Config{N: 10, K: 3, Seed: 76})
		src := stream.NewRandomWalk(stream.WalkConfig{N: 10, Lo: 0, Hi: 50000, MaxStep: 900, Seed: 77})
		vals := make([]int64, 10)
		for s := 0; s < 200; s++ {
			src.Step(vals)
			om.Observe(vals)
		}
		return om.Counts().Total()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("ordered monitor not deterministic: %d vs %d", a, b)
	}
}

// TestOrderedSmallScopeExhaustive runs the sequential engine over every
// value sequence of the small scope coord's test of the same name settles
// on the bare machine (n = 3, values 0..2, T = 3, every k): the ranking is
// the sorted oracle after every step, and the monitor's node-side
// order-filter table holds exactly the filters the machine assigned, each
// around its member's key.
func TestOrderedSmallScopeExhaustive(t *testing.T) {
	const n, vmax, steps = 3, 2, 3
	seq := make([]int64, n*steps) // an odometer over every sequence
	for {
		for k := 1; k <= n; k++ {
			om := newOrdered(Config{N: n, K: k, Seed: 7})
			for s := 0; s < steps; s++ {
				vals := seq[s*n : (s+1)*n]
				got := observeRanked(om, vals)
				if want := sim.RankOracle(vals, k); !equalInts(got, want) {
					t.Fatalf("k=%d seq=%v step %d: ranking %v, oracle %v", k, seq, s, got, want)
				}
				for _, id := range got {
					iv, _ := om.mach.OrderFilter(id)
					if held, key := om.bank.OrderFilter(id), om.bank.Key(id); held != iv || !iv.Contains(key) {
						t.Fatalf("k=%d seq=%v step %d: node %d (key %d) holds order filter %v, assigned %v", k, seq, s, id, key, held, iv)
					}
				}
			}
		}
		i := 0
		for ; i < len(seq) && seq[i] == vmax; i++ {
			seq[i] = 0
		}
		if i == len(seq) {
			return
		}
		seq[i]++
	}
}
