package runtime

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/stream"
)

// newOrdered starts a runtime in the coordinator's ordered mode.
func newOrdered(cfg Config) *core.Monitor {
	cfg.Ordered = true
	return New(cfg)
}

// observeRanked runs one step and returns the ranking it settled on.
func observeRanked(rt *core.Monitor, vals []int64) []int {
	rt.Observe(vals)
	return rt.AppendRanking(nil)
}

// orderedLedger renders everything an ordered run charged — totals, the
// three phase rows, counts and bytes — and the hash of its ranking
// sequence, in the form the goldens below were recorded in.
func orderedLedger(led *comm.Ledger, rankHash uint64) string {
	s := fmt.Sprintf("%v %v", led.Total(), led.TotalBytes())
	for _, p := range comm.Phases() {
		s += fmt.Sprintf(" | %v %v", led.PhaseCounts(p), led.PhaseBytes(p))
	}
	return s + fmt.Sprintf(" | rank %016x", rankHash)
}

// TestOrderedEquivalenceWithSequential pins the ordered mode on the
// concurrent engine against the sequential one — identical rankings,
// message counts and statistics at every step, per workload family — and
// both against goldens recorded from core.NewOrdered and
// runtime.NewOrdered, the wrappers outside the machine that the mode
// replaced, at the last commit that had them (they agreed on every line).
func TestOrderedEquivalenceWithSequential(t *testing.T) {
	cases := []struct {
		name   string
		n, k   int
		src    func(n int) stream.Source
		golden string
	}{
		{"walk", 10, 3, func(n int) stream.Source {
			return stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 100000, MaxStep: 600, Seed: 31})
		}, "up=624 down=191 bcast=876 total=1691 upB=3120 downB=2396 bcastB=5290 totalB=10806 | up=45 down=0 bcast=158 total=203 upB=225 downB=0 bcastB=1168 totalB=1393 | up=176 down=191 bcast=151 total=518 upB=880 downB=2396 bcastB=867 totalB=4143 | up=403 down=0 bcast=567 total=970 upB=2015 downB=0 bcastB=3255 totalB=5270 | rank 8f2ab87163ddff23"},
		{"iid", 8, 2, func(n int) stream.Source {
			return stream.NewIID(stream.IIDConfig{N: n, Seed: 32, Dist: stream.Uniform, Lo: 0, Hi: 1 << 18})
		}, "up=3605 down=6 bcast=5081 total=8692 upB=20140 downB=96 bcastB=33462 totalB=53698 | up=657 down=0 bcast=1260 total=1917 upB=3702 downB=0 bcastB=9154 totalB=12856 | up=491 down=6 bcast=597 total=1094 upB=2682 downB=96 bcastB=3572 totalB=6350 | up=2457 down=0 bcast=3224 total=5681 upB=13756 downB=0 bcastB=20736 totalB=34492 | rank 60af5dd785f9c8df"},
		{"twoband-churn", 12, 4, func(n int) stream.Source {
			return stream.NewTwoBand(stream.TwoBandConfig{N: n, K: 4, Seed: 33, Gap: 1 << 16, BandWidth: 1 << 10, MaxStep: 1 << 8, SwapEvery: 40})
		}, "up=518 down=842 bcast=242 total=1602 upB=2513 downB=9137 bcastB=1356 totalB=13006 | up=12 down=0 bcast=42 total=54 upB=54 downB=0 bcastB=298 totalB=352 | up=364 down=842 bcast=18 total=1224 upB=1814 downB=9137 bcastB=91 totalB=11042 | up=142 down=0 bcast=182 total=324 upB=645 downB=0 bcastB=967 totalB=1612 | rank 6e0250bcba286b55"},
		{"rotation", 6, 2, func(n int) stream.Source {
			return stream.NewRotation(stream.RotationConfig{N: n, Period: 3, Base: 10, Peak: 5000})
		}, "up=904 down=28 bcast=1339 total=2271 upB=3312 downB=420 bcastB=7032 totalB=10764 | up=111 down=0 bcast=278 total=389 upB=445 downB=0 bcastB=1937 totalB=2382 | up=166 down=28 bcast=151 total=345 upB=609 downB=420 bcastB=669 totalB=1698 | up=627 down=0 bcast=910 total=1537 upB=2258 downB=0 bcastB=4426 totalB=6684 | rank a97943e11cf3bc95"},
		{"k-equals-n", 5, 5, func(n int) stream.Source {
			return stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 10000, MaxStep: 400, Seed: 34})
		}, "up=202 down=468 bcast=20 total=690 upB=959 downB=4742 bcastB=128 totalB=5829 | up=0 down=0 bcast=0 total=0 upB=0 downB=0 bcastB=0 totalB=0 | up=190 down=468 bcast=0 total=658 upB=899 downB=4742 bcastB=0 totalB=5641 | up=12 down=0 bcast=20 total=32 upB=60 downB=0 bcastB=128 totalB=188 | rank 90da7d15c8ed047d"},
		{"walk-wide", 200, 17, func(n int) stream.Source {
			return stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 100000, MaxStep: 600, Seed: 35})
		}, "up=20634 down=2918 bcast=22309 total=45861 upB=131972 downB=32469 bcastB=144559 totalB=309000 | up=210 down=0 bcast=1407 total=1617 upB=1378 downB=0 bcastB=13122 totalB=14500 | up=2509 down=2918 bcast=1016 total=6443 upB=16303 downB=32469 bcastB=6476 totalB=55248 | up=17915 down=0 bcast=19886 total=37801 upB=114291 downB=0 bcastB=124961 totalB=239252 | rank ae8c8c3398573421"},
		{"k-one", 6, 1, func(n int) stream.Source {
			return stream.NewBursty(stream.BurstyConfig{N: n, Seed: 36, Lo: 0, Hi: 1 << 20, Noise: 5, BurstProb: 0.05, BurstMax: 1 << 16})
		}, "up=37 down=0 bcast=55 total=92 upB=208 downB=0 bcastB=325 totalB=533 | up=5 down=0 bcast=8 total=13 upB=30 downB=0 bcastB=48 totalB=78 | up=12 down=0 bcast=20 total=32 upB=68 downB=0 bcastB=115 totalB=183 | up=20 down=0 bcast=27 total=47 upB=110 downB=0 bcastB=162 totalB=272 | rank d2ec987ad0a8f0e4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const seed, steps = 71, 250
			seq := core.New(core.Config{N: tc.n, K: tc.k, Seed: seed, Ordered: true})
			conc := newOrdered(Config{N: tc.n, K: tc.k, Seed: seed})
			defer conc.Close()
			srcA, srcB := tc.src(tc.n), tc.src(tc.n)
			va, vb := make([]int64, tc.n), make([]int64, tc.n)
			hash := fnv.New64a()
			for s := 0; s < steps; s++ {
				srcA.Step(va)
				srcB.Step(vb)
				seq.Observe(va)
				a, b := seq.AppendRanking(nil), observeRanked(conc, vb)
				if !equal(a, b) {
					t.Fatalf("step %d: rankings differ: seq=%v conc=%v", s, a, b)
				}
				if seq.Counts() != conc.Counts() {
					t.Fatalf("step %d: counts differ: seq=%v conc=%v", s, seq.Counts(), conc.Counts())
				}
				if seq.Stats() != conc.Stats() {
					t.Fatalf("step %d: stats differ: seq=%+v conc=%+v", s, seq.Stats(), conc.Stats())
				}
				for _, id := range a {
					fmt.Fprintf(hash, "%d,", id)
				}
			}
			if got := orderedLedger(seq.Ledger(), hash.Sum64()); got != tc.golden {
				t.Errorf("sequential engine left the recorded run:\n got %s\nwant %s", got, tc.golden)
			}
			if got := orderedLedger(conc.Ledger(), hash.Sum64()); got != tc.golden {
				t.Errorf("concurrent engine left the recorded run:\n got %s\nwant %s", got, tc.golden)
			}
		})
	}
}

func TestOrderedRuntimeExactRanks(t *testing.T) {
	const n, k = 9, 3
	ot := newOrdered(Config{N: n, K: k, Seed: 35})
	defer ot.Close()
	src := stream.NewBursty(stream.BurstyConfig{N: n, Seed: 36, Lo: 0, Hi: 1 << 20, Noise: 5, BurstProb: 0.05, BurstMax: 1 << 16})
	vals := make([]int64, n)
	for s := 0; s < 250; s++ {
		src.Step(vals)
		got := observeRanked(ot, vals)
		if len(got) != k {
			t.Fatalf("step %d: rank count %d", s, len(got))
		}
		// Verify descending rank order under (value, smaller-id-wins).
		for i := 1; i < len(got); i++ {
			hi, lo := got[i-1], got[i]
			if vals[hi] < vals[lo] || (vals[hi] == vals[lo] && hi > lo) {
				t.Fatalf("step %d: rank inversion %v (vals %v)", s, got, vals)
			}
		}
		// Membership must match the set oracle.
		want := oracleTop(vals, k)
		set := map[int]bool{}
		for _, id := range got {
			set[id] = true
		}
		for _, id := range want {
			if !set[id] {
				t.Fatalf("step %d: membership wrong: %v vs %v", s, got, want)
			}
		}
	}
}

func TestOrderedRuntimeTopIsCopy(t *testing.T) {
	ot := newOrdered(Config{N: 4, K: 2, Seed: 37})
	defer ot.Close()
	ot.Observe([]int64{4, 3, 2, 1})
	top := ot.AppendRanking(nil)
	top[0] = 99
	if ot.AppendRanking(nil)[0] == 99 {
		t.Fatal("AppendRanking must return a copy")
	}
}

func TestOrderedRuntimeLedgerConsistent(t *testing.T) {
	ot := newOrdered(Config{N: 8, K: 3, Seed: 38})
	defer ot.Close()
	src := stream.NewTwoBand(stream.TwoBandConfig{N: 8, K: 3, Seed: 39, Gap: 1 << 14, BandWidth: 1 << 9, MaxStep: 1 << 7})
	vals := make([]int64, 8)
	for s := 0; s < 100; s++ {
		src.Step(vals)
		ot.Observe(vals)
	}
	if ot.Counts() != ot.Ledger().Total() {
		t.Fatal("Counts and Ledger disagree")
	}
	if ot.Counts().Down == 0 {
		t.Fatal("band churn should have reassigned order bounds (Down > 0)")
	}
}
