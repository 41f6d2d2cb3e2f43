package runtime

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/stream"
)

// newOrdered starts a monitor in the coordinator's ordered mode on a pool
// of shards shards.
func newOrdered(cfg Config, shards int) *core.Monitor {
	cfg.Ordered = true
	return onShards(cfg, shards)
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

// TestOrderedEquivalenceWithSequential pins the ordered mode on a pool of
// three shards against the sequential engine — identical rankings, message
// counts and statistics at every step, per workload family — and both
// against goldens recorded from core.NewOrdered and runtime.NewOrdered,
// the wrappers outside the machine that the mode replaced, at the last
// commit that had them (they agreed on every line), with the up and byte
// columns re-drawn once under the word coin.
func TestOrderedEquivalenceWithSequential(t *testing.T) {
	cases := []struct {
		name   string
		n, k   int
		src    func(n int) stream.Source
		golden string
	}{
		{"walk", 10, 3, func(n int) stream.Source {
			return stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 100000, MaxStep: 600, Seed: 31})
		}, "up=459 down=191 bcast=471 total=1121 upB=2295 downB=2396 bcastB=3244 totalB=7935 | up=45 down=0 bcast=158 total=203 upB=225 downB=0 bcastB=1238 totalB=1463 | up=184 down=191 bcast=151 total=526 upB=920 downB=2396 bcastB=860 totalB=4176 | up=230 down=0 bcast=162 total=392 upB=1150 downB=0 bcastB=1146 totalB=2296 | rank 8f2ab87163ddff23"},
		{"iid", 8, 2, func(n int) stream.Source {
			return stream.NewIID(stream.IIDConfig{N: n, Seed: 32, Dist: stream.Uniform, Lo: 0, Hi: 1 << 18})
		}, "up=2736 down=6 bcast=3097 total=5839 upB=15269 downB=96 bcastB=22020 totalB=37385 | up=644 down=0 bcast=1260 total=1904 upB=3627 downB=0 bcastB=9097 totalB=12724 | up=514 down=6 bcast=597 total=1117 upB=2820 downB=96 bcastB=3735 totalB=6651 | up=1578 down=0 bcast=1240 total=2818 upB=8822 downB=0 bcastB=9188 totalB=18010 | rank 60af5dd785f9c8df"},
		{"twoband-churn", 12, 4, func(n int) stream.Source {
			return stream.NewTwoBand(stream.TwoBandConfig{N: n, K: 4, Seed: 33, Gap: 1 << 16, BandWidth: 1 << 10, MaxStep: 1 << 8, SwapEvery: 40})
		}, "up=450 down=842 bcast=102 total=1394 upB=2203 downB=9137 bcastB=670 totalB=12010 | up=12 down=0 bcast=42 total=54 upB=54 downB=0 bcastB=297 totalB=351 | up=367 down=842 bcast=18 total=1227 upB=1829 downB=9137 bcastB=90 totalB=11056 | up=71 down=0 bcast=42 total=113 upB=320 downB=0 bcastB=283 totalB=603 | rank 6e0250bcba286b55"},
		{"rotation", 6, 2, func(n int) stream.Source {
			return stream.NewRotation(stream.RotationConfig{N: n, Period: 3, Base: 10, Peak: 5000})
		}, "up=646 down=28 bcast=779 total=1453 upB=2430 downB=420 bcastB=4678 totalB=7528 | up=111 down=0 bcast=278 total=389 upB=445 downB=0 bcastB=1941 totalB=2386 | up=172 down=28 bcast=151 total=351 upB=630 downB=420 bcastB=626 totalB=1676 | up=363 down=0 bcast=350 total=713 upB=1355 downB=0 bcastB=2111 totalB=3466 | rank a97943e11cf3bc95"},
		{"k-equals-n", 5, 5, func(n int) stream.Source {
			return stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 10000, MaxStep: 400, Seed: 34})
		}, "up=195 down=468 bcast=4 total=667 upB=924 downB=4742 bcastB=41 totalB=5707 | up=0 down=0 bcast=0 total=0 upB=0 downB=0 bcastB=0 totalB=0 | up=190 down=468 bcast=0 total=658 upB=899 downB=4742 bcastB=0 totalB=5641 | up=5 down=0 bcast=4 total=9 upB=25 downB=0 bcastB=41 totalB=66 | rank 90da7d15c8ed047d"},
		{"walk-wide", 200, 17, func(n int) stream.Source {
			return stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 100000, MaxStep: 600, Seed: 35})
		}, "up=11983 down=2918 bcast=3643 total=18544 upB=76520 downB=32469 bcastB=29688 totalB=138677 | up=221 down=0 bcast=1407 total=1628 upB=1452 downB=0 bcastB=13158 totalB=14610 | up=2569 down=2918 bcast=1016 total=6503 upB=16678 downB=32469 bcastB=6418 totalB=55565 | up=9193 down=0 bcast=1220 total=10413 upB=58390 downB=0 bcastB=10112 totalB=68502 | rank ae8c8c3398573421"},
		{"k-one", 6, 1, func(n int) stream.Source {
			return stream.NewBursty(stream.BurstyConfig{N: n, Seed: 36, Lo: 0, Hi: 1 << 20, Noise: 5, BurstProb: 0.05, BurstMax: 1 << 16})
		}, "up=34 down=0 bcast=43 total=77 upB=189 downB=0 bcastB=303 totalB=492 | up=5 down=0 bcast=8 total=13 upB=30 downB=0 bcastB=60 totalB=90 | up=14 down=0 bcast=20 total=34 upB=77 downB=0 bcastB=144 totalB=221 | up=15 down=0 bcast=15 total=30 upB=82 downB=0 bcastB=99 totalB=181 | rank d2ec987ad0a8f0e4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const seed, steps = 71, 250
			seq := core.New(core.Config{N: tc.n, K: tc.k, Seed: seed, Ordered: true})
			conc := newOrdered(Config{N: tc.n, K: tc.k, Seed: seed}, 3)
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
				t.Errorf("the pool's monitor left the recorded run:\n got %s\nwant %s", got, tc.golden)
			}
		})
	}
}

// TestOrderedRuntimeExactRanks grades the ordered mode on a pool of two
// shards, every step swept, against the oracle: the ranking in
// descending order, its members the top-k set, at every step.
func TestOrderedRuntimeExactRanks(t *testing.T) {
	const n, k = 9, 3
	ot := newOrdered(Config{N: n, K: k, Seed: 35}, 2)
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
		want := order.Oracle(vals, k)
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
	ot := newOrdered(Config{N: 4, K: 2, Seed: 37}, 2)
	defer ot.Close()
	ot.Observe([]int64{4, 3, 2, 1})
	top := ot.AppendRanking(nil)
	top[0] = 99
	if ot.AppendRanking(nil)[0] == 99 {
		t.Fatal("AppendRanking must return a copy")
	}
}

func TestOrderedRuntimeLedgerConsistent(t *testing.T) {
	ot := newOrdered(Config{N: 8, K: 3, Seed: 38}, 2)
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
