package runtime

import (
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
)

// TestDeltaEquivalenceWithSequentialEngine extends the central fidelity
// check to the sparse ingestion path: driving both engines with the same
// delta stream must produce identical reports and message counts at every
// step, for any shard layout — Sharded's at the test's GOMAXPROCS (auto:
// inline at this n), or a pool of 1, 3, 7 or n shards. The delta steps run
// on the bank inline whatever the host; every tenth step is the dense
// vector of the same values, which a pool of two or more shards sweeps.
func TestDeltaEquivalenceWithSequentialEngine(t *testing.T) {
	const n, k, seed, steps = 48, 5, 77, 300
	for _, shards := range []int{0, 1, 3, 7, n} {
		t.Run(shardName(shards), func(t *testing.T) {
			seq := core.New(core.Config{N: n, K: k, Seed: seed})
			host := Sharded
			if shards > 0 {
				host = sharding(shards)
			}
			conc := core.NewOn(Config{N: n, K: k, Seed: seed}.core(), host)
			defer conc.Close()

			src := stream.NewSparseWalk(stream.SparseWalkConfig{
				N: n, Lo: 0, Hi: 1 << 22, MaxStep: 1 << 10, Changed: 4, Seed: 9,
			})
			ids, vals := make([]int, n), make([]int64, n)
			cur := make([]int64, n)
			for s := 0; s < steps; s++ {
				c := src.StepDelta(ids, vals)
				for j, id := range ids[:c] {
					cur[id] = vals[j]
				}
				var topSeq, topCon []int
				if s%10 == 9 {
					topSeq, topCon = seq.Observe(cur), conc.Observe(cur)
				} else {
					topSeq, topCon = seq.ObserveDelta(ids[:c], vals[:c]), conc.ObserveDelta(ids[:c], vals[:c])
				}
				if !equal(topSeq, topCon) {
					t.Fatalf("step %d: reports differ: seq=%v conc=%v", s, topSeq, topCon)
				}
				if cs, cc := seq.Counts(), conc.Counts(); cs != cc {
					t.Fatalf("step %d: counts differ: seq=%v conc=%v", s, cs, cc)
				}
			}
		})
	}
}

func shardName(s int) string {
	switch s {
	case 0:
		return "shards=auto"
	default:
		return "shards=" + string(rune('0'+s/10)) + string(rune('0'+s%10))
	}
}

// TestRuntimeDeltaMixedWithDense interleaves dense steps, which a pool of
// four shards sweeps, and sparse ones, which run inline, and pins the
// monitor against the sequential engine fed the equivalent dense vectors.
func TestRuntimeDeltaMixedWithDense(t *testing.T) {
	const n, k, seed, steps = 20, 3, 5, 250
	seq := core.New(core.Config{N: n, K: k, Seed: seed})
	conc := onShards(Config{N: n, K: k, Seed: seed}, 4)
	defer conc.Close()

	src := stream.NewSparseWalk(stream.SparseWalkConfig{
		N: n, Lo: 0, Hi: 1 << 20, MaxStep: 1 << 9, Changed: 2, Seed: 6,
	})
	ids, vals := make([]int, n), make([]int64, n)
	dense := make([]int64, n)
	for s := 0; s < steps; s++ {
		c := src.StepDelta(ids, vals)
		for j := 0; j < c; j++ {
			dense[ids[j]] = vals[j]
		}
		topSeq := seq.Observe(dense)
		var topCon []int
		if s%2 == 0 {
			topCon = conc.ObserveDelta(ids[:c], vals[:c])
		} else {
			topCon = conc.Observe(dense)
		}
		if !equal(topSeq, topCon) {
			t.Fatalf("step %d: reports differ: seq=%v conc=%v", s, topSeq, topCon)
		}
		if cs, cc := seq.Counts(), conc.Counts(); cs != cc {
			t.Fatalf("step %d: counts differ: seq=%v conc=%v", s, cs, cc)
		}
	}
}

// TestObserveDeltaInvalidInputLeavesStateUntouched pins that a rejected
// delta mutates neither engine: the same step can be retried with fixed
// input and both engines still agree. The delta is refused before the
// monitor picks where the step runs, so a small pool shows it.
func TestObserveDeltaInvalidInputLeavesStateUntouched(t *testing.T) {
	const n, k = 6, 2
	seq := core.New(core.Config{N: n, K: k, Seed: 3})
	conc := onShards(Config{N: n, K: k, Seed: 3}, 2)
	defer conc.Close()
	seq.Observe([]int64{10, 20, 30, 40, 50, 60})
	conc.Observe([]int64{10, 20, 30, 40, 50, 60})

	bad := func(f func()) {
		defer func() { _ = recover() }()
		f()
	}
	// id 3 is valid and precedes the invalid id 9: the key write for 3
	// must not happen.
	bad(func() { seq.ObserveDelta([]int{3, 9}, []int64{999, 1}) })
	bad(func() { conc.ObserveDelta([]int{3, 9}, []int64{999, 1}) })

	topSeq := seq.ObserveDelta([]int{5}, []int64{61})
	topCon := conc.ObserveDelta([]int{5}, []int64{61})
	if !equal(topSeq, topCon) {
		t.Fatalf("post-panic reports differ: seq=%v conc=%v", topSeq, topCon)
	}
	if seq.Counts() != conc.Counts() {
		t.Fatalf("post-panic counts differ: seq=%v conc=%v", seq.Counts(), conc.Counts())
	}
}

// TestRuntimeShardLayoutInvariance pins that the shard count changes
// neither reports nor message counts: a pool of one shard (inline) against
// one of eight, every step swept.
func TestRuntimeShardLayoutInvariance(t *testing.T) {
	const n, k, seed, steps = 30, 4, 13, 150
	ref := onShards(Config{N: n, K: k, Seed: seed}, 1)
	defer ref.Close()
	alt := onShards(Config{N: n, K: k, Seed: seed}, 8)
	defer alt.Close()

	mk := func() stream.Source {
		return stream.NewBursty(stream.BurstyConfig{N: n, Seed: 14, Lo: 0, Hi: 1 << 22, Noise: 6, BurstProb: 0.04, BurstMax: 1 << 18})
	}
	srcA, srcB := mk(), mk()
	va, vb := make([]int64, n), make([]int64, n)
	for s := 0; s < steps; s++ {
		srcA.Step(va)
		srcB.Step(vb)
		if !equal(ref.Observe(va), alt.Observe(vb)) {
			t.Fatalf("step %d: shard layouts diverged", s)
		}
		if ref.Counts() != alt.Counts() {
			t.Fatalf("step %d: shard layouts diverged in counts", s)
		}
	}
}
