package shardrun

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/fanout"
	"repro/internal/fanout/fanouttest"
	"repro/internal/stream"
)

// TestSingleShardBitIdentical is the anchor of the sharded engine: with
// S=1 the delegation layer must be completely transparent — reports,
// message counts, charged bytes and the per-phase ledgers all equal the
// sequential engine's bit for bit, at every step, under both gathers.
func TestSingleShardBitIdentical(t *testing.T) {
	fanouttest.EachGather(t, func(t *testing.T) {
		testSingleShardBitIdentical(t)
	})
}

func testSingleShardBitIdentical(t *testing.T) {
	const n, k, seed, steps = 13, 4, 41, 250
	seq := core.New(core.Config{N: n, K: k, Seed: seed})
	sh := star.MustLoopback(t, fanout.Config{N: n, K: k, Seed: seed}, 1)
	defer sh.Close()

	srcA := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 100000, MaxStep: 400, Seed: 2})
	srcB := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 100000, MaxStep: 400, Seed: 2})
	va, vb := make([]int64, n), make([]int64, n)
	for s := 0; s < steps; s++ {
		srcA.Step(va)
		srcB.Step(vb)
		topSeq := seq.Observe(va)
		topSh := sh.Observe(vb)
		if !slices.Equal(topSeq, topSh) {
			t.Fatalf("step %d: reports differ: seq=%v shard=%v", s, topSeq, topSh)
		}
		if cs, cn := seq.Counts(), sh.Counts(); cs != cn {
			t.Fatalf("step %d: counts differ: seq=%v shard=%v", s, cs, cn)
		}
		if bs, bn := seq.Ledger().TotalBytes(), sh.Bytes(); bs != bn {
			t.Fatalf("step %d: bytes differ: seq=%v shard=%v", s, bs, bn)
		}
	}
	for _, ph := range comm.Phases() {
		if cs, cn := seq.Ledger().PhaseCounts(ph), sh.Ledger().PhaseCounts(ph); cs != cn {
			t.Fatalf("phase %v counts differ: seq=%v shard=%v", ph, cs, cn)
		}
		if bs, bn := seq.Ledger().PhaseBytes(ph), sh.Ledger().PhaseBytes(ph); bs != bn {
			t.Fatalf("phase %v bytes differ: seq=%v shard=%v", ph, bs, bn)
		}
	}
	if seq.Stats() != sh.Stats() {
		t.Fatalf("stats differ: seq=%+v shard=%+v", seq.Stats(), sh.Stats())
	}
	if sh.Overhead().Total() == 0 || sh.OverheadBytes().Total() == 0 {
		t.Fatal("coordination overhead ledger stayed empty")
	}
}

// TestMultiShardReportEquivalence runs the matrix S ∈ {1, 2, 4} over
// loopback pipes: reports must equal the sequential engine's at every
// step for every shard count (message counts legitimately differ for
// S > 1 — each shard pays its own protocol rounds).
func TestMultiShardReportEquivalence(t *testing.T) {
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
	for _, g := range fanouttest.Gathers {
		for _, tc := range cases {
			for _, shards := range []int{1, 2, 4} {
				if shards > tc.n {
					continue
				}
				t.Run(g.Name+"/"+tc.name, func(t *testing.T) {
					fanouttest.SetGather(t, g.Procs)
					const seed, steps = 41, 200
					seq := core.New(core.Config{N: tc.n, K: tc.k, Seed: seed})
					sh := star.MustLoopback(t, fanout.Config{N: tc.n, K: tc.k, Seed: seed}, shards)
					defer sh.Close()

					srcA, srcB := tc.src(tc.n), tc.src(tc.n)
					va, vb := make([]int64, tc.n), make([]int64, tc.n)
					for s := 0; s < steps; s++ {
						srcA.Step(va)
						srcB.Step(vb)
						topSeq := seq.Observe(va)
						topSh := sh.Observe(vb)
						if !slices.Equal(topSeq, topSh) {
							t.Fatalf("S=%d step %d: reports differ: seq=%v shard=%v", shards, s, topSeq, topSh)
						}
					}
					if sh.Err() != nil {
						t.Fatalf("S=%d: engine error: %v", shards, sh.Err())
					}
				})
			}
		}
	}
}

// TestOverheadModeIndependent pins the sub-frame charging rule: batching
// coalesces transport frames, never coordination messages. The root↔shard
// overhead ledger counts every command and reply on its own, so it reads
// what a strict one-command-one-round-trip cycle would move, while the
// transport, which carries the batch envelopes, must show strictly fewer
// frames; both are pinned as goldens and neither depends on the gather. They
// were re-priced when a FILTERRESET became one execution to every shard
// where it was a k-merge of k+1 (PR 24: 3174/1980 → 2179/1184 at S = 1,
// 4557/3164 → 3562/2368 at S = 2, 7323/5532 → 6328/4736 at S = 4: per reset
// k fewer Round commands and one Winner less, k fewer frames).
func TestOverheadModeIndependent(t *testing.T) {
	const n, k, seed, steps = 16, 4, 3, 200
	for _, tc := range []struct {
		shards       int
		ledger, sent int64
	}{{1, 2179, 1184}, {2, 3562, 2368}, {4, 6328, 4736}} {
		for _, g := range fanouttest.Gathers {
			t.Run(fmt.Sprintf("%s/S=%d", g.Name, tc.shards), func(t *testing.T) {
				fanouttest.SetGather(t, g.Procs)
				sh := star.MustLoopback(t, fanout.Config{N: n, K: k, Seed: seed}, tc.shards)
				defer sh.Close()
				src := stream.NewIID(stream.IIDConfig{N: n, Seed: 8, Dist: stream.Uniform, Lo: 0, Hi: 1 << 20})
				vals := make([]int64, n)
				for s := 0; s < steps; s++ {
					src.Step(vals)
					sh.Observe(vals)
				}
				led, ts := sh.Overhead(), sh.TransportStats()
				if ts.SentFrames >= led.Down || ts.RecvFrames >= led.Up {
					t.Fatalf("root did not coalesce frames: sent %d for %d commands, received %d for %d replies",
						ts.SentFrames, led.Down, ts.RecvFrames, led.Up)
				}
				if led.Down != tc.ledger || ts.SentFrames != tc.sent {
					t.Fatalf("ledger commands / sent frames = %d / %d, want %d / %d", led.Down, ts.SentFrames, tc.ledger, tc.sent)
				}
			})
		}
	}
}

// TestOverheadGrowsWithShards pins the direction of the coordination
// cost: more shards means more root↔shard frames for the same workload.
func TestOverheadGrowsWithShards(t *testing.T) {
	const n, k, seed, steps = 16, 4, 3, 150
	frames := make([]int64, 0, 3)
	for _, shards := range []int{1, 2, 4} {
		sh := star.MustLoopback(t, fanout.Config{N: n, K: k, Seed: seed}, shards)
		src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 16, MaxStep: 500, Seed: 8})
		vals := make([]int64, n)
		for s := 0; s < steps; s++ {
			src.Step(vals)
			sh.Observe(vals)
		}
		frames = append(frames, sh.Overhead().Total())
		sh.Close()
	}
	if !(frames[0] < frames[1] && frames[1] < frames[2]) {
		t.Fatalf("overhead not increasing with S: %v", frames)
	}
}
