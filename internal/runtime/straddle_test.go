package runtime

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stream"
)

// TestWordStraddlingShardsMatchSequential runs a pool with shard boundaries
// inside words of the bank's membership bitset — n is no multiple of 64
// and the shard count 3 or 7, so neighbouring shards read one word at
// once — under constant violations and resets, in the set and the ordered
// mode, with dense steps (swept) and sparse ones (inline) mixed. After
// every step the
// report, the ranking, every phase's ledger row and the statistics must be
// the sequential engine's, and in the set mode so must both checkpoint
// frames (the ordered mode refuses checkpoints on both). Run it with -race:
// the shards only read the shared words, which the coordinator writes
// while they are parked.
func TestWordStraddlingShardsMatchSequential(t *testing.T) {
	const n, k, seed, steps = 201, 6, 19, 240
	for _, ordered := range []bool{false, true} {
		for _, shards := range []int{3, 7} {
			t.Run(fmt.Sprintf("ordered=%v shards=%d", ordered, shards), func(t *testing.T) {
				seq := core.New(core.Config{N: n, K: k, Seed: seed, Ordered: ordered})
				conc := onShards(Config{N: n, K: k, Seed: seed, Ordered: ordered}, shards)
				defer conc.Close()

				src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 12, MaxStep: 1 << 10, Seed: 23})
				vals := make([]int64, n)
				r := rng.New(seed, 5)
				var ids []int
				var dv []int64
				for s := 0; s < steps; s++ {
					src.Step(vals)
					var topSeq, topCon []int
					if s%3 == 2 { // a sparse step over a random subset
						ids, dv = ids[:0], dv[:0]
						for id := r.Intn(4); id < n; id += 1 + r.Intn(6) {
							ids, dv = append(ids, id), append(dv, vals[id])
						}
						topSeq, topCon = seq.ObserveDelta(ids, dv), conc.ObserveDelta(ids, dv)
					} else {
						topSeq, topCon = seq.Observe(vals), conc.Observe(vals)
					}
					if !slices.Equal(topSeq, topCon) {
						t.Fatalf("step %d: reports differ: seq=%v conc=%v", s, topSeq, topCon)
					}
					if a, b := seq.AppendRanking(nil), conc.AppendRanking(nil); !slices.Equal(a, b) {
						t.Fatalf("step %d: rankings differ: seq=%v conc=%v", s, a, b)
					}
					for _, p := range comm.Phases() {
						ls, lc := seq.Ledger(), conc.Ledger()
						if ls.PhaseCounts(p) != lc.PhaseCounts(p) || ls.PhaseBytes(p) != lc.PhaseBytes(p) {
							t.Fatalf("step %d: phase %v ledger %v/%v, sequential %v/%v", s, p,
								lc.PhaseCounts(p), lc.PhaseBytes(p), ls.PhaseCounts(p), ls.PhaseBytes(p))
						}
					}
					if seq.Stats() != conc.Stats() {
						t.Fatalf("step %d: stats %+v, sequential %+v", s, conc.Stats(), seq.Stats())
					}
					if ordered {
						continue
					}
					ms, ns, err := seq.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					mc, nc, err := conc.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(ms, mc) || !bytes.Equal(ns, nc) {
						t.Fatalf("step %d: checkpoint frames differ from the sequential engine's", s)
					}
				}
				if st := seq.Stats(); st.Resets < steps/4 || st.ViolationSteps < steps/2 {
					t.Fatalf("a calm trace tests nothing: %+v", st)
				}
			})
		}
	}
}
