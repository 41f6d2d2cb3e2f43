package topk

import (
	gort "runtime"
	"slices"
	"testing"
)

// poolNodes is the smallest monitor the in-process engine runs on its shard
// pool, given two processors: two shards of internal/runtime's
// minViewNodes. The rows named "conc" run their in-process monitor at this
// size, where it sweeps its dense steps on the pool at GOMAXPROCS ≥ 2.
const poolNodes = 1 << 16

// newAtProcs builds a monitor with build at GOMAXPROCS procs, which the
// in-process engine picks its host from, and closes it at cleanup.
func newAtProcs(t *testing.T, procs int, build func(Config) (*Monitor, error), cfg Config) *Monitor {
	t.Helper()
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(procs))
	m, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// TestHostFollowsGOMAXPROCSInvisibly flips GOMAXPROCS between 1 and 2
// around New at poolNodes: at 1 the in-process monitor runs every step on
// the bank inline, at 2 on a pool of two shards (internal/runtime's
// TestShardedPoolFollowsGOMAXPROCS pins the count) that it sweeps with the
// dense steps, the time-0 reset and the resets of later dense steps
// included — while every sparse step, violations and resets and batches
// that move every node among them, stays inline. The two monitors must agree
// on every report, count, byte, phase ledger and statistic, and write the
// same checkpoint frames byte for byte.
func TestHostFollowsGOMAXPROCSInvisibly(t *testing.T) {
	const n, k = poolNodes, 16
	type run struct {
		mon   *Monitor
		store *recordingStore
		trace *quietTrace
		tops  [][]int
	}
	runs := make([]*run, 2)
	for i, procs := range []int{1, 2} {
		r := &run{store: &recordingStore{inner: MemCheckpoints()}, trace: newQuietTrace(n, 9)}
		r.mon = newAtProcs(t, procs, New, Config{Nodes: n, K: k, Seed: 5, Checkpoint: Checkpoint{Store: r.store, Every: 4}})
		runs[i] = r
	}
	for _, r := range runs {
		q := r.trace
		for s := 0; s < 48; s++ {
			var top []int
			var err error
			switch {
			case s == 0:
				top, err = r.mon.Observe(q.vals)
			case s%8 == 0: // a dense step with a violation and a reset
				q.stir(s % 5)
				top, err = r.mon.Observe(q.vals)
			case s%8 == 4: // a sparse batch that moves every node
				top, err = r.mon.ObserveDelta(q.step(n))
			case s%8 == 6: // a sparse violation and reset
				top, err = r.mon.ObserveDelta(q.stir(s % 7))
			default:
				top, err = r.mon.ObserveDelta(q.step(4))
			}
			if err != nil {
				t.Fatalf("step %d: %v", s, err)
			}
			r.tops = append(r.tops, slices.Clone(top))
		}
	}
	inline, pooled := runs[0], runs[1]
	for s := range inline.tops {
		if !slices.Equal(inline.tops[s], pooled.tops[s]) {
			t.Fatalf("step %d: reports differ: inline %v, pool %v", s, inline.tops[s], pooled.tops[s])
		}
	}
	sameLedgers(t, "pool against inline", pooled.mon, inline.mon)
	if st := inline.mon.Stats(); st.Resets < 6 {
		t.Fatalf("the trace reset %d times, want the time-0 reset and at least five more", st.Resets)
	}
	if len(inline.store.frames) != len(pooled.store.frames) || len(inline.store.frames) == 0 {
		t.Fatalf("inline wrote %d checkpoint frames, the pool %d", len(inline.store.frames), len(pooled.store.frames))
	}
	for i := range inline.store.frames {
		if !slices.Equal(inline.store.frames[i], pooled.store.frames[i]) {
			t.Fatalf("checkpoint frame %d differs between the hosts", i)
		}
	}
}
