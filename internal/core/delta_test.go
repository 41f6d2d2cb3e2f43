package core

import (
	"sort"
	"testing"

	"repro/internal/order"
	"repro/internal/rng"
	"repro/internal/stream"
)

// TestDeltaDenseEquivalence is the sparse-path property test: an arbitrary
// interleaving of Observe and ObserveDelta must match a dense-only monitor
// with the same seed report-for-report and message-count-for-message-count.
func TestDeltaDenseEquivalence(t *testing.T) {
	cases := []struct {
		name string
		n, k int
	}{
		{"small", 9, 2},
		{"mid", 24, 5},
		{"k-equals-n", 6, 6},
		{"k-1", 13, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const seed, steps = 99, 400
			ref := New(Config{N: tc.n, K: tc.k, Seed: seed})
			sut := New(Config{N: tc.n, K: tc.k, Seed: seed})

			r := rng.New(7, 0xde17a)
			// Dense state starts at 0 everywhere, matching the monitors'
			// convention for never-observed nodes.
			dense := make([]int64, tc.n)
			ids := make([]int, 0, tc.n)
			vals := make([]int64, 0, tc.n)
			for s := 0; s < steps; s++ {
				// Mutate a random subset (possibly empty) of nodes.
				ids, vals = ids[:0], vals[:0]
				for id := 0; id < tc.n; id++ {
					if r.Float64() < 0.3 {
						dense[id] += r.Int63n(2001) - 1000
						ids = append(ids, id)
						vals = append(vals, dense[id])
					}
				}
				refTop := ref.Observe(dense)
				var sutTop []int
				if r.Float64() < 0.5 {
					sutTop = sut.Observe(dense)
				} else {
					sutTop = sut.ObserveDelta(ids, vals)
				}
				if !equalInts(refTop, sutTop) {
					t.Fatalf("step %d: reports differ: dense=%v mixed=%v", s, refTop, sutTop)
				}
				if cr, cs := ref.Counts(), sut.Counts(); cr != cs {
					t.Fatalf("step %d: counts differ: dense=%v mixed=%v", s, cr, cs)
				}
				if rs, ss := ref.Stats(), sut.Stats(); rs != ss {
					t.Fatalf("step %d: stats differ: dense=%+v mixed=%+v", s, rs, ss)
				}
			}
		})
	}
}

// TestDeltaAgainstOracle drives the sparse path alone over a delta-native
// workload and checks every report against a locally computed oracle.
func TestDeltaAgainstOracle(t *testing.T) {
	const n, k, steps = 40, 6, 500
	m := New(Config{N: n, K: k, Seed: 3})
	src := stream.NewSparseWalk(stream.SparseWalkConfig{
		N: n, Lo: 0, Hi: 1 << 20, MaxStep: 1 << 12, Changed: 3, Seed: 4,
	})
	ids := make([]int, n)
	vals := make([]int64, n)
	dense := make([]int64, n)
	for s := 0; s < steps; s++ {
		c := src.StepDelta(ids, vals)
		for j := 0; j < c; j++ {
			dense[ids[j]] = vals[j]
		}
		got := m.ObserveDelta(ids[:c], vals[:c])
		want := oracleIDs(m, dense, k)
		if !equalInts(got, want) {
			t.Fatalf("step %d: got %v want %v", s, got, want)
		}
		if err := m.Filters().Validate(m.Keys()); err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
	}
}

func oracleIDs(m *Monitor, vals []int64, k int) []int {
	keys := make([]order.Key, len(vals))
	m.EncodeAll(vals, keys)
	ids := make([]int, len(vals))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool { return keys[ids[a]] > keys[ids[b]] })
	top := append([]int(nil), ids[:k]...)
	sort.Ints(top)
	return top
}

// TestEmptyDeltaStep asserts that a step where nothing changed is legal,
// free, and does not disturb the report.
func TestEmptyDeltaStep(t *testing.T) {
	m := New(Config{N: 5, K: 2, Seed: 11})
	m.Observe([]int64{50, 40, 30, 20, 10})
	before := m.Counts()
	top := append([]int(nil), m.Top()...)
	for s := 0; s < 20; s++ {
		got := m.ObserveDelta(nil, nil)
		if !equalInts(got, top) {
			t.Fatalf("empty delta changed report: %v -> %v", top, got)
		}
	}
	if m.Counts() != before {
		t.Fatalf("empty delta steps cost messages: %v -> %v", before, m.Counts())
	}
	if m.Stats().Steps != 21 {
		t.Fatalf("steps not counted: %d", m.Stats().Steps)
	}
}

// TestObserveDeltaPanics pins the input validation of the sparse path.
func TestObserveDeltaPanics(t *testing.T) {
	for i, f := range []func(m *Monitor){
		func(m *Monitor) { m.ObserveDelta([]int{0, 0}, []int64{1, 2}) }, // duplicate
		func(m *Monitor) { m.ObserveDelta([]int{2, 1}, []int64{1, 2}) }, // unsorted
		func(m *Monitor) { m.ObserveDelta([]int{5}, []int64{1}) },       // out of range
		func(m *Monitor) { m.ObserveDelta([]int{0}, []int64{1, 2}) },    // length mismatch
		func(m *Monitor) { m.ObserveDelta([]int{-1}, []int64{1}) },      // negative id
	} {
		m := New(Config{N: 4, K: 1, Seed: 1})
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f(m)
		}()
	}
}

// TestObserveZeroAllocs is the allocation regression test for the hot
// path: after the scratch buffers have warmed up, a step on a calm
// random-walk workload — violation-free steps plus the occasional
// violation and reset — must not allocate at all.
func TestObserveZeroAllocs(t *testing.T) {
	const n = 256
	m := New(Config{N: n, K: 4, Seed: 21})
	src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 24, MaxStep: 8, Seed: 22})
	vals := make([]int64, n)
	for s := 0; s < 2000; s++ { // warm up every scratch buffer, incl. resets
		src.Step(vals)
		m.Observe(vals)
	}
	if avg := testing.AllocsPerRun(500, func() {
		src.Step(vals)
		m.Observe(vals)
	}); avg != 0 {
		t.Fatalf("dense Observe allocates %.2f per step, want 0", avg)
	}

	// The sparse path over a delta-native workload must be clean as well.
	sm := New(Config{N: n, K: 4, Seed: 23})
	dsrc := stream.NewSparseWalk(stream.SparseWalkConfig{
		N: n, Lo: 0, Hi: 1 << 24, MaxStep: 8, Changed: 3, Seed: 24,
	})
	ids := make([]int, n)
	dvals := make([]int64, n)
	for s := 0; s < 2000; s++ {
		c := dsrc.StepDelta(ids, dvals)
		sm.ObserveDelta(ids[:c], dvals[:c])
	}
	if avg := testing.AllocsPerRun(500, func() {
		c := dsrc.StepDelta(ids, dvals)
		sm.ObserveDelta(ids[:c], dvals[:c])
	}); avg != 0 {
		t.Fatalf("sparse ObserveDelta allocates %.2f per step, want 0", avg)
	}
}
