package topk

import (
	"slices"
	"testing"
)

// TestObserveDeltaMatchesObserve drives both ingestion forms over the same
// logical value sequence and requires identical reports and counts, at a
// small n and at poolNodes, where on two processors the dense calls run on
// the shard pool and the sparse ones on the bank inline.
func TestObserveDeltaMatchesObserve(t *testing.T) {
	for name, n := range map[string]int{"sequential": 12, "concurrent": poolNodes} {
		t.Run(name, func(t *testing.T) {
			const k = 3
			mk := func() *Monitor {
				m, err := New(Config{Nodes: n, K: k, Seed: 17})
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			dense, sparse := mk(), mk()
			defer dense.Close()
			defer sparse.Close()

			cur := make([]int64, n)
			for s := 0; s < 120; s++ {
				// Move two nodes per step, deterministically.
				i1, i2 := s%n, (s*5+1)%n
				if i1 > i2 {
					i1, i2 = i2, i1
				}
				cur[i1] += int64(s%7) - 3
				ids := []int{i1}
				vals := []int64{cur[i1]}
				if i2 != i1 {
					cur[i2] += int64(s%11) - 5
					ids = append(ids, i2)
					vals = append(vals, cur[i2])
				}
				dt, err := dense.Observe(cur)
				if err != nil {
					t.Fatal(err)
				}
				st, err := sparse.ObserveDelta(ids, vals)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(dt, st) {
					t.Fatalf("step %d: dense %v sparse %v", s, dt, st)
				}
				if dense.Counts() != sparse.Counts() {
					t.Fatalf("step %d: counts diverged: %+v vs %+v", s, dense.Counts(), sparse.Counts())
				}
			}
		})
	}
}

// TestObserveDeltaErrors pins the error contract of the public sparse
// path: the public API returns errors where internal engines panic.
func TestObserveDeltaErrors(t *testing.T) {
	m, err := New(Config{Nodes: 4, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		ids  []int
		vals []int64
	}{
		{[]int{0}, []int64{1, 2}},    // length mismatch
		{[]int{1, 1}, []int64{1, 2}}, // duplicate
		{[]int{2, 1}, []int64{1, 2}}, // unsorted
		{[]int{4}, []int64{1}},       // out of range
		{[]int{-1}, []int64{1}},      // negative
	} {
		if _, err := m.ObserveDelta(c.ids, c.vals); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	if _, err := m.ObserveDelta([]int{0, 2}, []int64{5, 9}); err != nil {
		t.Fatalf("valid delta rejected: %v", err)
	}
	m.Close()
	if _, err := m.ObserveDelta([]int{0}, []int64{1}); err == nil {
		t.Fatal("expected error after Close")
	}
}

// TestAppendTopCopies pins that AppendTop survives subsequent steps while
// the Observe view may not.
func TestAppendTopCopies(t *testing.T) {
	m, err := New(Config{Nodes: 6, K: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Observe([]int64{60, 50, 40, 30, 20, 10}); err != nil {
		t.Fatal(err)
	}
	cp := m.AppendTop(nil)
	if len(cp) != 2 || cp[0] != 0 || cp[1] != 1 {
		t.Fatalf("AppendTop = %v, want [0 1]", cp)
	}
	// Promote nodes 4 and 5 far above everyone else.
	if _, err := m.Observe([]int64{60, 50, 40, 30, 2000, 1000}); err != nil {
		t.Fatal(err)
	}
	if cp[0] != 0 || cp[1] != 1 {
		t.Fatalf("AppendTop copy mutated by later step: %v", cp)
	}
	if top := m.Top(); len(top) != 2 || top[0] != 4 || top[1] != 5 {
		t.Fatalf("Top after promotion = %v, want [4 5]", top)
	}
}
