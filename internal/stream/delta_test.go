package stream

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/rng"
)

// TestRandomWalkStepDeltaParity checks that StepDelta reports exactly the
// entries in which the dense trajectory moved, and that interleaving Step
// and StepDelta advances one and the same trajectory.
func TestRandomWalkStepDeltaParity(t *testing.T) {
	cfg := WalkConfig{N: 17, Lo: 0, Hi: 1000, MaxStep: 3, Seed: 5}
	dense, sparse := NewRandomWalk(cfg), NewRandomWalk(cfg)

	vals := make([]int64, cfg.N)
	ids := make([]int, cfg.N)
	dvals := make([]int64, cfg.N)
	mirror := make([]int64, cfg.N)
	for s := 0; s < 300; s++ {
		dense.Step(vals)
		c := sparse.StepDelta(ids, dvals)
		if s == 0 && c != cfg.N {
			t.Fatalf("first StepDelta reported %d of %d nodes", c, cfg.N)
		}
		prev := -1
		for j := 0; j < c; j++ {
			if ids[j] <= prev {
				t.Fatalf("step %d: delta ids not strictly increasing: %v", s, ids[:c])
			}
			prev = ids[j]
			if s > 0 && mirror[ids[j]] == dvals[j] {
				t.Fatalf("step %d: node %d reported unchanged value %d", s, ids[j], dvals[j])
			}
			mirror[ids[j]] = dvals[j]
		}
		for i := range mirror {
			if mirror[i] != vals[i] {
				t.Fatalf("step %d: node %d: sparse mirror %d, dense %d", s, i, mirror[i], vals[i])
			}
		}
	}
}

// TestSparseWalkDelta checks the cardinality, ordering, and range
// guarantees of the delta-native generator.
func TestSparseWalkDelta(t *testing.T) {
	cfg := SparseWalkConfig{N: 50, Lo: 0, Hi: 10000, MaxStep: 9, Changed: 7, Seed: 8}
	sw := NewSparseWalk(cfg)
	ids := make([]int, cfg.N)
	vals := make([]int64, cfg.N)

	if c := sw.StepDelta(ids, vals); c != cfg.N {
		t.Fatalf("first step reported %d nodes, want all %d", c, cfg.N)
	}
	mirror := make([]int64, cfg.N)
	copy(mirror, vals)
	total := 0
	for s := 0; s < 200; s++ {
		c := sw.StepDelta(ids, vals)
		if c > cfg.Changed {
			t.Fatalf("step %d: reported %d nodes, want at most %d", s, c, cfg.Changed)
		}
		total += c
		prev := -1
		for j := 0; j < c; j++ {
			if ids[j] <= prev {
				t.Fatalf("step %d: ids not strictly increasing: %v", s, ids[:c])
			}
			prev = ids[j]
			if vals[j] < cfg.Lo || vals[j] > cfg.Hi {
				t.Fatalf("step %d: value %d outside [%d, %d]", s, vals[j], cfg.Lo, cfg.Hi)
			}
			if mirror[ids[j]] == vals[j] {
				t.Fatalf("step %d: node %d reported unchanged value %d", s, ids[j], vals[j])
			}
			mirror[ids[j]] = vals[j]
		}
	}
	if total < 150*cfg.Changed/2 {
		t.Fatalf("suspiciously few changes emitted over 200 steps: %d", total)
	}
}

// TestSparseWalkStepMatchesStepDelta checks that the dense Step view and
// the sparse StepDelta view describe the same trajectory.
func TestSparseWalkStepMatchesStepDelta(t *testing.T) {
	cfg := SparseWalkConfig{N: 25, Lo: 0, Hi: 5000, MaxStep: 11, Changed: 4, Seed: 12}
	dense, sparse := NewSparseWalk(cfg), NewSparseWalk(cfg)
	vals := make([]int64, cfg.N)
	ids := make([]int, cfg.N)
	dvals := make([]int64, cfg.N)
	mirror := make([]int64, cfg.N)
	for s := 0; s < 150; s++ {
		dense.Step(vals)
		c := sparse.StepDelta(ids, dvals)
		for j := 0; j < c; j++ {
			mirror[ids[j]] = dvals[j]
		}
		for i := range mirror {
			if mirror[i] != vals[i] {
				t.Fatalf("step %d: node %d: sparse %d dense %d", s, i, mirror[i], vals[i])
			}
		}
	}
}

// TestSparseWalkPanics pins configuration validation.
func TestSparseWalkPanics(t *testing.T) {
	for i, cfg := range []SparseWalkConfig{
		{N: 0, Lo: 0, Hi: 1, Changed: 1},
		{N: 5, Lo: 1, Hi: 0, Changed: 1},
		{N: 5, Lo: 0, Hi: 1, MaxStep: -1, Changed: 1},
		{N: 5, Lo: 0, Hi: 1, Changed: 0},
		{N: 5, Lo: 0, Hi: 1, Changed: 6},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			NewSparseWalk(cfg)
		}()
	}
	sw := NewSparseWalk(SparseWalkConfig{N: 5, Lo: 0, Hi: 10, Changed: 2, Seed: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for short buffers")
			}
		}()
		sw.StepDelta(make([]int, 2), make([]int64, 5))
	}()
}

// TestSortIDsIsSortInts pins the radix sort a sparse step orders its ids
// with against the comparison sort it replaced, at id spaces on both sides
// of every digit boundary — zero passes (n = 1), one, two with and without
// the copy back, three — and at any number of ids up to all of them.
func TestSortIDsIsSortInts(t *testing.T) {
	r := rng.New(3, 3)
	for _, n := range []int{1, 2, 255, 256, 257, 4096, 65535, 65536, 65537, 1 << 20} {
		for _, c := range []int{1, 2, 7, radixMinIDs - 1, radixMinIDs, 300, 4096} {
			c = min(c, n)
			ids := r.Perm(n)[:c]
			want := slices.Clone(ids)
			sort.Ints(want)
			if sortIDs(ids, make([]int, c), n); !slices.Equal(ids, want) {
				t.Fatalf("n=%d, %d ids: sorted %v, want %v", n, c, ids[:min(c, 20)], want[:min(c, 20)])
			}
		}
	}
}
