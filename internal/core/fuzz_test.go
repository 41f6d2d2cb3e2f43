package core

import (
	"sort"
	"testing"

	"repro/internal/order"
	"repro/internal/sim"
)

// decodeWorkload turns fuzzer bytes into a small monitoring instance:
// the first bytes pick n and k, the rest become observation deltas.
func decodeWorkload(data []byte) (n, k int, matrix [][]int64) {
	if len(data) < 3 {
		return 0, 0, nil
	}
	n = int(data[0]%8) + 1
	k = int(data[1])%n + 1
	cur := make([]int64, n)
	for i := range cur {
		cur[i] = int64(i * 3)
	}
	rest := data[2:]
	steps := len(rest)/n + 1
	matrix = make([][]int64, 0, steps)
	for off := 0; off < len(rest); off += n {
		row := make([]int64, n)
		for i := 0; i < n; i++ {
			idx := off + i
			if idx < len(rest) {
				// Deltas in [-64, 63], scaled to create occasional jumps.
				d := int64(int8(rest[idx]))
				if d%7 == 0 {
					d *= 100
				}
				cur[i] += d
			}
			row[i] = cur[i]
		}
		matrix = append(matrix, row)
	}
	return n, k, matrix
}

func fuzzOracle(vals []int64, k int) []int {
	codec := order.NewCodec(len(vals))
	keys := make([]order.Key, len(vals))
	for i, v := range vals {
		keys[i] = codec.Encode(v, i)
	}
	ids := make([]int, len(vals))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool { return keys[ids[a]] > keys[ids[b]] })
	top := append([]int(nil), ids[:k]...)
	sort.Ints(top)
	return top
}

// FuzzMonitorObserve feeds arbitrary byte-derived workloads through the
// monitor and cross-checks every report against the oracle plus the
// Lemma 2.2 filter invariant. Run with `go test -fuzz=FuzzMonitorObserve`;
// the seed corpus also runs under plain `go test`.
func FuzzMonitorObserve(f *testing.F) {
	f.Add([]byte{4, 2, 1, 2, 3, 4, 250, 6, 7, 8, 9, 10, 110, 12})
	f.Add([]byte{1, 1, 0})
	f.Add([]byte{8, 8, 255, 0, 255, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{3, 2, 7, 14, 21, 28, 35, 42, 49, 56, 63, 70})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, k, matrix := decodeWorkload(data)
		if n == 0 || len(matrix) == 0 {
			t.Skip()
		}
		m := New(Config{N: n, K: k, Seed: 99})
		keys := make([]order.Key, n)
		for s, vals := range matrix {
			got := m.Observe(vals)
			if want := fuzzOracle(vals, k); !equalInts(got, want) {
				t.Fatalf("step %d (n=%d k=%d): got %v want %v vals %v", s, n, k, got, want, vals)
			}
			encodeAll(vals, keys)
			if err := m.Filters().Validate(keys); err != nil {
				t.Fatalf("step %d: %v", s, err)
			}
		}
	})
}

// FuzzDeltaDenseEquivalence drives two monitors over the same byte-derived
// workload — one through dense Observe, one through a fuzzer-chosen
// interleaving of Observe and ObserveDelta — and requires identical
// reports, message counts, and stats at every step. Each step's
// interleaving choice is read back out of the input bytes, so the fuzzer
// explores sparse/dense switch points (including runs of consecutive
// sparse steps) together with value patterns.
func FuzzDeltaDenseEquivalence(f *testing.F) {
	f.Add([]byte{4, 2, 1, 2, 3, 4, 250, 6, 7, 8, 9, 10, 110, 12})
	f.Add([]byte{1, 1, 0})
	f.Add([]byte{6, 3, 255, 0, 255, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, k, matrix := decodeWorkload(data)
		if n == 0 || len(matrix) == 0 {
			t.Skip()
		}
		ref := New(Config{N: n, K: k, Seed: 99})
		sut := New(Config{N: n, K: k, Seed: 99})
		prev := make([]int64, n) // both monitors' nodes start at 0
		ids := make([]int, 0, n)
		vals := make([]int64, 0, n)
		for s, row := range matrix {
			refTop := ref.Observe(row)
			var sutTop []int
			if data[(2+s)%len(data)]&1 == 0 { // fuzzer-driven interleaving choice
				ids, vals = ids[:0], vals[:0]
				for i, v := range row {
					if v != prev[i] {
						ids = append(ids, i)
						vals = append(vals, v)
					}
				}
				sutTop = sut.ObserveDelta(ids, vals)
			} else {
				sutTop = sut.Observe(row)
			}
			copy(prev, row)
			if !equalInts(refTop, sutTop) {
				t.Fatalf("step %d (n=%d k=%d): dense %v sparse %v", s, n, k, refTop, sutTop)
			}
			if ref.Counts() != sut.Counts() {
				t.Fatalf("step %d: counts diverged: %v vs %v", s, ref.Counts(), sut.Counts())
			}
			if ref.Stats() != sut.Stats() {
				t.Fatalf("step %d: stats diverged: %+v vs %+v", s, ref.Stats(), sut.Stats())
			}
		}
	})
}

// FuzzOrderedMonitorObserve does the same for the ordered variant,
// checking the full rank order.
func FuzzOrderedMonitorObserve(f *testing.F) {
	f.Add([]byte{4, 2, 1, 2, 3, 4, 250, 6, 7, 8, 9, 10, 110, 12})
	f.Add([]byte{5, 4, 9, 9, 9, 9, 9, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, k, matrix := decodeWorkload(data)
		if n == 0 || len(matrix) == 0 {
			t.Skip()
		}
		om := newOrdered(Config{N: n, K: k, Seed: 199})
		for s, vals := range matrix {
			got := observeRanked(om, vals)
			want := sim.RankOracle(vals, k)
			if !equalInts(got, want) {
				t.Fatalf("step %d (n=%d k=%d): ranks %v want %v vals %v", s, n, k, got, want, vals)
			}
		}
	})
}
