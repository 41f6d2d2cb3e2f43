package topk

import (
	"runtime"
	"testing"
)

// liveHeap forces a full collection and returns the live heap, exactly as
// benchmark/run.go measures heap_mb.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSequentialFootprintPerNode pins what a sequential monitor keeps
// alive per node once its first Observe — the time-0 FILTERRESET over all
// n nodes — has run: key 8, generator 16, a membership byte each in the
// filter set and the coordinator machine, and the 4-byte reset-cohort and
// active lists, 34 B/node in all (the filters are the filter set's two
// bounds, the dense id list is implicit). The budget leaves no room for a
// per-node filter interval (16 B), an id list (8 B) or a protocol record
// (a 32-byte sampler, a 24-byte participant) to stay reachable from the
// monitor after the reset.
func TestSequentialFootprintPerNode(t *testing.T) {
	const n, k, budget = 1 << 18, 16, 40.0
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i) * 7 % 1000003
	}
	before := liveHeap()
	m, err := New(Config{Nodes: n, K: k, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Observe(vals); err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	perNode := (float64(after) - float64(before)) / n
	t.Logf("sequential monitor, n=%d: %.1f B/node live after the first Observe", n, perNode)
	if perNode > budget {
		t.Fatalf("sequential monitor holds %.1f B/node after its first Observe, budget %v", perNode, budget)
	}
	runtime.KeepAlive(vals)
}
