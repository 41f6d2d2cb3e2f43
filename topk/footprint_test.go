package topk

import (
	"context"
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
// n nodes — has run: key 8, generator state 8, the bank's flag byte, the
// coordinator machine's membership byte and the in-play bit, 18.1 B/node
// in all (the filters are the bank's two bounds, a generator's increment
// derives from its id, cohorts are enlisted from the flags, not listed).
// The budget leaves no room for a violation stamp or a stored increment
// (8 B), an id
// list (4 B), a per-node filter interval (16 B) or a protocol record (a
// 32-byte sampler, a 24-byte participant) to stay reachable from the
// monitor after the reset.
func TestSequentialFootprintPerNode(t *testing.T) {
	const n, k, budget = 1 << 18, 16, 20.0
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

// TestOrderedFootprintPerNode pins that the ordered mode costs the same per
// node on both in-process engines, and what the set mode costs: the order
// filters are a table of the k members', in the bank both engines host, not
// a 16-byte column over all n nodes (which the concurrent engine's bank
// held before the table moved there).
func TestOrderedFootprintPerNode(t *testing.T) {
	const n, k, budget = 1 << 18, 16, 20.0
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i) * 7 % 1000003
	}
	for _, conc := range []bool{false, true} {
		before := liveHeap()
		m, err := NewOrdered(Config{Nodes: n, K: k, Seed: 1, Concurrent: conc})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Observe(vals); err != nil {
			t.Fatal(err)
		}
		perNode := (float64(liveHeap()) - float64(before)) / n
		t.Logf("ordered monitor, concurrent=%v, n=%d: %.1f B/node live after the first Observe", conc, n, perNode)
		if perNode > budget {
			t.Fatalf("ordered monitor (concurrent=%v) holds %.1f B/node after its first Observe, budget %v", conc, perNode, budget)
		}
		m.Close()
	}
	runtime.KeepAlive(vals)
}

// sizingStore is a CheckpointStore that keeps nothing but the length of
// the newest frame — the store a footprint pin wants, so that what is
// measured is the monitor.
type sizingStore struct{ frame int }

func (s *sizingStore) Save(_ uint64, frame []byte) error { s.frame = len(frame); return nil }
func (s *sizingStore) Load() (uint64, []byte, error)     { return 0, nil, ErrNoCheckpoint }

// TestCheckpointFrameBytesPerNode pins the v2 frame's size on both engines
// that checkpoint a bank: a six-byte key and an eight-byte generator state
// per node, and nothing else that grows with n — no interval bounds, no
// increment, no per-node default. The v1 frame was 55 B/node.
func TestCheckpointFrameBytesPerNode(t *testing.T) {
	const n, k, budget = 1 << 18, 16, 16.0
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i) * 7 % 1000003
	}
	for _, conc := range []bool{false, true} {
		store := &sizingStore{}
		m, err := New(Config{Nodes: n, K: k, Seed: 1, Concurrent: conc, Checkpoint: Checkpoint{Store: store}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Observe(vals); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Checkpoint(context.Background()); err != nil {
			t.Fatal(err)
		}
		m.Close()
		perNode := float64(store.frame) / n
		t.Logf("concurrent=%v, n=%d: checkpoint frame %d bytes, %.2f B/node", conc, n, store.frame, perNode)
		if perNode > budget {
			t.Fatalf("concurrent=%v: checkpoint frame is %.2f B/node, budget %v", conc, perNode, budget)
		}
	}
}

// TestCheckpointSteadyStateAllocations pins what a save costs once the
// monitor's encode buffer has settled: the frame is written in place from
// the engine's arrays, so the only allocation left is the store's own copy
// — at most two allocations a save and 1.25 × the frame's bytes, where the
// v1 path allocated nine n-long slices and the frame twice over.
func TestCheckpointSteadyStateAllocations(t *testing.T) {
	const n, k = 1 << 14, 16
	ctx := context.Background()
	for _, conc := range []bool{false, true} {
		store := MemCheckpoints()
		m, err := New(Config{Nodes: n, K: k, Seed: 1, Concurrent: conc, Checkpoint: Checkpoint{Store: store}})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(i) * 7 % 1000003
		}
		if _, err := m.Observe(vals); err != nil {
			t.Fatal(err)
		}
		save := func() {
			if _, err := m.Checkpoint(ctx); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ { // past the store's retention bound
			save()
		}
		_, frame, err := store.Load()
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, save); allocs > 2 {
			t.Fatalf("concurrent=%v: %.1f allocations per steady-state save, budget 2", conc, allocs)
		}
		const saves = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < saves; i++ {
			save()
		}
		runtime.ReadMemStats(&after)
		perSave := float64(after.TotalAlloc-before.TotalAlloc) / saves
		t.Logf("concurrent=%v: %.0f bytes allocated per save of a %d-byte frame", conc, perSave, len(frame))
		if perSave > 1.25*float64(len(frame)) {
			t.Fatalf("concurrent=%v: a save allocates %.0f bytes for a %d-byte frame, budget 1.25x", conc, perSave, len(frame))
		}
	}
}

// TestRestoreAllocatesTheBankAndTheFrame pins that Restore reads the
// frame's columns straight into the arrays a fresh monitor allocates
// anyway: beyond what New allocates and the frame's own bytes (the store
// hands out a copy) it needs a few bytes a node — the filter set built
// from the frame — not a decoded copy of the bank. The v1 path decoded
// nine n-long slices first, some 70 B/node.
func TestRestoreAllocatesTheBankAndTheFrame(t *testing.T) {
	const n, k, slack = 1 << 16, 16, 4.0
	totalAlloc := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	for _, conc := range []bool{false, true} {
		store := MemCheckpoints()
		cfg := Config{Nodes: n, K: k, Seed: 1, Concurrent: conc}
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(i) * 7 % 1000003
		}
		var fresh *Monitor
		build := totalAlloc(func() {
			var err error
			if fresh, err = New(cfg); err != nil {
				t.Fatal(err)
			}
		})
		live := cfg
		live.Checkpoint = Checkpoint{Store: store}
		m, err := New(live)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Observe(vals); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Checkpoint(context.Background()); err != nil {
			t.Fatal(err)
		}
		m.Close()
		fresh.Close()
		_, frame, err := store.Load()
		if err != nil {
			t.Fatal(err)
		}
		var back *Monitor
		restore := totalAlloc(func() {
			if back, err = Restore(store, cfg); err != nil {
				t.Fatal(err)
			}
		})
		back.Close()
		extra := (restore - build - float64(len(frame))) / n
		t.Logf("concurrent=%v, n=%d: New allocates %.1f B/node, Restore %.1f B/node more on top of the %.1f B/node frame",
			conc, n, build/n, extra, float64(len(frame))/n)
		if extra > slack {
			t.Fatalf("concurrent=%v: Restore allocates %.1f B/node beyond New and the frame, budget %v", conc, extra, slack)
		}
	}
}
