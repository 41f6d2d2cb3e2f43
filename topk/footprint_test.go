package topk

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/wire"
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
// n nodes — has run: key 8 + membership bit + in-play bit, and the
// coordinator machine's membership bit, 8.38 B/node in all (the filters are
// the bank's two bounds, a node's coins a function of its id, cohorts are
// enlisted from the membership bits, not listed). The budget leaves no room
// for a flag byte, a generator's state or a violation stamp (8 B), an id
// list (4 B), a per-node filter interval (16 B) or a protocol record (a
// 32-byte sampler, a 24-byte participant) to stay reachable from the
// monitor after the reset.
func TestSequentialFootprintPerNode(t *testing.T) {
	const n, k, budget = 1 << 18, 16, 8.6
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

// TestLoopbackFootprintPerNode pins what a networked monitor and the
// processes that host its nodes keep alive per node, all of it in this
// process over Loopback(2), after two dense steps (the second runs on the
// pipes' recycled buffers, so nothing is still growing): the hosts' banks
// (key 8 + membership bit + in-play bit), the coordinator's last-value
// mirror 8 B, and the dense frames — three bytes a value here — in the
// coordinator's encode buffer (one host's share, 1.5 B) and in the one
// buffer each pipe cycles through, a host's answer freeing the frame it
// answers (3 B), ≈ 20.9 B/node with the machine's membership bit. A host
// applies a frame from the buffer it arrived in, so nothing else grows
// with n: the budget has no room for a second buffer per pipe (24.3
// B/node when pipes kept two), a flag byte per hosted node, or the 8-byte
// column per hosted node a host used to decode every frame into (33.6
// B/node then).
func TestLoopbackFootprintPerNode(t *testing.T) {
	const n, k, budget = 1 << 18, 16, 22.0
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = 1<<15 + int64(i)*7%1000003
	}
	before := liveHeap()
	m, err := New(Config{Nodes: n, K: k, Seed: 1, Transport: Loopback(2)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for step := 0; step < 2; step++ {
		if _, err := m.Observe(vals); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	perNode := (float64(after) - float64(before)) / n
	t.Logf("loopback monitor over 2 hosts, n=%d: %.1f B/node live after two dense steps", n, perNode)
	if perNode > budget {
		t.Fatalf("loopback monitor and its hosts hold %.1f B/node after two dense steps, budget %v", perNode, budget)
	}
	runtime.KeepAlive(vals)
}

// TestTreeFootprintPerNode pins the same for a 2x2 coordinator tree: the
// root over two relays, each over two leaf shards, all in this process,
// after two dense steps. Beside the leaves' banks, the machine's bit and
// the root's mirror, a dense frame — three bytes a value — is held once at
// every place it passes through: the root's encode buffer (one relay's
// share, half a frame of all n values), the buffer each root-to-relay pipe
// cycles through (one frame in all), the relays' per-child arenas its
// shares are copied into (one), and the buffer each relay-to-leaf pipe
// cycles through (one): 3.5 frames, ≈ 26.9 B/node. A second buffer per
// pipe would add two frames.
func TestTreeFootprintPerNode(t *testing.T) {
	const (
		n, k         = 1 << 18, 16
		bank, mirror = 8 + 2.0/8 + 1.0/8, 8             // the machine's membership bit with the bank's two
		frame        = 3                                // bytes a value
		frames       = 0.5 + 1 + 1 + 1                  // root buffer, root pipes, relay arenas, leaf pipes
		budget       = bank + mirror + frames*frame + 1 // 1: allocation rounding, and what does not grow with n
	)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = 1<<15 + int64(i)*7%1000003
	}
	before := liveHeap()
	m, err := New(Config{Nodes: n, K: k, Seed: 1, Tree: Tree{Branch: 2, Depth: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for step := 0; step < 2; step++ {
		if _, err := m.Observe(vals); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	perNode := (float64(after) - float64(before)) / n
	t.Logf("2x2 tree monitor, n=%d: %.1f B/node live after two dense steps, budget %.1f", n, perNode, budget)
	if perNode > budget {
		t.Fatalf("2x2 tree monitor and its relays and leaves hold %.1f B/node after two dense steps, budget %.1f", perNode, budget)
	}
	runtime.KeepAlive(vals)
}

// TestOrderedFootprintPerNode pins that the ordered mode costs the same per
// node on both in-process engines, and what the set mode costs — key 8 +
// membership bit + in-play bit, and the machine's membership bit: the order
// filters are a table of the k members', in the bank both engines host, not
// a 16-byte column over all n nodes (which the concurrent engine's bank
// held before the table moved there).
func TestOrderedFootprintPerNode(t *testing.T) {
	const n, k, budget = 1 << 18, 16, 8.6
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
// that checkpoint a bank: a six-byte key per node, and nothing else that
// grows with n — no generator state, no interval bounds, no per-node
// default. The v1 frame was 55 B/node, the frame with a generator column
// 13.
func TestCheckpointFrameBytesPerNode(t *testing.T) {
	const n, k, budget = 1 << 18, 16, 8.0
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
// monitor's encode buffer has settled and the chain is running: the delta
// is written in place from the engine's arrays into the monitor's buffer
// and appended to the store's slab for the chain, so a save allocates
// nothing — the slab's doublings aside, which since the chain began come
// to less than four times the bytes saved. (The full frame every save used
// to write cost the store's copy of it: one allocation and the frame's
// bytes, each time.)
func TestCheckpointSteadyStateAllocations(t *testing.T) {
	const n, k = 1 << 14, 16
	ctx := context.Background()
	for _, conc := range []bool{false, true} {
		m, err := New(Config{Nodes: n, K: k, Seed: 1, Concurrent: conc, Checkpoint: Checkpoint{Store: MemCheckpoints()}})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		tr := newQuietTrace(n, 3)
		if _, err := m.Observe(tr.vals); err != nil {
			t.Fatal(err)
		}
		save := func() {
			if _, err := m.ObserveDelta(tr.step(64)); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Checkpoint(ctx); err != nil {
				t.Fatal(err)
			}
		}
		save() // the base, into buffers that are allocated once
		for i := 0; i < 10; i++ {
			save()
		}
		if allocs := testing.AllocsPerRun(20, save); allocs != 0 {
			t.Fatalf("concurrent=%v: %.1f allocations per steady-state save, want 0", conc, allocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st0 := m.CheckpointStats()
		for i := 0; i < 100; i++ {
			save()
		}
		st := m.CheckpointStats()
		runtime.ReadMemStats(&after)
		if st.Bases != 1 || st.Deltas != st.Saves-1 {
			t.Fatalf("concurrent=%v: %d bases and %d deltas in %d saves of a quiet trace", conc, st.Bases, st.Deltas, st.Saves)
		}
		// The slab held 31 deltas when the window opened and doubles: what
		// it allocates on the way to 131 is under four times what is saved.
		saved, allocated := st.Bytes-st0.Bytes, after.TotalAlloc-before.TotalAlloc
		t.Logf("concurrent=%v: %d bytes allocated over %d delta saves of %d bytes in all", conc, allocated, st.Deltas-st0.Deltas, saved)
		if allocated > 4*uint64(saved) {
			t.Fatalf("concurrent=%v: %d bytes allocated for %d bytes of deltas saved, budget 4x (a doubling slab)", conc, allocated, saved)
		}
	}
}

// TestCheckpointChainFootprint is the tier-1 pin of "a checkpoint costs
// what changed", on a quiet sparse trace at n = 2^14 — 64 nodes a step, a
// checkpoint every 16 steps, the shape of benchmark/'s ckpt-seq-sparse:
//
//   - after 8 saves, what the monitor and its MemCheckpoints store keep
//     alive beyond a monitor without a store is under three full frames —
//     the monitor's encode buffer, the store's base, and the deltas with
//     room to spare — where eight retained full frames and the buffer
//     were nine;
//   - the first save is a base within the v2 frame's 16 B/node, the seven
//     after it are deltas of under 1 B/node on average;
//   - restoring from a chain as long as chains get — every delta up to
//     the one that would have outgrown the base — allocates at most twice
//     what TestRestoreAllocatesTheBankAndTheFrame allows a lone base: the
//     loaded chain is at most two frames, and folding it decodes one delta
//     at a time into buffers it reuses.
func TestCheckpointChainFootprint(t *testing.T) {
	const n, k, every, changed, slack = 1 << 14, 16, 16, 64, 4.0
	cfg := Config{Nodes: n, K: k, Seed: 1}
	run := func(m *Monitor, tr *quietTrace, until func() bool) {
		t.Helper()
		if _, err := m.Observe(tr.vals); err != nil {
			t.Fatal(err)
		}
		for !until() {
			if _, err := m.ObserveDelta(tr.step(changed)); err != nil {
				t.Fatal(err)
			}
		}
	}
	heapOf := func(ck func() Checkpoint) (float64, *recordingStore) {
		tr := newQuietTrace(n, 7)
		before := liveHeap()
		c, rec := cfg, (*recordingStore)(nil)
		if ck != nil {
			c.Checkpoint = ck()
			rec = &recordingStore{inner: c.Checkpoint.Store}
		}
		steps := 0
		m, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		run(m, tr, func() bool { steps++; return steps > 8*every })
		held := float64(liveHeap()) - float64(before)
		if ck != nil { // the sizes, from a second pass that records the frames
			c.Checkpoint.Store = rec
			again, err := New(c)
			if err != nil {
				t.Fatal(err)
			}
			defer again.Close()
			steps = 0
			run(again, newQuietTrace(n, 7), func() bool { steps++; return steps > 8*every })
		}
		runtime.KeepAlive(m)
		runtime.KeepAlive(c.Checkpoint.Store)
		return held, rec
	}
	bare, _ := heapOf(nil)
	with, rec := heapOf(func() Checkpoint { return Checkpoint{Store: MemCheckpoints(), Every: every} })
	if len(rec.frames) != 8 || rec.frames[0][0] != wire.TypeCheckpoint {
		t.Fatalf("%d frames saved, the first tagged 0x%02x; want 8 with a base first", len(rec.frames), rec.frames[0][0])
	}
	full, deltas := float64(len(rec.frames[0])), 0.0
	for i, f := range rec.frames[1:] {
		if f[0] != wire.TypeCheckpointDelta {
			t.Fatalf("save %d of a quiet trace is not a delta", i+2)
		}
		deltas += float64(len(f))
	}
	t.Logf("n=%d: base %.2f B/node, mean delta %.3f B/node; a store costs %.2f full frames of heap after 8 saves",
		n, full/n, deltas/7/n, (with-bare)/full)
	if full/n > 16 {
		t.Fatalf("the base frame is %.2f B/node, budget 16", full/n)
	}
	if deltas/7/n > 1 {
		t.Fatalf("the deltas average %.3f B/node, budget 1", deltas/7/n)
	}
	if with-bare > 3*full {
		t.Fatalf("monitor and store hold %.2f full frames beyond a monitor without a store, budget 3", (with-bare)/full)
	}

	// A maximal chain: save after every step until the store sees the
	// second base; everything before it is one chain at its bound.
	long := &recordingStore{inner: MemCheckpoints()}
	c := cfg
	c.Checkpoint = Checkpoint{Store: long, Every: 1}
	m, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	run(m, newQuietTrace(n, 7), func() bool {
		last := len(long.frames) - 1
		return last > 0 && long.frames[last][0] == wire.TypeCheckpoint
	})
	chain := long.frames[:len(long.frames)-1]
	maximal, chainBytes := MemCheckpoints(), 0
	for i, f := range chain {
		if err := maximal.Save(long.gens[i], f); err != nil {
			t.Fatal(err)
		}
		chainBytes += len(f)
	}
	totalAlloc := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	build := totalAlloc(func() {
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh.Close()
	})
	restore := totalAlloc(func() {
		back, err := Restore(maximal, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := back.Stats().Steps; got != int64(len(chain)) {
			t.Fatalf("restored at step %d from a chain of %d frames saved a step apart", got, len(chain))
		}
		back.Close()
	})
	lone := build + float64(len(chain[0])) + slack*n
	t.Logf("a chain of %d frames, %d bytes on a %d-byte base: Restore allocates %.1f B/node, a lone base's budget is %.1f",
		len(chain), chainBytes, len(chain[0]), restore/n, lone/n)
	if len(chain) < 100 || chainBytes > 2*len(chain[0]) {
		t.Fatalf("the chain is %d frames and %d bytes on a %d-byte base; want a long one within twice its base", len(chain), chainBytes, len(chain[0]))
	}
	if restore > 2*lone {
		t.Fatalf("Restore from a maximal chain allocates %.1f B/node, budget 2 x %.1f", restore/n, lone/n)
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
