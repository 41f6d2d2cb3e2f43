package topk

import (
	"context"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/transport"
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

// TestAsyncFootprintPerNode pins that asynchronous ingestion costs its
// queue, not its n: a monitor with a queue of 16 holds what the sequential
// one does per node after its first dense Observe and a Drain, within the
// same 8.6 B/node. The coalescing buffer's index is sized by the depth; a
// dense slot index (4 B/node) does not fit the budget.
func TestAsyncFootprintPerNode(t *testing.T) {
	const n, k, depth, budget = 1 << 18, 16, 16, 8.6
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i) * 7 % 1000003
	}
	before := liveHeap()
	m, err := New(Config{Nodes: n, K: k, Seed: 1, Ingest: Ingest{QueueDepth: depth}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Observe(vals); err != nil {
		t.Fatal(err)
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	perNode := (float64(after) - float64(before)) / n
	t.Logf("async monitor, n=%d, queue %d: %.2f B/node live after the first Observe and a Drain", n, depth, perNode)
	if perNode > budget {
		t.Fatalf("async monitor holds %.2f B/node after its first Observe and a Drain, budget %v", perNode, budget)
	}
	runtime.KeepAlive(vals)
}

// moving returns dense steps for a footprint pin: the first puts every node
// at a value of three bytes on the wire, and each after it moves every
// value by at most 30, a one-byte change.
func moving(n int) func(step int) []int64 {
	vals := make([]int64, n)
	return func(step int) []int64 {
		for i := range vals {
			if step == 0 {
				vals[i] = 1<<15 + int64(i)*7%1000003
			} else {
				vals[i] += int64((i*13+step)%61 - 30)
			}
		}
		return vals
	}
}

// TestLoopbackFootprintPerNode pins what a networked monitor and the
// processes that host its nodes keep alive per node, all of it in this
// process over Loopback(2), after four dense steps: the first coded
// against zero, the three after it moving every value, so frames carry
// one-byte changes. A frame is encoded into the buffer its pipe carries it
// in, which each Lend judges by the last two frames it carried
// (transport.Retention lets go of one once two frames in a row have needed
// under half of it): the fourth step's frames are encoded into buffers of
// their own size, so what is measured is the steady state: the hosts'
// banks (key 8 + membership bit + in-play bit), the coordinator's
// last-value mirror 8 B, and the change-coded frames — a byte a value — in
// the one buffer each pipe cycles through, a host's answer freeing the
// frame it answers (1 B), ≈ 17.4 B/node with the machine's membership bit.
// A host applies a frame from the buffer it arrived in, and the
// coordinator writes it there, so nothing else grows with n: the budget
// has no room for a buffer the first step's three-byte values grew (1.5
// B/node more in the pipes alone), a second buffer per pipe (an encode
// buffer the frames are copied out of), a flag byte per hosted node, or
// the 8-byte column per hosted node a host used to decode every frame
// into.
func TestLoopbackFootprintPerNode(t *testing.T) {
	const n, k, budget = 1 << 18, 16, 18.5
	step := moving(n)
	before := liveHeap()
	m, err := New(Config{Nodes: n, K: k, Seed: 1, Transport: Loopback(2)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for s := 0; s < 4; s++ {
		if _, err := m.Observe(step(s)); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	perNode := (float64(after) - float64(before)) / n
	t.Logf("loopback monitor over 2 hosts, n=%d: %.1f B/node live after four dense steps", n, perNode)
	if perNode > budget {
		t.Fatalf("loopback monitor and its hosts hold %.1f B/node after four dense steps, budget %v", perNode, budget)
	}
	runtime.KeepAlive(step)
}

// TestTreeFootprintPerNode pins the same for a 2x2 coordinator tree: the
// root over two relays, each over two leaf shards, all in this process,
// after the same four dense steps. Beside the leaves' banks, the machine's
// bit and the root's mirror, a change-coded frame — a byte a value — is
// held once at every link it crosses, in the buffer that link carries it
// in: the root encodes into the buffer each root-to-relay pipe cycles
// through (one frame in all), and each relay writes its shares into the
// buffer each relay-to-leaf pipe cycles through (one): 2 frames, ≈ 18.4
// B/node. An encode buffer at the root (half a frame) and arenas at the
// relays (one) that the frames are copied out of would not fit, nor a
// second buffer per pipe (two frames), nor the buffers the first step's
// three-byte values grew, kept (four bytes a node more).
func TestTreeFootprintPerNode(t *testing.T) {
	const (
		n, k         = 1 << 18, 16
		bank, mirror = 8 + 2.0/8 + 1.0/8, 8             // the machine's membership bit with the bank's two
		frame        = 1                                // bytes a value
		frames       = 1 + 1                            // root pipes, leaf pipes
		budget       = bank + mirror + frames*frame + 1 // 1: allocation rounding, and what does not grow with n
	)
	step := moving(n)
	before := liveHeap()
	m, err := New(Config{Nodes: n, K: k, Seed: 1, Tree: Tree{Branch: 2, Depth: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for s := 0; s < 4; s++ {
		if _, err := m.Observe(step(s)); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	perNode := (float64(after) - float64(before)) / n
	t.Logf("2x2 tree monitor, n=%d: %.1f B/node live after four dense steps, budget %.1f", n, perNode, budget)
	if perNode > budget {
		t.Fatalf("2x2 tree monitor and its relays and leaves hold %.1f B/node after four dense steps, budget %.1f", perNode, budget)
	}
	runtime.KeepAlive(step)
}

// TestOrderedFootprintPerNode pins that the ordered mode costs what the set
// mode costs per node — key 8 + membership bit + in-play bit, and the
// machine's membership bit: the order filters are a table of the k
// members', in the bank, not a 16-byte column over all n nodes (which the
// retired concurrent engine's bank held before the table moved there). At
// this n the monitor runs on the shard pool at GOMAXPROCS ≥ 2.
func TestOrderedFootprintPerNode(t *testing.T) {
	const n, k, budget = 1 << 18, 16, 8.6
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i) * 7 % 1000003
	}
	before := liveHeap()
	m, err := NewOrdered(Config{Nodes: n, K: k, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Observe(vals); err != nil {
		t.Fatal(err)
	}
	perNode := (float64(liveHeap()) - float64(before)) / n
	t.Logf("ordered monitor, n=%d: %.1f B/node live after the first Observe", n, perNode)
	if perNode > budget {
		t.Fatalf("ordered monitor holds %.1f B/node after its first Observe, budget %v", perNode, budget)
	}
	m.Close()
	runtime.KeepAlive(vals)
}

// sizingStore is a CheckpointStore that keeps nothing but the length of
// the newest frame — the store a footprint pin wants, so that what is
// measured is the monitor.
type sizingStore struct{ frame int }

func (s *sizingStore) Save(_ uint64, frame []byte) error { s.frame = len(frame); return nil }
func (s *sizingStore) Load() (uint64, []byte, error)     { return 0, nil, ErrNoCheckpoint }

// TestCheckpointFrameBytesPerNode pins the v2 frame's size on the engine
// that checkpoints a bank: a six-byte key per node, and nothing else that
// grows with n — no generator state, no interval bounds, no per-node
// default. The v1 frame was 55 B/node, the frame with a generator column
// 13.
func TestCheckpointFrameBytesPerNode(t *testing.T) {
	const n, k, budget = 1 << 18, 16, 8.0
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i) * 7 % 1000003
	}
	store := &sizingStore{}
	m, err := New(Config{Nodes: n, K: k, Seed: 1, Checkpoint: Checkpoint{Store: store}})
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
	t.Logf("n=%d: checkpoint frame %d bytes, %.2f B/node", n, store.frame, perNode)
	if perNode > budget {
		t.Fatalf("checkpoint frame is %.2f B/node, budget %v", perNode, budget)
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
	m, err := New(Config{Nodes: n, K: k, Seed: 1, Checkpoint: Checkpoint{Store: MemCheckpoints()}})
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
		t.Fatalf("%.1f allocations per steady-state save, want 0", allocs)
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
		t.Fatalf("%d bases and %d deltas in %d saves of a quiet trace", st.Bases, st.Deltas, st.Saves)
	}
	// The slab held 31 deltas when the window opened and doubles: what
	// it allocates on the way to 131 is under four times what is saved.
	saved, allocated := st.Bytes-st0.Bytes, after.TotalAlloc-before.TotalAlloc
	t.Logf("%d bytes allocated over %d delta saves of %d bytes in all", allocated, st.Deltas-st0.Deltas, saved)
	if allocated > 4*uint64(saved) {
		t.Fatalf("%d bytes allocated for %d bytes of deltas saved, budget 4x (a doubling slab)", allocated, saved)
	}
}

// storeSpy passes frames on to a store, remembering the lengths of the last
// two and counting the allocations the store's Saves make, so that what a
// monitor allocates can be told from what its store does.
type storeSpy struct {
	inner      CheckpointStore
	last, prev int
	allocs     uint64
}

func (s *storeSpy) Save(gen uint64, frame []byte) error {
	s.last, s.prev = len(frame), s.last
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := s.inner.Save(gen, frame)
	runtime.ReadMemStats(&after)
	s.allocs += after.Mallocs - before.Mallocs
	return err
}

func (s *storeSpy) Load() (uint64, []byte, error) { return s.inner.Load() }

// grown keeps a measured slices.Grow from being optimized away.
var grown []byte

// TestCheckpointBufferFollowsItsFrames pins the memory rule of the buffer
// a monitor encodes its checkpoint frames into (transport.Retention, told
// of every frame saved) at n = 2^14, 64 nodes a step and a save every 16
// steps — the shape of benchmark/'s ckpt-seq-sparse, and the first size
// whose base is over Retention's 64 KiB floor:
//
//   - after a base and two deltas the buffer holds at most twice the
//     larger of the last two frames: a base's size is not held for the
//     monitor's lifetime;
//   - a base — cut when the chain's deltas would outgrow the last one —
//     and the two deltas after it allocate at most two buffers beyond what
//     the memory store does: the base grows the buffer once, to the last
//     base's length, and the second delta swaps it for one of its own size.
//
// It runs on the in-process engine, also under Ingest, and on a star of two
// loopback peers, whose base is its value mirror appended a varint at a
// time: a base that did not grow the buffer once would cost about ten
// doublings. Each save is a Monitor.Checkpoint at the end of its window of
// steps, and only that call's allocations are counted: it runs with every
// other goroutine parked — the ingest worker drained, the peers waiting
// for a frame — so what the runtime allocates to park and wake goroutines
// is not counted against the save.
func TestCheckpointBufferFollowsItsFrames(t *testing.T) {
	const n, k, every, changed, cycles = 1 << 14, 16, 16, 64, 8
	for _, tc := range []struct {
		name  string
		cfg   Config
		floor int // what the buffer may hold after two deltas regardless
	}{
		{"seq", Config{}, 0},
		{"ingest", Config{Ingest: Ingest{QueueDepth: 4}}, 0},
		// A star's base carries the value mirror and no bank: 64 KB, in a
		// buffer Retention's floor keeps.
		{"star", Config{Tree: star(2)}, 64 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := &storeSpy{inner: MemCheckpoints()}
			cfg := tc.cfg
			cfg.Nodes, cfg.K, cfg.Seed = n, k, 1
			cfg.Checkpoint = Checkpoint{Store: store}
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			ctx := context.Background()
			// save checkpoints and returns how many allocations the call
			// made outside the store.
			save := func() uint64 {
				t.Helper()
				var before, after runtime.MemStats
				store.allocs = 0
				runtime.ReadMemStats(&before)
				_, err := m.Checkpoint(ctx)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				return after.Mallocs - before.Mallocs - store.allocs
			}
			call := func(ids []int, vals []int64) {
				t.Helper()
				if _, err := m.ObserveDelta(ids, vals); err != nil {
					t.Fatal(err)
				}
				if err := m.Drain(ctx); err != nil {
					t.Fatal(err)
				}
			}
			// window makes every calls, the first of them a stir of node
			// stirred when stirred >= 0 — a violation and a reset, which
			// cut no base — and the save after them.
			tr := newQuietTrace(n, 5)
			window := func(stirred int) uint64 {
				t.Helper()
				for s := 0; s < every; s++ {
					if s == 0 && stirred >= 0 {
						call(tr.stir(stirred))
						continue
					}
					ids, vals := tr.step(changed)
					if ids[0] <= stirred {
						ids, vals = ids[1:], vals[1:]
					}
					call(ids, vals)
				}
				return save()
			}
			held := func() int {
				m.lock()
				defer m.unlock()
				return cap(m.ckptBuf)
			}
			check := func(cycle int, bases, deltas int64) {
				t.Helper()
				st := m.CheckpointStats()
				if st.Bases != bases || st.Deltas != deltas {
					t.Fatalf("cycle %d: %d bases and %d deltas saved, want %d and %d", cycle, st.Bases, st.Deltas, bases, deltas)
				}
				if c, larger := held(), max(store.last, store.prev); c > max(2*larger, tc.floor) {
					t.Fatalf("cycle %d: the buffer holds %d bytes after frames of %d and %d bytes, budget twice the larger (or %d)", cycle, c, store.prev, store.last, tc.floor)
				}
			}

			if _, err := m.Observe(tr.vals); err != nil { // the first of the first window's calls
				t.Fatal(err)
			}
			for s := 1; s < every; s++ {
				call(tr.step(changed))
			}
			save()
			window(-1)
			window(-1)
			check(0, 1, 2)
			t.Logf("after a base and deltas of %d and %d bytes the buffer holds %d bytes", store.prev, store.last, held())
			// A buffer is what one slices.Grow allocates: one object, or two
			// under -race, which compiles append(s, make(...)...) as written.
			perBuffer := uint64(testing.AllocsPerRun(1, func() { grown = slices.Grow([]byte(nil), 1<<12) }))
			// A collection starting inside a window allocates for the runtime
			// (mark workers, cleanups); none starts while the windows are
			// counted.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			for c := 0; c < cycles; c++ {
				// Windows until the chain's deltas outgrow its base and one
				// is cut: that window and the two after it are counted.
				st := m.CheckpointStats()
				allocs := window(c)
				for m.CheckpointStats().Bases == st.Bases {
					if m.CheckpointStats().Deltas > st.Deltas+64 {
						t.Fatalf("cycle %d: no base after %d deltas", c+1, m.CheckpointStats().Deltas-st.Deltas)
					}
					allocs = window(-1)
				}
				allocs += window(-1) + window(-1)
				st = m.CheckpointStats()
				check(c+1, st.Bases, st.Deltas)
				if st.Bases != int64(c+2) {
					t.Fatalf("cycle %d: %d bases saved, want %d", c+1, st.Bases, c+2)
				}
				if allocs > 2*perBuffer {
					t.Fatalf("cycle %d: a base and two deltas allocated %d times, budget 2 buffers of %d allocations", c+1, allocs, perBuffer)
				}
			}
		})
	}
}

// TestCheckpointChainFootprint is the tier-1 pin of "a checkpoint costs
// what changed", on a quiet sparse trace at n = 2^14 — 64 nodes a step, a
// checkpoint every 16 steps, the shape of benchmark/'s ckpt-seq-sparse:
//
//   - after 8 saves, what the monitor and its MemCheckpoints store keep
//     alive beyond a monitor without a store is under two full frames —
//     the store's base and the deltas after it, and the monitor's encode
//     buffer, which transport.Retention let go of at the second delta for
//     one of a delta's size — where eight retained full frames and the
//     buffer were nine;
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
	if with-bare > 2*full {
		t.Fatalf("monitor and store hold %.2f full frames beyond a monitor without a store, budget 2", (with-bare)/full)
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
	store := MemCheckpoints()
	cfg := Config{Nodes: n, K: k, Seed: 1}
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
	t.Logf("n=%d: New allocates %.1f B/node, Restore %.1f B/node more on top of the %.1f B/node frame",
		n, build/n, extra, float64(len(frame))/n)
	if extra > slack {
		t.Fatalf("Restore allocates %.1f B/node beyond New and the frame, budget %v", extra, slack)
	}
}

// TestTCPFootprintPerLink pins what one TCP link costs a networked monitor
// and the host at its far end, both in this process: the difference
// between monitors over twenty links and over four at the same n, after
// the same four dense steps, over the sixteen links between them (after
// one run that warms the runtime up; the median of three such readings). A link end's buffers start at 512 B
// and grow once, to the frames they carry, so at n = 1024 — a twentieth of
// it a frame of a couple of hundred bytes — a link holds the root's write
// buffer, which the first frame's encoder grew to that frame exactly, three
// 512 B buffers (the root's read buffer, the host's write and read
// buffers), and ≈ 3.5 KiB that no buffer holds:
// the two ends' link and connection state, the host's serve goroutine, bank
// and round scratch, the root's peer and its reader goroutine. Over twenty
// links the hosts' banks hold the nodes they hold over four, which is what
// the difference leaves out. A 4 KiB write buffer and a 4 KiB read buffer
// at each end, 16 KiB a link, do not fit the budget; nor does one 4 KiB
// buffer more, nor the 2.5 KiB of worst-case room an encoder that sized a
// frame's values at their longest left in the root's buffer.
func TestTCPFootprintPerLink(t *testing.T) {
	const n, k, budget = 1 << 10, 8, 6 << 10
	held := func(peers int) float64 {
		step := moving(n)
		before := liveHeap()
		tr, served := tcpTransport(t, peers)
		m, err := New(Config{Nodes: n, K: k, Seed: 1, Transport: tr})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 4; s++ {
			if _, err := m.Observe(step(s)); err != nil {
				t.Fatal(err)
			}
		}
		after := liveHeap()
		m.Close()
		served()
		runtime.KeepAlive(step)
		return float64(after) - float64(before)
	}
	held(4)
	// The median of three differences: one reading moves by several hundred
	// bytes a link with whatever else the runtime holds at the time.
	var perLinks [3]float64
	for i := range perLinks {
		few, many := held(4), held(20)
		perLinks[i] = (many - few) / 16
		t.Logf("a monitor over TCP at n=%d holds %.0f B over 4 links, %.0f B over 20: %.0f B a link", n, few, many, perLinks[i])
	}
	slices.Sort(perLinks[:])
	if perLink := perLinks[1]; perLink > budget {
		t.Fatalf("a TCP link costs its monitor and host %.0f B, budget %d", perLink, budget)
	}
}

// tcpTransport returns a Transport over peers loopback TCP links, each
// far end served by ServeNodes on a goroutine of this process, and a
// function that waits, once the monitor over it is closed, for every host
// to end cleanly. It skips t where the host cannot listen.
func tcpTransport(t *testing.T, peers int) (Transport, func()) {
	t.Helper()
	ln, err := transport.Listen(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	served := make(chan error, peers)
	for range peers {
		link, err := transport.Dial(context.Background(), ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		go func() { served <- ServeNodes(link) }()
	}
	accepted, err := ln.AcceptN(peers)
	if err != nil {
		t.Fatal(err)
	}
	lb := &loopback{}
	for _, l := range accepted {
		lb.links = append(lb.links, l)
	}
	return lb, func() {
		for range peers {
			if err := <-served; err != nil {
				t.Fatalf("host: %v", err)
			}
		}
		ln.Close()
	}
}
