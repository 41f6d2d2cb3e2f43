package topk

import (
	"context"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/coord"
	"repro/internal/order"
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

// widthArm is one of a footprint pin's arms: the values a monitor is fed —
// base plus at most a couple of million — and the bytes a node a value
// column holds them in, the tier they need: a bank's, or a link-backed
// root's mirror. Below 2²³ (the narrow arm) that is 3 bytes; from 2²³ (the
// int32 arm) 4; past int32 (the wide arm, from 2³¹) and at 2⁴⁰ (the values
// of benchmark/'s seq-sparse-quiet) 6; from 2⁴⁷ 8, which only a monitor of
// fewer than 2¹⁶ nodes admits (order.MaxValueFor).
type widthArm struct {
	name   string
	base   int64
	column float64
}

var widthArms = []widthArm{{"narrow", 0, 3}, {"int32", 1 << 23, 4}, {"wide", 1 << 31, 6}, {"int48", 1 << 40, 6}, {"int64", 1 << 47, 8}}

// fits reports whether arm's values lie in the value domain of n nodes.
func (arm widthArm) fits(n int) bool { return arm.base+1<<21 <= order.MaxValueFor(n) }

// armValues returns a dense step of arm's values over n nodes.
func armValues(arm widthArm, n int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = arm.base + int64(i)*7%1000003
	}
	return vals
}

// TestSequentialFootprintPerNode pins what a sequential monitor keeps
// alive per node once its first Observe — the time-0 FILTERRESET over all
// n nodes — has run: the bank's value column (3 B while every value fits
// 24 bits, the narrow arm; 4 B while every one fits int32; 6 B while every
// one fits 48 bits, which at this n every value in the domain does) +
// membership bit + in-play bit: 3.3 B/node narrow, 4.3 to int32, 6.3
// past it (the filters are the bank's two bounds, a node's coins a function
// of its id, cohorts are enlisted from the membership bits, not listed; the
// machine keeps its k members, not a bit a node). The budgets, the column
// and 0.6 B, leave no room for a column a width too wide (1 B or more), a
// key column beside the values (8 B), a narrower column kept beside the
// wider one (3 B or more), a flag byte, a generator's state or a violation
// stamp (8 B), an id list (4 B), a per-node filter interval (16 B) or a
// protocol record (a 32-byte sampler, a 24-byte participant) to stay
// reachable from the monitor after the reset.
func TestSequentialFootprintPerNode(t *testing.T) {
	const n, k = 1 << 18, 16
	for _, arm := range widthArms {
		if !arm.fits(n) {
			continue
		}
		t.Run(arm.name, func(t *testing.T) {
			vals := armValues(arm, n)
			before := liveHeap()
			m, err := New(Config{Nodes: n, K: k, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if _, err := m.Observe(vals); err != nil {
				t.Fatal(err)
			}
			perNode, budget := (float64(liveHeap())-float64(before))/n, arm.column+0.6
			t.Logf("sequential monitor, n=%d: %.2f B/node live after the first Observe", n, perNode)
			if perNode > budget {
				t.Fatalf("sequential monitor holds %.2f B/node after its first Observe, budget %v", perNode, budget)
			}
			runtime.KeepAlive(vals)
		})
	}
}

// TestAsyncFootprintPerNode pins that asynchronous ingestion costs its
// queue, not its n: a monitor with a queue of 16 holds what the sequential
// one does per node after its first dense Observe and a Drain, within the
// same budgets, the column and 0.6 B/node. The coalescing buffer's
// index is sized by the depth; a dense slot index (4 B/node) does not fit
// either budget.
func TestAsyncFootprintPerNode(t *testing.T) {
	const n, k, depth = 1 << 18, 16, 16
	for _, arm := range widthArms {
		if !arm.fits(n) {
			continue
		}
		t.Run(arm.name, func(t *testing.T) {
			vals := armValues(arm, n)
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
			perNode, budget := (float64(liveHeap())-float64(before))/n, arm.column+0.6
			t.Logf("async monitor, n=%d, queue %d: %.2f B/node live after the first Observe and a Drain", n, depth, perNode)
			if perNode > budget {
				t.Fatalf("async monitor holds %.2f B/node after its first Observe and a Drain, budget %v", perNode, budget)
			}
			runtime.KeepAlive(vals)
		})
	}
}

// moving returns dense steps for a footprint pin: the first puts every node
// at base plus a value of three bytes on the wire, and each after it moves
// every value by at most 30, a one-byte change.
func moving(n int, base int64) func(step int) []int64 {
	vals := make([]int64, n)
	return func(step int) []int64 {
		for i := range vals {
			if step == 0 {
				vals[i] = base + 1<<15 + int64(i)*7%1000003
			} else {
				vals[i] += int64((i*13+step)%61 - 30)
			}
		}
		return vals
	}
}

// heldAfterFourSteps returns what a monitor of cfg() and the hosts, relays
// and pipes it runs on keep alive, all of it in this process, after four
// dense steps of moving from base: the median of three readings, each of a
// monitor of its own — one reading moves by a couple of KiB with whatever
// else the runtime holds at the time, which at n = 4096 is half a byte a
// node.
func heldAfterFourSteps(t *testing.T, cfg func() Config, base int64) float64 {
	t.Helper()
	var held [3]float64
	for i := range held {
		c := cfg()
		step := moving(c.Nodes, base)
		before := liveHeap()
		m, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 4; s++ {
			if _, err := m.Observe(step(s)); err != nil {
				t.Fatal(err)
			}
		}
		held[i] = float64(liveHeap()) - float64(before)
		m.Close()
		runtime.KeepAlive(step)
	}
	slices.Sort(held[:])
	return held[1]
}

// The steady state of a link-backed monitor, per node: the hosts' banks
// (the value column, 3, 4, 6 or 8 B, + membership bit + in-play bit), and
// the coordinator's last-value mirror, a value column too (mirrorBytes);
// and a change-coded frame, a byte a value.
const changeBytes = 1

// mirrorBytes is the root's last-value mirror's bytes a node on arm: as
// wide as its values, 3, 4, 6 or 8 B, as a bank's column is.
func mirrorBytes(arm widthArm) float64 { return arm.column }

// bankBytes is a host bank's bytes a node whose value column holds column.
func bankBytes(column float64) float64 { return column + 1.0/8 + 1.0/8 }

// TestLoopbackFootprintPerNode pins what a networked monitor and the
// processes that host its nodes keep alive, all of it in this process over
// Loopback(2), after four dense steps: the first coded against zero, the
// three after it moving every value, so frames carry one-byte changes. A
// frame is encoded into the buffer its pipe carries it in, which each Lend
// judges by the last two frames it carried (transport.Retention lets go of
// one once two frames in a row have needed under half of it): the fourth
// step's frames are encoded into buffers of their own size, so what is
// measured is the steady state: the banks, the mirror and the change-coded
// frames in the one buffer each pipe cycles through, a host's answer
// freeing the frame it answers, ≈ 7.4 B/node while every value fits 24
// bits (the narrow arm: bank column and mirror 3 B each), ≈ 9.4 while every
// one fits int32 (4 B each), ≈ 13.4 once none does and every one fits 48
// bits (6 B each) and ≈ 17.4 from 2⁴⁷, at n = 2¹²
// (8 B each); and
// what does not grow with n — the hosts' goroutines, the pipes' channels,
// what k sizes — under 13 KiB. A host applies a frame from the buffer it arrived in, and the
// coordinator writes it there, so nothing else grows with n: the budget
// has no room for a buffer the first step's three-byte values grew (2
// B/node more in the pipes alone, which a floor above a first frame's few
// KiB would keep at n = 4096, the size of benchmark/'s tree workload), a
// second buffer per pipe (an encode buffer the frames are copied out of),
// a flag byte per hosted node, or the 8-byte column per hosted node a host
// used to decode every frame into.
func TestLoopbackFootprintPerNode(t *testing.T) {
	const (
		k        = 16
		rounding = 0.25     // bytes a node: size classes, and the room an encoder leaves
		fixed    = 13 << 10 // bytes: what does not grow with n
	)
	for _, arm := range widthArms {
		perNode := bankBytes(arm.column) + mirrorBytes(arm) + changeBytes + rounding
		for _, n := range []int{1 << 12, 1 << 18} {
			if !arm.fits(n) {
				continue
			}
			held := heldAfterFourSteps(t, func() Config { return Config{Nodes: n, K: k, Seed: 1, Transport: Loopback(2)} }, arm.base)
			budget := fixed + perNode*float64(n)
			t.Logf("%s: loopback monitor over 2 hosts, n=%d: %.0f B live after four dense steps, %.2f B/node; budget %.0f", arm.name, n, held, held/float64(n), budget)
			if held > budget {
				t.Fatalf("%s: loopback monitor and its hosts hold %.0f B (%.2f B/node) after four dense steps at n=%d, budget %.0f", arm.name, held, held/float64(n), n, budget)
			}
		}
	}
}

// TestTreeFootprintPerNode pins the same for a 2x2 coordinator tree: the
// root over two relays, each over two leaf shards, all in this process,
// after the same four dense steps. Beside the leaves' banks and the root's
// mirror, a change-coded frame — a byte a value — is
// held once at every link it crosses, in the buffer that link carries it
// in: the root encodes into the buffer each root-to-relay pipe cycles
// through (one frame in all), and each relay writes its shares into the
// buffer each relay-to-leaf pipe cycles through (one): 2 frames, ≈ 8.6
// B/node while every value fits 24 bits (the narrow arm, the mirror 3 B),
// ≈ 10.6 while every one fits int32 (the mirror 4 B), ≈ 14.6 once none
// does and every one fits 48 bits (the mirror 6 B) and ≈ 18.6 from 2⁴⁷, at
// n = 2¹² (the mirror 8 B); and what does not
// grow with n — seven
// goroutines, six pipes' channels, the relays' state, what k sizes — under
// 38 KiB. An encode
// buffer at the root (half a frame) and arenas at the relays (one) that
// the frames are copied out of would not fit, nor a second buffer per pipe
// (two frames), nor the buffers the first step's three-byte values grew,
// kept (four bytes a node more) — which a floor above a first frame's few
// KiB would keep at n = 4096, benchmark/'s tree-dense-mixed.
func TestTreeFootprintPerNode(t *testing.T) {
	const (
		k        = 16
		frames   = 1 + 1    // root pipes, leaf pipes
		rounding = 0.5      // bytes a node: size classes, and the room an encoder leaves
		fixed    = 38 << 10 // bytes: what does not grow with n
	)
	for _, arm := range widthArms {
		perNode := bankBytes(arm.column) + mirrorBytes(arm) + frames*changeBytes + rounding
		for _, n := range []int{1 << 12, 1 << 18} {
			if !arm.fits(n) {
				continue
			}
			held := heldAfterFourSteps(t, func() Config { return Config{Nodes: n, K: k, Seed: 1, Tree: Tree{Branch: 2, Depth: 2}} }, arm.base)
			budget := fixed + perNode*float64(n)
			t.Logf("%s: 2x2 tree monitor, n=%d: %.0f B live after four dense steps, %.2f B/node; budget %.0f", arm.name, n, held, held/float64(n), budget)
			if held > budget {
				t.Fatalf("%s: 2x2 tree monitor and its relays and leaves hold %.0f B (%.2f B/node) after four dense steps at n=%d, budget %.0f", arm.name, held, held/float64(n), n, budget)
			}
		}
	}
}

// TestOrderedFootprintPerNode pins that the ordered mode costs what the set
// mode costs per node — the value column, membership bit and in-play bit,
// within the column and 0.6 B/node: the order filters are a table of the k members', in the bank, not a 16-byte
// column over all n nodes (which the retired concurrent engine's bank held
// before the table moved there). At this n the monitor runs on the shard
// pool at GOMAXPROCS ≥ 2, whose views share the bank's column.
func TestOrderedFootprintPerNode(t *testing.T) {
	const n, k = 1 << 18, 16
	for _, arm := range widthArms {
		if !arm.fits(n) {
			continue
		}
		t.Run(arm.name, func(t *testing.T) {
			vals := armValues(arm, n)
			before := liveHeap()
			m, err := NewOrdered(Config{Nodes: n, K: k, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Observe(vals); err != nil {
				t.Fatal(err)
			}
			perNode, budget := (float64(liveHeap())-float64(before))/n, arm.column+0.6
			t.Logf("ordered monitor, n=%d: %.2f B/node live after the first Observe", n, perNode)
			if perNode > budget {
				t.Fatalf("ordered monitor holds %.2f B/node after its first Observe, budget %v", perNode, budget)
			}
			m.Close()
			runtime.KeepAlive(vals)
		})
	}
}

// TestColumnNeverWiderThanTheCodecBound pins that the value domain caps a
// column's width: from n = 2¹⁶ on, order.MaxValueFor(n) < 2⁴⁷, so a bank
// and a link-backed root's mirror fed the domain's extremes, ±MaxValueFor(n),
// keep them at 6 bytes a node, never at int64's 8. At n = 2¹⁶ and 2²⁰ a
// sequential monitor holds them in 6.3 B/node and what does not grow with
// n — within 7, where an int64 column would be 8.3 — and a Loopback(2)
// monitor's mirror is at Tier48 after a dense step and after a sparse one
// that moves nodes across the whole domain.
func TestColumnNeverWiderThanTheCodecBound(t *testing.T) {
	const k, budget = 16, 7.0
	for _, n := range []int{1 << 16, 1 << 20} {
		maxVal := order.MaxValueFor(n)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = maxVal - int64(i%3)
			if i%2 == 1 {
				vals[i] = -vals[i]
			}
		}
		before := liveHeap()
		m, err := New(Config{Nodes: n, K: k, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Observe(vals); err != nil {
			t.Fatal(err)
		}
		perNode := (float64(liveHeap()) - float64(before)) / float64(n)
		t.Logf("n=%d: a sequential monitor at ±%d holds %.2f B/node", n, maxVal, perNode)
		if perNode > budget {
			t.Fatalf("n=%d: a sequential monitor fed ±MaxValueFor(n) holds %.2f B/node, budget %v", n, perNode, budget)
		}
		m.Close()

		l, err := New(Config{Nodes: n, K: k, Seed: 1, Transport: Loopback(2)})
		if err != nil {
			t.Fatal(err)
		}
		mirror := func(when string) {
			t.Helper()
			if got := l.eng.(interface{ MirrorTier() coord.Tier }).MirrorTier(); got != coord.Tier48 {
				t.Fatalf("n=%d: after %s at ±MaxValueFor(n), the mirror is %d bytes a node, want %d", n, when, got, coord.Tier48)
			}
		}
		if _, err := l.Observe(vals); err != nil {
			t.Fatal(err)
		}
		mirror("a dense step")
		ids := []int{0, 1, n / 2, n - 1}
		if _, err := l.ObserveDelta(ids, []int64{-maxVal, maxVal, -maxVal, maxVal}); err != nil {
			t.Fatal(err)
		}
		mirror("a sparse step")
		l.Close()
		runtime.KeepAlive(vals)
	}
}

// sizingStore is a CheckpointStore that keeps nothing but the length of
// the newest frame — the store a footprint pin wants, so that what is
// measured is the monitor.
type sizingStore struct{ frame int }

func (s *sizingStore) Save(_ uint64, frame []byte) error { s.frame = len(frame); return nil }
func (s *sizingStore) Load() (uint64, []byte, error)     { return 0, nil, ErrNoCheckpoint }

// TestCheckpointFrameBytesPerNode pins the v2 frame's size on the engine
// that checkpoints a bank: a value per node — three bytes here, where a key
// was six — and nothing else that grows with n: no generator state, no
// interval bounds, no per-node default. The v1 frame was 55 B/node, the
// frame with a generator column 13.
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
// nothing — the slab's growth aside, whose allocations since the chain
// began come to less than four times the bytes saved. (The full frame
// every save used to write cost the store's copy of it: one allocation and
// the frame's bytes, each time.)
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
	// The slab held 31 deltas when the window opened and grows by half
	// what it holds: what it allocates on the way to 131 is under four
	// times what is saved.
	saved, allocated := st.Bytes-st0.Bytes, after.TotalAlloc-before.TotalAlloc
	t.Logf("%d bytes allocated over %d delta saves of %d bytes in all", allocated, st.Deltas-st0.Deltas, saved)
	if allocated > 4*uint64(saved) {
		t.Fatalf("%d bytes allocated for %d bytes of deltas saved, budget 4x (a slab that grows by half)", allocated, saved)
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
// steps — the shape of benchmark/'s ckpt-seq-sparse, whose base is far
// over Retention's 2 KiB floor:
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
		// A star's base carries the value mirror and no bank: the buffer
		// follows its frames as the others do, Retention's floor aside.
		{"star", Config{Tree: star(2)}, 2 << 10},
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
	stored := func() Checkpoint { return Checkpoint{Store: MemCheckpoints(), Every: every} }
	// A first run warms up what the first sealed frame initialises once
	// a process — hash/crc32's 8 KiB table — which is no store's.
	heapOf(stored)
	bare, _ := heapOf(nil)
	with, rec := heapOf(stored)
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
// anyway: beyond what New allocates — its bank's value column among it, 3
// bytes a node at Tier24 — the part of the restored column New's does not
// cover, which Restore allocates at the tier the frame's values need (0, 1
// or 3 bytes a node here), and the frame's own bytes (the store hands out a
// copy) it needs under half a byte a node: the
// filter check reads the bank's own membership bitset and bounds. A
// filter set built from the frame for the check (a bool a node and the
// member list, 1 B/node) does not fit, nor a decoded copy of the bank, nor
// a key column derived from it. The v1 path decoded nine n-long slices
// first, some 70 B/node.
func TestRestoreAllocatesTheBankAndTheFrame(t *testing.T) {
	const n, k, slack = 1 << 16, 16, 0.5
	for _, arm := range widthArms {
		if arm.fits(n) {
			t.Run(arm.name, func(t *testing.T) { restoreAllocates(t, n, k, slack, arm) })
		}
	}
}

// restoreAllocates is TestRestoreAllocatesTheBankAndTheFrame on arm's
// values, whose column is arm.column bytes a node, 3 of them already New's.
func restoreAllocates(t *testing.T, n, k int, slack float64, arm widthArm) {
	column := arm.column - float64(coord.Tier24)
	totalAlloc := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	store := MemCheckpoints()
	cfg := Config{Nodes: n, K: k, Seed: 1}
	vals := armValues(arm, n)
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
	extra := (restore-build-float64(len(frame)))/float64(n) - column
	t.Logf("n=%d: New allocates %.1f B/node, Restore %.2f B/node more on top of the %.1f B/node frame and %.0f B/node more column",
		n, build/float64(n), extra, float64(len(frame))/float64(n), column)
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
		step := moving(n, 0)
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
