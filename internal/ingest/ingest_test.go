package ingest

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
)

// gatedApply is the test harness's engine stand-in: it announces each
// Apply on started, then blocks until released, so tests can
// deterministically hold a step in flight while producers enqueue
// against the now-busy worker.
type gatedApply struct {
	mu      sync.Mutex
	batches [][]int
	vals    [][]int64
	started chan struct{} // one send per Apply entry (buffered)
	release chan struct{} // one receive per Apply; closed = free-running
	err     error
}

func newGated() *gatedApply {
	return &gatedApply{started: make(chan struct{}, 64), release: make(chan struct{})}
}

func (g *gatedApply) apply(ids []int, vals []int64) error {
	g.started <- struct{}{}
	<-g.release
	g.mu.Lock()
	defer g.mu.Unlock()
	g.batches = append(g.batches, append([]int(nil), ids...))
	g.vals = append(g.vals, append([]int64(nil), vals...))
	return g.err
}

func (g *gatedApply) applied() [][]int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.batches
}

func newDriver(t *testing.T, g *gatedApply, depth int) *Driver {
	t.Helper()
	d, err := New(Config{N: 8, Depth: depth, Apply: g.apply})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func drain(t *testing.T, d *Driver) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func TestDriverConfigValidation(t *testing.T) {
	apply := func([]int, []int64) error { return nil }
	for _, cfg := range []Config{
		{N: 0, Depth: 1, Apply: apply},
		{N: 4, Depth: 0, Apply: apply},
		{N: 4, Depth: 1},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted", cfg)
		}
	}
}

// TestDriverCoalescesUnderBacklog holds one step in flight and pins the
// tentpole's behavior: a burst of observations of the same node
// collapses into ONE fresher step, not a queue of stale ones.
func TestDriverCoalescesUnderBacklog(t *testing.T) {
	g := newGated()
	d := newDriver(t, g, 8)
	if err := d.Enqueue([]int{0}, []int64{1}); err != nil {
		t.Fatal(err)
	}
	<-g.started // step 1 := {0:1} is in flight; the worker is busy
	for v := int64(2); v <= 5; v++ {
		if err := d.Enqueue([]int{3}, []int64{v}); err != nil {
			t.Fatal(err)
		}
	}
	g.release <- struct{}{} // finish step 1
	<-g.started             // step 2 takes the coalesced {3:5}
	g.release <- struct{}{}
	drain(t, d)
	got := g.applied()
	if len(got) != 2 {
		t.Fatalf("applied %d steps, want 2 (burst must coalesce): %v", len(got), got)
	}
	if len(got[1]) != 1 || got[1][0] != 3 || g.vals[1][0] != 5 {
		t.Fatalf("step 2 = %v/%v, want the last write [3]/[5]", got[1], g.vals[1])
	}
	st := d.Stats()
	if st.Coalesced != 3 || st.Steps != 2 || st.Enqueued != 5 {
		t.Fatalf("stats %+v, want Coalesced=3 Steps=2 Enqueued=5", st)
	}
}

// TestDriverEmptyCallMarksStep pins that an empty observation call still
// schedules an (empty) protocol step — the synchronous path runs one, so
// the asynchronous path must too for drain-equivalence.
func TestDriverEmptyCallMarksStep(t *testing.T) {
	g := newGated()
	close(g.release)
	d := newDriver(t, g, 4)
	if err := d.Enqueue(nil, nil); err != nil {
		t.Fatal(err)
	}
	drain(t, d)
	if got := g.applied(); len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("applied %v, want one empty batch", got)
	}
}

// TestDriverBlockBackpressure pins the lossless backpressure: a producer
// hitting a full buffer waits for the worker instead of losing updates,
// while a call that only coalesces into queued nodes needs no free slot
// and never waits.
func TestDriverBlockBackpressure(t *testing.T) {
	g := newGated()
	d := newDriver(t, g, 1)
	if err := d.Enqueue([]int{0}, []int64{1}); err != nil {
		t.Fatal(err)
	}
	<-g.started // worker busy with {0:1}; buffer empty again
	if err := d.Enqueue([]int{1}, []int64{2}); err != nil {
		t.Fatal(err) // fills the depth-1 buffer without blocking
	}
	coalescing := make(chan error, 1)
	go func() { coalescing <- d.Enqueue([]int{1}, []int64{20}) }()
	select {
	case err := <-coalescing:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(g.release)
		t.Fatal("coalescing-only call waited on a full buffer")
	}
	unblocked := make(chan error, 1)
	go func() { unblocked <- d.Enqueue([]int{2}, []int64{3}) }()
	select {
	case err := <-unblocked:
		t.Fatalf("producer did not block on a full buffer (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(g.release) // free-running: the worker drains, the producer gets in
	if err := <-unblocked; err != nil {
		t.Fatal(err)
	}
	drain(t, d)
	if st := d.Stats(); st.Enqueued != 4 || st.Coalesced != 1 {
		t.Fatalf("stats %+v, want Enqueued=4 Coalesced=1", st)
	}
	if got := g.applied(); len(got) != 3 || g.vals[1][0] != 20 || got[2][0] != 2 {
		t.Fatalf("applied %v/%v, want [[0] [1] [2]] / [[1] [20] [3]]", got, g.vals)
	}
}

// TestDriverStickyError pins the terminal-error contract: after Apply
// fails once, the worker stops and every Enqueue, Drain and Err surfaces
// that same error.
func TestDriverStickyError(t *testing.T) {
	boom := errors.New("boom")
	g := newGated()
	g.err = boom
	close(g.release)
	d := newDriver(t, g, 4)
	if err := d.Enqueue([]int{0}, []int64{1}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Drain(ctx); !errors.Is(err, boom) {
		t.Fatalf("Drain = %v, want the terminal error", err)
	}
	if err := d.Enqueue([]int{0}, []int64{2}); !errors.Is(err, boom) {
		t.Fatalf("Enqueue after failure = %v, want the terminal error", err)
	}
	if err := d.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err = %v", err)
	}
}

func TestDriverDrainContext(t *testing.T) {
	g := newGated() // the in-flight step only finishes once released
	d := newDriver(t, g, 4)
	if err := d.Enqueue([]int{0}, []int64{1}); err != nil {
		t.Fatal(err)
	}
	<-g.started
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := d.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want DeadlineExceeded", err)
	}
	close(g.release) // let Cleanup's Close finish the step
}

func TestDriverClose(t *testing.T) {
	applied := make(chan struct{})
	block := make(chan struct{})
	d, err := New(Config{N: 4, Depth: 4, Apply: func([]int, []int64) error {
		close(applied)
		<-block
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Enqueue([]int{0}, []int64{1}); err != nil {
		t.Fatal(err)
	}
	<-applied
	closed := make(chan struct{})
	go func() { d.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a step was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(block)
	<-closed
	if err := d.Enqueue([]int{0}, []int64{2}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Enqueue after Close = %v, want ErrClosed", err)
	}
	if err := d.Drain(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Drain after Close = %v, want ErrClosed", err)
	}
	d.Close() // idempotent
}

// TestDriverConcurrentProducersSoak is the -race soak the async tentpole
// demands: many producers with disjoint node sets hammer one driver
// whose worker drains into a real core engine, with Drain barriers and
// stats reads racing the whole time. Besides surviving the race
// detector, the final drained report must be the oracle of the last
// written values, and no update may have been lost.
func TestDriverConcurrentProducersSoak(t *testing.T) {
	const producers, perProducer, rounds = 4, 4, 300
	n := producers * perProducer
	eng := core.New(core.Config{N: n, K: 3, Seed: 7})
	var mu sync.Mutex // core.Monitor is not concurrency-safe
	d, err := New(Config{N: n, Depth: 5, Apply: func(ids []int, vals []int64) error {
		mu.Lock()
		defer mu.Unlock()
		eng.ObserveDelta(ids, vals)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	final := make([]int64, n)
	var enqueued atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			r := rng.New(uint64(p)+1, 99)
			base := p * perProducer
			for i := 0; i < rounds; i++ {
				id := base + int(r.Uint64n(perProducer))
				v := int64(r.Uint64n(1 << 20))
				if err := d.Enqueue([]int{id}, []int64{v}); err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
				final[id] = v // disjoint node sets: no write races
				enqueued.Add(1)
				if i%64 == 0 {
					_ = d.Stats()
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					_ = d.Drain(ctx)
					cancel()
				}
			}
		}(p)
	}
	wg.Wait()
	drain(t, d)
	st := d.Stats()
	if st.Enqueued != enqueued.Load() {
		t.Fatalf("driver admitted %d updates, producers sent %d", st.Enqueued, enqueued.Load())
	}
	if st.MaxQueue > 5 {
		t.Fatalf("queue high-water %d exceeded depth 5", st.MaxQueue)
	}
	// After the final barrier the engine must sit on the oracle of the
	// last written values: coalescing lost nothing but staleness.
	twin := core.New(core.Config{N: n, K: 3, Seed: 7})
	want := twin.Observe(final)
	mu.Lock()
	got := eng.AppendTop(nil)
	mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("drained report %v, oracle-fed twin %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("drained report %v, oracle-fed twin %v", got, want)
		}
	}
}

// TestDriverHandOffOrder pins the hand-off of a call larger than the
// buffer: it waits for the update staged before it, is applied whole as
// one step of its own, and the update staged after it lands in a later
// step — so node 3 ends on the last written value and the batches apply
// in call order. A hand-off never occupies the buffer, and a dense call
// is handed over with nil ids.
func TestDriverHandOffOrder(t *testing.T) {
	g := newGated()
	close(g.release)
	d := newDriver(t, g, 2)
	for _, c := range []struct {
		ids  []int
		vals []int64
	}{
		{[]int{3}, []int64{1}},
		{[]int{0, 3, 5}, []int64{10, 2, 50}},
		{[]int{3}, []int64{5}},
	} {
		if err := d.Enqueue(c.ids, c.vals); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, d)
	got, vals := g.applied(), g.vals
	if len(got) != 3 || len(got[1]) != 3 || vals[0][0] != 1 || vals[1][1] != 2 || vals[2][0] != 5 {
		t.Fatalf("applied %v/%v, want [[3] [0 3 5] [3]] / [[1] [10 2 50] [5]]", got, vals)
	}
	dense := []int64{0, 1, 2, 3, 4, 5, 6, 7}
	if err := d.Enqueue(nil, dense); err != nil {
		t.Fatal(err)
	}
	drain(t, d)
	if got, vals = g.applied(), g.vals; len(got) != 4 || got[3] != nil || len(vals[3]) != 8 {
		t.Fatalf("dense hand-off applied %v/%v, want nil ids with 8 values", got[3], vals[3])
	}
	if st := d.Stats(); st.Steps != 4 || st.Enqueued != 13 || st.MaxQueue > 2 {
		t.Fatalf("stats %+v, want Steps=4 Enqueued=13 MaxQueue<=2", st)
	}
}

// TestDriverHandOffClose pins Close against a producer inside a hand-off:
// one still waiting to be taken gets ErrClosed and Apply never sees its
// call; one the worker has taken is waited out — the worker reads the
// caller's slices — and returns nil once Apply has.
func TestDriverHandOffClose(t *testing.T) {
	g := newGated()
	d := newDriver(t, g, 2)
	if err := d.Enqueue([]int{0}, []int64{1}); err != nil {
		t.Fatal(err)
	}
	<-g.started // {0:1} in flight
	handed := make(chan error, 1)
	go func() { handed <- d.Enqueue([]int{1, 2, 3}, []int64{1, 2, 3}) }()
	select {
	case err := <-handed:
		t.Fatalf("hand-off returned before the worker took it (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	closed := make(chan struct{})
	go func() { d.Close(); close(closed) }()
	if err := <-handed; !errors.Is(err, ErrClosed) {
		t.Fatalf("hand-off waiting on Close returned %v, want ErrClosed", err)
	}
	close(g.release)
	<-closed
	if got := g.applied(); len(got) != 1 || got[0][0] != 0 {
		t.Fatalf("applied %v after Close, want only [[0]]", got)
	}

	g = newGated()
	d = newDriver(t, g, 1)
	go func() { handed <- d.Enqueue([]int{4, 5}, []int64{4, 5}) }()
	<-g.started // the hand-off itself is in flight
	closed = make(chan struct{})
	go func() { d.Close(); close(closed) }()
	select {
	case err := <-handed:
		t.Fatalf("hand-off returned while Apply read its slices (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(g.release)
	if err := <-handed; err != nil {
		t.Fatalf("applied hand-off returned %v", err)
	}
	<-closed
	if got := g.applied(); len(got) != 1 || len(got[0]) != 2 {
		t.Fatalf("applied %v, want the one hand-off [[4 5]]", got)
	}
}

// FuzzDriverBlock drives the driver with calls of 0…2·Depth sorted
// distinct ids (nil ids when a call is every node) and drain barriers at
// fuzzed points. Every call must land in exactly one applied batch,
// batches must apply calls in order, a call larger than the buffer must
// be applied alone and whole, the queue must stay within Depth, and at
// every barrier replaying the applied batches must leave each node on
// its last written value, with Enqueued - Coalesced updates in them.
func FuzzDriverBlock(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 0x83, 2})
	f.Add([]byte{3, 16, 7, 0x88, 1, 2, 3, 0x90, 4, 4, 5})
	f.Add([]byte{7, 0x90, 0, 5, 9, 16, 3, 0x8f, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 16
		if len(data) == 0 {
			return
		}
		depth := 1 + int(data[0])%8
		var mu sync.Mutex
		var batches []batch
		d, err := New(Config{N: n, Depth: depth,
			Apply: func(ids []int, vals []int64) error {
				mu.Lock()
				batches = append(batches, batch{append([]int(nil), ids...), append([]int64(nil), vals...)})
				mu.Unlock()
				return nil
			}})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()

		written := make([]int64, n)
		var calls [][]int
		enqueued := int64(0)
		barrier := func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := d.Drain(ctx); err != nil {
				t.Fatalf("Drain: %v", err)
			}
			mu.Lock()
			applied := batches
			mu.Unlock()
			replay := make([]int64, n)
			seen := make([]int, len(calls)) // 1 + the batch holding each call
			prev := -1                      // the latest call of the batches before
			reached := int64(0)             // Σ len(applied batch)
			for b, bt := range applied {
				reached += int64(len(bt.vals))
				ids := bt.ids
				if ids == nil && len(bt.vals) == n { // a dense hand-off
					ids = make([]int, n)
					for i := range ids {
						ids[i] = i
					}
				}
				lo, hi := len(calls), -1
				for j, id := range ids {
					v := bt.vals[j]
					replay[id] = v
					c := int(v/100) - 1
					if seen[c] != 0 && seen[c] != b+1 {
						t.Fatalf("call %d split across batches %d and %d: %v", c, seen[c]-1, b, applied)
					}
					seen[c], lo, hi = b+1, min(lo, c), max(hi, c)
				}
				if lo <= prev {
					t.Fatalf("batch %d applies call %d after call %d: %v", b, lo, prev, applied)
				}
				prev = max(prev, hi)
			}
			for c, ids := range calls {
				if len(ids) <= depth || seen[c] == 0 {
					continue
				}
				if bt := applied[seen[c]-1]; len(bt.vals) != len(ids) {
					t.Fatalf("call %d of %d ids handed off as a batch of %d", c, len(ids), len(bt.vals))
				}
			}
			for i := range replay {
				if replay[i] != written[i] {
					t.Fatalf("node %d replays to %d, last written %d", i, replay[i], written[i])
				}
			}
			st := d.Stats()
			if st.MaxQueue > depth || st.Steps != int64(len(applied)) || st.Enqueued != enqueued || len(applied) > len(calls) {
				t.Fatalf("stats %+v for %d batches, %d calls, %d updates, depth %d", st, len(applied), len(calls), enqueued, depth)
			}
			if st.Enqueued-st.Coalesced != reached {
				t.Fatalf("stats %+v: Enqueued - Coalesced = %d, but the applied batches hold %d updates", st, st.Enqueued-st.Coalesced, reached)
			}
		}
		for i := 1; i+1 < len(data) && len(calls) < 64; i += 2 {
			size := int(data[i]&0x7f) % (2*depth + 1)
			perm := rng.New(uint64(data[i+1]), uint64(len(calls))).Perm(n)
			ids := perm[:size]
			slices.Sort(ids)
			vals := make([]int64, size)
			for j, id := range ids {
				vals[j] = int64(len(calls)+1)*100 + int64(id)
				written[id] = vals[j]
			}
			call := ids
			if size == n {
				call = nil
			}
			calls = append(calls, ids)
			if err := d.Enqueue(call, vals); err != nil {
				t.Fatal(err)
			}
			enqueued += int64(size)
			if data[i]&0x80 != 0 {
				barrier()
			}
		}
		barrier()
	})
}

// batch is one applied batch FuzzDriverBlock recorded in its Apply.
type batch struct {
	ids  []int
	vals []int64
}

// TestDriverConcurrentHandOffs races producers whose calls are either one
// node or all eight of their own — more than the depth-3 buffer holds —
// so hand-offs, staged calls and Drain barriers contend for the one
// hand-off slot. Each producer's last writes must be what the worker
// applied last, and the queue must stay within its depth.
func TestDriverConcurrentHandOffs(t *testing.T) {
	const producers, perProducer, rounds, depth = 3, 8, 200, 3
	n := producers * perProducer
	applied := make([]int64, n) // written only by the worker
	d, err := New(Config{N: n, Depth: depth, Apply: func(ids []int, vals []int64) error {
		for j, id := range ids {
			applied[id] = vals[j]
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	final := make([]int64, n)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			r := rng.New(uint64(p)+1, 7)
			ids := make([]int, perProducer)
			vals := make([]int64, perProducer)
			for i := 0; i < rounds; i++ {
				v := int64(i + 1)
				call := 1
				if r.Uint64n(3) == 0 {
					call = perProducer
				}
				for j := 0; j < call; j++ {
					ids[j] = p*perProducer + j
					if call == 1 {
						ids[j] += int(r.Uint64n(perProducer))
					}
					vals[j] = v
					final[ids[j]] = v // disjoint node sets: no write races
				}
				if err := d.Enqueue(ids[:call], vals[:call]); err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
				if i%50 == 0 {
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					_ = d.Drain(ctx)
					cancel()
				}
			}
		}(p)
	}
	wg.Wait()
	drain(t, d)
	for i := range final {
		if applied[i] != final[i] {
			t.Fatalf("node %d applied %d, last written %d", i, applied[i], final[i])
		}
	}
	if st := d.Stats(); st.MaxQueue > depth {
		t.Fatalf("stats %+v: queue past depth %d", st, depth)
	}
}
