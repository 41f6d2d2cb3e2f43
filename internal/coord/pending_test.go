package coord

import (
	"math"
	"runtime"
	"slices"
	"testing"
)

func TestPendingLastWriteWins(t *testing.T) {
	p := NewPending(8, 8)
	if c := p.Put(3, 10); c {
		t.Fatal("first Put reported coalesced")
	}
	if c := p.Put(3, 20); !c {
		t.Fatal("second Put of the same node did not coalesce")
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d after coalescing, want 1", p.Len())
	}
	ids, vals := p.Take(nil, nil)
	if !slices.Equal(ids, []int{3}) || !slices.Equal(vals, []int64{20}) {
		t.Fatalf("Take = %v/%v, want [3]/[20]", ids, vals)
	}
}

func TestPendingDepthBoundAndFull(t *testing.T) {
	p := NewPending(16, 3)
	for i := 0; i < 3; i++ {
		p.Put(i, int64(i))
	}
	if p.Len() != p.Cap() {
		t.Fatalf("Len = %d with Cap distinct nodes queued, want Cap = %d", p.Len(), p.Cap())
	}
	// Coalescing never needs space: Put on a queued node works while full.
	p.Put(1, 100)
	if p.Len() != 3 {
		t.Fatalf("Len = %d, want 3", p.Len())
	}
	// A new node on a full buffer is a caller bug and must panic.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Put of a new node on a full buffer did not panic")
			}
		}()
		p.Put(9, 9)
	}()
}

func TestPendingDepthCappedAtN(t *testing.T) {
	if c := NewPending(4, 100).Cap(); c != 4 {
		t.Fatalf("Cap = %d, want capped at n=4", c)
	}
}

func TestPendingTakeSortedAndClears(t *testing.T) {
	p := NewPending(10, 10)
	for _, id := range []int{7, 1, 9, 0, 4} {
		p.Put(id, int64(id)*10)
	}
	ids, vals := p.Take(make([]int, 0, 10), make([]int64, 0, 10))
	if !slices.IsSorted(ids) {
		t.Fatalf("Take ids not ascending: %v", ids)
	}
	for j, id := range ids {
		if vals[j] != int64(id)*10 {
			t.Fatalf("Take vals misaligned at %d: id %d has %d", j, id, vals[j])
		}
	}
	if p.Len() != 0 {
		t.Fatalf("Len = %d after Take, want 0", p.Len())
	}
	// Idempotence: a second Take yields nothing.
	if ids2, _ := p.Take(nil, nil); len(ids2) != 0 {
		t.Fatalf("second Take returned %v, want empty", ids2)
	}
	// And the buffer is fully reusable after clearing.
	p.Put(3, 3)
	if ids3, _ := p.Take(nil, nil); !slices.Equal(ids3, []int{3}) {
		t.Fatalf("Take after reuse = %v, want [3]", ids3)
	}
}

func TestPendingConstructorPanics(t *testing.T) {
	for _, tc := range []struct{ n, depth int }{{0, 1}, {-1, 1}, {4, 0}, {4, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPending(%d, %d) did not panic", tc.n, tc.depth)
				}
			}()
			NewPending(tc.n, tc.depth)
		}()
	}
}

// TestPendingSizedByDepth pins what a buffer costs: its depth, not n. A
// buffer for 2^20 nodes and a depth of 16 allocates under 1 KiB (the dense
// n-entry slot index it replaced was 4 MiB), and at any depth the whole
// buffer — index, ids and values — is no larger than that dense index and
// the depth's ids and values were: 4n + 12·min(depth, n) bytes. Where
// the index takes n entries it is that dense index.
func TestPendingSizedByDepth(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := NewPending(1<<20, 16)
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b >= 1<<10 {
		t.Fatalf("NewPending(2^20, 16) allocated %d bytes, budget 1 KiB", b)
	}
	runtime.KeepAlive(p)
	for n := 1; n <= 300; n++ {
		for depth := 1; depth <= n+4; depth++ {
			p := NewPending(n, depth)
			b := 4*len(p.index) + 4*cap(p.ids) + 8*cap(p.val)
			if dense := 4*n + 12*min(depth, n); b > dense {
				t.Fatalf("NewPending(%d, %d) holds %d bytes, over the %d of a dense index", n, depth, b, dense)
			}
		}
	}
	// An index of n entries is dense at any n, not only those FuzzCoalesce
	// reaches: every node's home is its id.
	const big = 1_000_003
	p = NewPending(big, big/8+1)
	for _, id := range []int{0, 1, big / 3, big - 2, big - 1} {
		if h := p.home(id); len(p.index) != big || h != id {
			t.Fatalf("NewPending(%d, %d): %d index entries, node %d at %d", big, big/8+1, len(p.index), id, h)
		}
	}
}

// TestPendingSteadyStateAllocations pins that a buffer in use allocates
// nothing: Put, coalescing Put and Take into slices with room, on a hash
// index taking whole batches and batches far smaller than the depth, and
// on a dense index.
func TestPendingSteadyStateAllocations(t *testing.T) {
	for _, tc := range []struct{ n, depth, batch int }{{1 << 20, 16, 16}, {1 << 20, 1 << 10, 8}, {1 << 12, 1 << 12, 8}} {
		p := NewPending(tc.n, tc.depth)
		ids, vals := make([]int, 0, tc.depth), make([]int64, 0, tc.depth)
		base := 0
		cycle := func() {
			for j := 0; j < tc.batch; j++ {
				p.Put(base+j*7%tc.batch, int64(j))
			}
			p.Put(base, -1)
			ids, vals = p.Take(ids[:0], vals[:0])
			base = (base + 977) % (tc.n - tc.batch)
		}
		if a := testing.AllocsPerRun(100, cycle); a != 0 {
			t.Errorf("n=%d depth=%d: %.1f allocations per Put/Take cycle of %d nodes, want 0", tc.n, tc.depth, a, tc.batch)
		}
	}
}

// FuzzCoalesce drives a Pending buffer with an arbitrary op sequence
// against a reference model (a map; a new node on a full buffer first
// takes the batch, as the driver's worker would) and pins the
// coalescing contract: the depth bound is never exceeded,
// last-write-wins per node, Has agrees with the model, and the
// decode→apply round trip is idempotent — applying Take's batch to a
// dense mirror yields exactly the model state, and after it a second
// Take is empty and Has finds no node.
//
// The first two bytes pick n in [1, 256] and a depth in [1, n+4], so a
// depth of n or more is capped; each op after them is an id byte and a
// value byte, and the value byte 0x80 takes the batch early. An index
// below n entries is a hash table; the seeds include ids that all hash to
// its last two entries or its first, so probes run in chains and wrap
// around it, and a depth of n, whose index is the dense one. After the
// first Take the index's base jumps to a few Takes short of wrapping
// around, so every input runs through the restart from a zeroed index.
func FuzzCoalesce(f *testing.F) {
	f.Add([]byte{7, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{7, 2, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{7, 2, 255, 0, 128, 7, 7, 7, 3})
	f.Add([]byte{15, 17, 3, 1, 4, 1, 5, 0x80, 9, 2, 6, 5}) // a depth of 18, capped at n = 16
	for _, tc := range []struct{ n, depth int }{{256, 4}, {256, 16}, {64, 64}} {
		p := NewPending(tc.n, tc.depth)
		last := len(p.index) - 1
		seed := []byte{byte(tc.n - 1), byte(tc.depth - 1)}
		for id := 0; id < tc.n && len(seed) < 2+2*6; id++ {
			if h := p.home(id); h >= last-1 || h == 0 {
				seed = append(seed, byte(id), byte(len(seed)))
			}
		}
		// The same ids again after an early take, and once more to coalesce.
		ops := seed[2:]
		seed = append(append(append(seed, 0, 0x80), ops...), ops...)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])
		depth := 1 + int(data[1])%(n+4)
		p := NewPending(n, depth)
		depth = min(depth, n)
		if p.Cap() != depth || len(p.index) != min(8*depth, n) {
			t.Fatalf("NewPending(%d, %d): Cap %d and %d index entries, want %d and %d", n, depth, p.Cap(), len(p.index), depth, min(8*depth, n))
		}
		for id := 0; len(p.index) == n && id < n; id++ {
			if h := p.home(id); h != id {
				t.Fatalf("NewPending(%d, %d): a dense index puts node %d at %d", n, depth, id, h)
			}
		}
		takes := 0
		model := make(map[int]int64)
		mirror := make([]int64, n)

		// take must return the model, ascending; applying it to a dense
		// mirror must land every node on its last written value.
		take := func(op int) {
			ids, vals := p.Take(nil, nil)
			if !slices.IsSorted(ids) {
				t.Fatalf("op %d: Take ids not ascending: %v", op, ids)
			}
			if len(ids) != len(model) {
				t.Fatalf("op %d: Take returned %d nodes, model has %d", op, len(ids), len(model))
			}
			for j, id := range ids {
				want, ok := model[id]
				if !ok {
					t.Fatalf("op %d: Take returned node %d that the model never queued", op, id)
				}
				if vals[j] != want {
					t.Fatalf("op %d: node %d: Take value %d, model (last write) %d", op, id, vals[j], want)
				}
				mirror[id] = vals[j]
			}
			for id, want := range model {
				if mirror[id] != want {
					t.Fatalf("op %d: mirror[%d] = %d after apply, want %d", op, id, mirror[id], want)
				}
			}
			if ids2, _ := p.Take(nil, nil); len(ids2) != 0 {
				t.Fatalf("op %d: second Take not empty: %v", op, ids2)
			}
			for id := range n {
				if p.Has(id) {
					t.Fatalf("op %d: node %d still queued after Take", op, id)
				}
			}
			clear(model)
			// After the first batch, jump the index's base to one to
			// three Takes short of wrapping around: the restart from base
			// 1 must zero the index, or this batch's entries read as
			// queued again.
			if takes++; takes == 1 {
				p.base = math.MaxUint32 - uint32(2+int(data[0])%3)*uint32(depth)
			}
		}

		for i := 2; i+1 < len(data); i += 2 {
			op := (i - 2) / 2
			if data[i+1] == 0x80 {
				take(op)
				continue
			}
			id := int(data[i]) % n
			v := int64(int8(data[i+1]))
			if _, queued := model[id]; !queued && len(model) == depth {
				take(op) // full: the batch goes to the worker first
			}
			coalesced := p.Put(id, v)
			if _, queued := model[id]; queued != coalesced {
				t.Fatalf("op %d: Put(%d) coalesced=%v, model queued=%v", op, id, coalesced, queued)
			}
			model[id] = v
			if p.Len() != len(model) {
				t.Fatalf("op %d: Len=%d, model has %d", op, p.Len(), len(model))
			}
			if p.Len() > depth {
				t.Fatalf("op %d: depth bound exceeded: %d > %d", op, p.Len(), depth)
			}
			other := (id + 1) % n
			if _, queued := model[other]; p.Has(other) != queued || !p.Has(id) {
				t.Fatalf("op %d: Has(%d)=%v with model queued=%v, Has(%d)=%v", op, other, p.Has(other), queued, id, p.Has(id))
			}
		}
		take(len(data) / 2)
	})
}
