package coord

import (
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

// FuzzCoalesce drives a Pending buffer with an arbitrary op sequence
// against a reference model (a map; a new node on a full buffer first
// takes the batch, as the driver's worker would) and pins the
// coalescing contract: the depth bound is never exceeded,
// last-write-wins per node, and the decode→apply round trip is
// idempotent — applying Take's batch to a dense mirror yields exactly
// the model state, and a second Take is empty.
func FuzzCoalesce(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 1, 1, 1, 1, 1})
	f.Add([]byte{255, 0, 128, 7, 7, 7, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n, depth = 8, 3
		p := NewPending(n, depth)
		model := make(map[int]int64)

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
			var mirror [n]int64
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
			clear(model)
		}

		for i := 0; i+1 < len(data); i += 2 {
			id := int(data[i]) % n
			v := int64(int8(data[i+1]))
			if _, queued := model[id]; !queued && len(model) == depth {
				take(i / 2) // full: the batch goes to the worker first
			}
			coalesced := p.Put(id, v)
			if _, queued := model[id]; queued != coalesced {
				t.Fatalf("op %d: Put(%d) coalesced=%v, model queued=%v", i/2, id, coalesced, queued)
			}
			model[id] = v
			if p.Len() != len(model) {
				t.Fatalf("op %d: Len=%d, model has %d", i/2, p.Len(), len(model))
			}
			if p.Len() > depth {
				t.Fatalf("op %d: depth bound exceeded: %d > %d", i/2, p.Len(), depth)
			}
		}
		take(len(data) / 2)
	})
}
