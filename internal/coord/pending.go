package coord

import (
	"fmt"
	"slices"
)

// Pending is the bounded per-node coalescing buffer of the asynchronous
// ingestion path: the staging area between observation producers and the
// coordinator that executes protocol steps. It holds at most one queued
// observation per node — a newer observation of a node that already has
// one queued overwrites it in place (last-write-wins), never appends —
// and at most Cap distinct pending nodes overall. Overwriting is
// semantically free for the Mäcker et al. protocol: every decision the
// coordinator takes depends only on each node's *current* value, so a
// superseded observation could never have influenced anything but the
// intermediate reports of the steps it is coalesced across.
//
// Pending is a pure data structure (no locking, no goroutines); the
// ingest driver that owns one serializes access and waits for room
// before staging a call's new nodes.
type Pending struct {
	// slot maps a node id to 1+its index in ids while the node has a
	// queued observation, 0 otherwise.
	slot []int32
	// ids lists the pending node ids in arrival order (cap depth);
	// val[i] is node ids[i]'s queued observation — a node keeps its
	// index for as long as it is queued — so the values cost the depth,
	// not n.
	ids []int32
	val []int64
}

// NewPending builds a buffer for nodes in [0, n) admitting at most depth
// distinct pending nodes (1 <= depth; a depth beyond n is capped at n,
// since a node never occupies two slots).
func NewPending(n, depth int) *Pending {
	if n <= 0 {
		panic("coord: Pending needs n > 0")
	}
	if depth < 1 {
		panic("coord: Pending needs depth >= 1")
	}
	if depth > n {
		depth = n
	}
	return &Pending{
		slot: make([]int32, n),
		ids:  make([]int32, 0, depth),
		val:  make([]int64, 0, depth),
	}
}

// Len returns the number of distinct nodes with a queued observation.
func (p *Pending) Len() int { return len(p.ids) }

// Cap returns the maximum number of distinct pending nodes.
func (p *Pending) Cap() int { return cap(p.ids) }

// Has reports whether node id has a queued observation.
func (p *Pending) Has(id int) bool { return p.slot[id] != 0 }

// Put queues node id's observation v, overwriting any queued one
// (coalesced reports which). Inserting a new node into a full buffer is
// a caller bug — the driver must wait for room first — and panics.
func (p *Pending) Put(id int, v int64) (coalesced bool) {
	if at := p.slot[id]; at != 0 {
		p.val[at-1] = v
		return true
	}
	if len(p.ids) == cap(p.ids) {
		panic(fmt.Sprintf("coord: Put(%d) on a full Pending buffer", id))
	}
	p.ids = append(p.ids, int32(id))
	p.val = append(p.val, v)
	p.slot[id] = int32(len(p.ids))
	return false
}

// Take appends every queued observation to ids/vals in ascending node
// order — the shape ObserveDelta requires — clears the buffer, and
// returns the extended slices. With capacity >= Len it allocates
// nothing, so a draining worker can reuse one pair of scratch slices
// for the lifetime of the buffer.
func (p *Pending) Take(ids []int, vals []int64) ([]int, []int64) {
	start := len(ids)
	for _, id := range p.ids {
		ids = append(ids, int(id))
	}
	taken := ids[start:]
	slices.Sort(taken)
	for _, id := range taken {
		vals = append(vals, p.val[p.slot[id]-1])
		p.slot[id] = 0
	}
	p.ids, p.val = p.ids[:0], p.val[:0]
	return ids, vals
}
