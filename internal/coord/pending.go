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
// ingest driver that owns one serializes access and implements the
// overflow policies on top of Full/EvictOldest. Eviction order is
// first-queued-first-evicted: coalescing into an already-queued node
// does not refresh its queue position, so the "oldest" pending node is
// the one whose first un-applied observation is stalest.
type Pending struct {
	// slot maps a node id to 1+its ring index while the node has a
	// queued observation, 0 otherwise.
	slot []int32
	// ring lists the pending node ids in queue order: the oldest lives
	// at index head, newer insertions follow circularly; val[i] is the
	// queued observation of node ring[i] — a node keeps its ring index
	// for as long as it is queued — so the values cost the depth, not n.
	ring  []int32
	val   []int64
	head  int
	count int
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
		ring: make([]int32, depth),
		val:  make([]int64, depth),
	}
}

// Len returns the number of distinct nodes with a queued observation.
func (p *Pending) Len() int { return p.count }

// Cap returns the maximum number of distinct pending nodes.
func (p *Pending) Cap() int { return len(p.ring) }

// Full reports whether a new node's observation cannot be admitted
// without coalescing or eviction.
func (p *Pending) Full() bool { return p.count == len(p.ring) }

// Has reports whether node id has a queued observation.
func (p *Pending) Has(id int) bool { return p.slot[id] != 0 }

// Value returns node id's queued observation; it panics when none is
// queued (check Has first).
func (p *Pending) Value(id int) int64 {
	if p.slot[id] == 0 {
		panic(fmt.Sprintf("coord: node %d has no pending observation", id))
	}
	return p.val[p.slot[id]-1]
}

// Put queues node id's observation v, overwriting any queued one
// (coalesced reports which). Inserting a new node into a full buffer is
// a caller bug — the driver must consult Full and apply its overflow
// policy first — and panics.
func (p *Pending) Put(id int, v int64) (coalesced bool) {
	if at := p.slot[id]; at != 0 {
		p.val[at-1] = v
		return true
	}
	if p.count == len(p.ring) {
		panic(fmt.Sprintf("coord: Put(%d) on a full Pending buffer", id))
	}
	at := (p.head + p.count) % len(p.ring)
	p.ring[at], p.val[at] = int32(id), v
	p.slot[id] = int32(at) + 1
	p.count++
	return false
}

// EvictOldest removes and returns the oldest queued observation (the
// DropOldest overflow policy). It panics on an empty buffer.
func (p *Pending) EvictOldest() (id int, v int64) {
	if p.count == 0 {
		panic("coord: EvictOldest on an empty Pending buffer")
	}
	id, v = int(p.ring[p.head]), p.val[p.head]
	p.slot[id] = 0
	p.head = (p.head + 1) % len(p.ring)
	p.count--
	return id, v
}

// Take appends every queued observation to ids/vals in ascending node
// order — the shape ObserveDelta requires — clears the buffer, and
// returns the extended slices. With capacity >= Len it allocates
// nothing, so a draining worker can reuse one pair of scratch slices
// for the lifetime of the buffer.
func (p *Pending) Take(ids []int, vals []int64) ([]int, []int64) {
	if p.count == 0 {
		return ids, vals
	}
	start := len(ids)
	for i := 0; i < p.count; i++ {
		ids = append(ids, int(p.ring[(p.head+i)%len(p.ring)]))
	}
	taken := ids[start:]
	slices.Sort(taken)
	for _, id := range taken {
		vals = append(vals, p.val[p.slot[id]-1])
		p.slot[id] = 0
	}
	p.head, p.count = 0, 0
	return ids, vals
}
