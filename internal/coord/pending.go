package coord

import (
	"fmt"
	"math"
	"math/bits"
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
// Below a depth of n/8 everything it holds is sized by the depth, not by
// n: a node's only state here is its queued observation, as in the
// paper's model a node's only state is its value and its filter.
//
// Pending is a pure data structure (no locking, no goroutines); the
// ingest driver that owns one serializes access and waits for room
// before staging a call's new nodes.
type Pending struct {
	// index finds a queued node's slot: an entry is base+i for the node
	// ids[i] holds, and any entry outside [base, base+Cap) is empty —
	// Take empties the index by moving base past every entry it holds,
	// so it costs nothing however deep the queue, and a small batch from
	// a deep queue does not pay for the table. It has min(8d, n) entries
	// for a depth d. Below n it is an open-addressed hash table with
	// linear probing, at most an eighth full, so a probe for a node not
	// queued (a new node's Put, the driver's Has on a full buffer) mostly
	// stops at its first entry: at two entries a slot, benchmark/'s
	// async-seq-shallow ran 15 % fewer steps a second. At n it is the
	// dense index, where a node's entry is its id, and no probe goes past
	// it however full the buffer is. Either way the buffer is no larger
	// than a dense index and the slots would be.
	index []uint32
	base  uint32
	mult  uint64 // see home
	// ids lists the pending node ids in arrival order (cap depth);
	// val[i] is node ids[i]'s queued observation — a node keeps its
	// slot for as long as it is queued.
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
	size := min(8*depth, n)
	mult := uint64(0x9e3779b97f4a7c15) // 2^64 over the golden ratio
	if size == n {
		mult = math.MaxUint64/uint64(n) + 1 // ⌈2^64/n⌉, or 0 for n = 1
	}
	return &Pending{
		index: make([]uint32, size),
		base:  1,
		mult:  mult,
		ids:   make([]int32, 0, depth),
		val:   make([]int64, 0, depth),
	}
}

// Len returns the number of distinct nodes with a queued observation.
func (p *Pending) Len() int { return len(p.ids) }

// Cap returns the maximum number of distinct pending nodes.
func (p *Pending) Cap() int { return cap(p.ids) }

// Has reports whether node id has a queued observation.
func (p *Pending) Has(id int) bool {
	_, i := p.find(id)
	return i < uint32(cap(p.ids))
}

// home is node id's first entry in the index: id·mult, a fraction of
// 2^64, scaled to the table by a multiply-high, so the table's size needs
// no rounding to a power of two. Below n entries mult is Fibonacci's and
// the home a hash of the id; in a dense index it is ⌈2^64/n⌉, id·mult is
// id/n rounded up by less than 1/n, and the home is the id itself.
func (p *Pending) home(id int) int {
	hi, _ := bits.Mul64(uint64(id)*p.mult, uint64(len(p.index)))
	return int(hi)
}

// find returns the entry holding node id and its slot i, or the empty
// entry that ends its probe from id's home and an i of Cap or more.
func (p *Pending) find(id int) (s int, i uint32) {
	for s = p.home(id); ; {
		if i = p.index[s] - p.base; i >= uint32(cap(p.ids)) || int(p.ids[i]) == id {
			return s, i
		}
		if s++; s == len(p.index) {
			s = 0
		}
	}
}

// Put queues node id's observation v, overwriting any queued one
// (coalesced reports which). Inserting a new node into a full buffer is
// a caller bug — the driver must wait for room first — and panics.
func (p *Pending) Put(id int, v int64) (coalesced bool) {
	s, i := p.find(id)
	if i < uint32(cap(p.ids)) {
		p.val[i] = v
		return true
	}
	if len(p.ids) == cap(p.ids) {
		panic(fmt.Sprintf("coord: Put(%d) on a full Pending buffer", id))
	}
	p.index[s] = p.base + uint32(len(p.ids))
	p.ids = append(p.ids, int32(id))
	p.val = append(p.val, v)
	return false
}

// Take appends every queued observation to ids/vals in ascending node
// order — the shape ObserveDelta requires — clears the buffer, and
// returns the extended slices. With capacity >= Len it allocates
// nothing, so a draining worker can reuse one pair of scratch slices
// for the lifetime of the buffer.
func (p *Pending) Take(ids []int, vals []int64) ([]int, []int64) {
	if d := uint32(cap(p.ids)); p.base < math.MaxUint32-2*d {
		p.base += d
	} else { // the next base+Cap would wrap: start again from a zeroed index
		clear(p.index)
		p.base = 1
	}
	// The batch sorts as id<<32 | i keys, staged where its values go:
	// each key carries its value's slot, so nothing is looked up.
	start := len(vals)
	for i, id := range p.ids {
		vals = append(vals, int64(id)<<32|int64(i))
	}
	taken := vals[start:]
	slices.Sort(taken)
	for j, key := range taken {
		ids = append(ids, int(key>>32))
		taken[j] = p.val[uint32(key)]
	}
	p.ids, p.val = p.ids[:0], p.val[:0]
	return ids, vals
}
