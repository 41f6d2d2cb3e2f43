// Package baseline implements the comparison algorithms the experiments
// measure Algorithm 1 against:
//
//   - Naive: every node forwards every observation (or every change) to
//     the coordinator — the strawman from the paper's §2.1.
//   - PerRound: recompute the top-k from scratch each step with k
//     executions of MAXIMUMPROTOCOL — the "classical analysis" algorithm
//     of §2.1, optimal up to a factor k on worst-case inputs but oblivious
//     to input similarity.
//   - PointFilter: a filter-based monitor whose filters are the degenerate
//     single-point intervals, isolating the value of *wide* filters
//     (ablation E12).
//   - LamMidpoint: the neighbor-midpoint strategy adapted from Lam et
//     al.'s dominance tracking — it maintains the full order of all n
//     nodes and therefore pays for order changes that cannot affect the
//     top-k, which is exactly why the paper develops Algorithm 1 instead
//     (§3.1).
//
// Every baseline reports exact top-k sets (they are all correct; they
// differ only in communication), implements the same Observe/Counts shape
// as core.Monitor, and breaks ties by smaller node id via the shared key
// injection.
package baseline

import (
	"fmt"
	"sort"

	"repro/internal/comm"
	"repro/internal/order"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/wire"
)

// topFromKeys returns the ids of the k largest keys, ascending.
func topFromKeys(keys []order.Key, k int) []int {
	ids := make([]int, len(keys))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool { return keys[ids[a]] > keys[ids[b]] })
	top := append([]int(nil), ids[:k]...)
	sort.Ints(top)
	return top
}

func checkNK(n, k int) {
	if n <= 0 {
		panic("baseline: need n > 0")
	}
	if k < 1 || k > n {
		panic("baseline: need 1 <= k <= n")
	}
}

// Naive forwards observations to the coordinator unconditionally. With
// SendOnChange it only forwards when a node's value differs from its
// previous one — still hopeless on continuously drifting inputs.
type Naive struct {
	n, k         int
	sendOnChange bool
	codec        order.Codec
	counter      comm.Counter
	keys         []order.Key
	prev         []int64
	init         bool
}

// NewNaive constructs the naive baseline.
func NewNaive(n, k int, sendOnChange bool) *Naive {
	checkNK(n, k)
	return &Naive{
		n: n, k: k, sendOnChange: sendOnChange,
		codec: order.NewCodec(n),
		keys:  make([]order.Key, n),
		prev:  make([]int64, n),
	}
}

// Observe processes one step and returns the exact top-k ids (ascending).
func (b *Naive) Observe(vals []int64) []int {
	if len(vals) != b.n {
		panic(fmt.Sprintf("baseline: observed %d values for %d nodes", len(vals), b.n))
	}
	for i, v := range vals {
		k := b.codec.Encode(v, i)
		if !b.init || !b.sendOnChange || v != b.prev[i] {
			b.counter.RecordSized(comm.Up, 1, wire.SizeBid(i, int64(k)))
		}
		b.prev[i] = v
		b.keys[i] = k
	}
	b.init = true
	return topFromKeys(b.keys, b.k)
}

// Counts returns total message counts.
func (b *Naive) Counts() comm.Counts { return b.counter.Snapshot() }

// Bytes returns total encoded message bytes.
func (b *Naive) Bytes() comm.Bytes { return b.counter.BytesSnapshot() }

// PerRound recomputes the top-k every step with k MAXIMUMPROTOCOL
// executions (population bound n each), as sketched in the paper's §2.1.
// Expected cost is Θ(k·log n) messages per step regardless of the input.
type PerRound struct {
	n, k    int
	codec   order.Codec
	counter comm.Counter
	rngs    []rng.RNG
	keys    []order.Key
}

// NewPerRound constructs the per-round recomputation baseline.
func NewPerRound(n, k int, seed uint64) *PerRound {
	checkNK(n, k)
	b := &PerRound{
		n: n, k: k,
		codec: order.NewCodec(n),
		rngs:  make([]rng.RNG, n),
		keys:  make([]order.Key, n),
	}
	root := rng.New(seed, 0x9e44)
	for i := range b.rngs {
		b.rngs[i] = root.SplitValue(uint64(i))
	}
	return b
}

// Observe processes one step and returns the exact top-k ids (ascending).
func (b *PerRound) Observe(vals []int64) []int {
	if len(vals) != b.n {
		panic(fmt.Sprintf("baseline: observed %d values for %d nodes", len(vals), b.n))
	}
	parts := make([]protocol.Participant, b.n)
	for i, v := range vals {
		b.keys[i] = b.codec.Encode(v, i)
		parts[i] = protocol.Participant{ID: i, Key: b.keys[i], RNG: &b.rngs[i]}
	}
	ranked := protocol.TopExtract(parts, b.k, b.n, &b.counter, nil, 0)
	top := make([]int, len(ranked))
	for i, r := range ranked {
		top[i] = r.ID
	}
	sort.Ints(top)
	return top
}

// Counts returns total message counts.
func (b *PerRound) Counts() comm.Counts { return b.counter.Snapshot() }

// Bytes returns total encoded message bytes.
func (b *PerRound) Bytes() comm.Bytes { return b.counter.BytesSnapshot() }

// PointFilter assigns every node the degenerate filter [v, v]: any change
// is a violation, reported with one Up message and acknowledged with one
// Down message installing the new point filter. It is "filter-based" in
// the letter of Definition 2.1 but gains nothing from the formalism — the
// ablation that shows wide filters, not filters per se, carry Algorithm
// 1's savings.
type PointFilter struct {
	n, k    int
	codec   order.Codec
	counter comm.Counter
	keys    []order.Key
	init    bool
}

// NewPointFilter constructs the point-filter ablation baseline.
func NewPointFilter(n, k int) *PointFilter {
	checkNK(n, k)
	return &PointFilter{n: n, k: k, codec: order.NewCodec(n), keys: make([]order.Key, n)}
}

// Observe processes one step and returns the exact top-k ids (ascending).
func (b *PointFilter) Observe(vals []int64) []int {
	if len(vals) != b.n {
		panic(fmt.Sprintf("baseline: observed %d values for %d nodes", len(vals), b.n))
	}
	for i, v := range vals {
		k := b.codec.Encode(v, i)
		if !b.init || k != b.keys[i] {
			b.counter.RecordSized(comm.Up, 1, wire.SizeBid(i, int64(k)))                // violation report with new value
			b.counter.RecordSized(comm.Down, 1, wire.SizeBounds(i, int64(k), int64(k))) // new point filter
			b.keys[i] = k
		}
	}
	b.init = true
	return topFromKeys(b.keys, b.k)
}

// Counts returns total message counts.
func (b *PointFilter) Counts() comm.Counts { return b.counter.Snapshot() }

// Bytes returns total encoded message bytes.
func (b *PointFilter) Bytes() comm.Bytes { return b.counter.BytesSnapshot() }

// LamMidpoint adapts the neighbor-midpoint strategy of Lam et al. (online
// dominance tracking) to one dimension: the coordinator knows the last
// reported key of every node and assigns each node the interval between
// the midpoints to its sorted-order neighbors. Any neighbor crossing —
// anywhere in the order, not just at the k-th boundary — triggers reports
// and filter updates, which is why this strategy is not competitive for
// Top-k-Position Monitoring (paper §3.1).
type LamMidpoint struct {
	n, k    int
	codec   order.Codec
	counter comm.Counter
	est     []order.Key // last key reported by each node
	lo, hi  []order.Key // current filter bounds per node
	init    bool
}

// NewLamMidpoint constructs the dominance-tracking baseline.
func NewLamMidpoint(n, k int) *LamMidpoint {
	checkNK(n, k)
	return &LamMidpoint{
		n: n, k: k,
		codec: order.NewCodec(n),
		est:   make([]order.Key, n),
		lo:    make([]order.Key, n),
		hi:    make([]order.Key, n),
	}
}

// Observe processes one step and returns the exact top-k ids (ascending).
func (b *LamMidpoint) Observe(vals []int64) []int {
	if len(vals) != b.n {
		panic(fmt.Sprintf("baseline: observed %d values for %d nodes", len(vals), b.n))
	}
	cur := make([]order.Key, b.n)
	for i, v := range vals {
		cur[i] = b.codec.Encode(v, i)
	}
	if !b.init {
		// Initialization: everyone reports once, filters installed.
		copy(b.est, cur)
		for i, k := range cur {
			b.counter.RecordSized(comm.Up, 1, wire.SizeBid(i, int64(k)))
		}
		b.assignFilters()
		b.init = true
		return topFromKeys(b.est, b.k)
	}
	// Violation cascade. Reassigning a midpoint filter can strand a
	// non-violating node outside its *new* interval; the model allows a
	// full protocol between observations, so those nodes report in turn
	// until the assignment stabilizes. A node whose estimate equals its
	// current key always contains itself, so each node reports at most
	// once per step and the cascade terminates.
	for {
		changed := false
		for i, k := range cur {
			if k < b.lo[i] || k > b.hi[i] {
				b.est[i] = k
				b.counter.RecordSized(comm.Up, 1, wire.SizeBid(i, int64(k))) // report new value
				changed = true
			}
		}
		if !changed {
			break
		}
		b.assignFilters()
	}
	return topFromKeys(b.est, b.k)
}

// assignFilters recomputes the neighbor-midpoint filters from est and
// charges one Down message per node whose filter actually changed.
func (b *LamMidpoint) assignFilters() {
	ids := make([]int, b.n)
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, c int) bool { return b.est[ids[a]] < b.est[ids[c]] })
	for pos, id := range ids {
		lo, hi := order.NegInf, order.PosInf
		if pos > 0 {
			lo = order.Midpoint(b.est[ids[pos-1]], b.est[id])
		}
		if pos < b.n-1 {
			// Keep neighbor intervals disjoint up to the shared boundary.
			hi = order.Midpoint(b.est[id], b.est[ids[pos+1]])
		}
		if lo != b.lo[id] || hi != b.hi[id] {
			b.lo[id], b.hi[id] = lo, hi
			b.counter.RecordSized(comm.Down, 1, wire.SizeBounds(id, int64(lo), int64(hi)))
		}
	}
}

// Counts returns total message counts.
func (b *LamMidpoint) Counts() comm.Counts { return b.counter.Snapshot() }

// Bytes returns total encoded message bytes.
func (b *LamMidpoint) Bytes() comm.Bytes { return b.counter.BytesSnapshot() }
