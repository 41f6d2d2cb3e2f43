package coord

import (
	"fmt"
	"math"

	"repro/internal/filter"
	"repro/internal/order"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/wire"
)

// Per-node bits of Nodes.flags: the checkpoint frame's, so Snapshot copies.
const (
	flagInTop     = wire.FlagNodeInTop     // membership from the last broadcast
	flagWasTop    = wire.FlagNodeWasTop    // membership at the time of the last violation
	flagExtracted = wire.FlagNodeExtracted // extracted by the running reset
)

// Nodes hosts the node-side state of a contiguous id range [Lo, Hi) of an
// n-node monitor: the sans-I/O dual of Machine. Every substrate that hosts
// nodes — the shard goroutines of internal/runtime, the peer processes of
// internal/netrun, the shard sub-coordinators of internal/shardrun — owns
// one Nodes per hosted range and translates its substrate's commands into
// the methods below.
//
// The per-node state of the paper's node model — current key, membership
// knowledge from the last broadcast, violation history, a private
// generator for the protocol's Bernoulli trials — is parallel arrays
// indexed by id - Lo, 25 bytes per hosted node (key 8, generator state 8,
// violation step 8, flags 1): the filter is derived from the installed
// bounds (filter.Bounds) and no function of the id is stored, a
// generator's increment included. Who is still in play during a protocol
// execution is one bit per node in the view's in-play set (Round), empty
// between executions.
//
// The RNG stream layout is shared by construction: every engine derives
// node i's generator as the i-th Split of the same seeded root, which is
// what makes protocol randomness consume identically across engines.
type Nodes struct {
	lo, hi   int
	distinct bool
	codec    order.Codec
	tol      order.Tol
	maxVal   int64 // cached value-domain bound; Observe checks it per value

	keys     []order.Key
	gens     rng.Arena      // generator i's increment derives from id Lo+i
	violStep []int64        // observation step of the last filter violation
	flags    []uint8        // flagInTop | flagWasTop | flagExtracted
	inst     *filter.Bounds // shared with every Sub view

	// ord holds the ordered §5 variant's order filters, allocated only by
	// EnableOrderFilters; nil means every order filter is [-inf, +inf].
	ord []filter.Interval

	// inPlay is the running execution's set of hosted cohort members
	// still in play. Round enlists it at round 0 and every round clears the
	// members that bid or drop out; it is per view (Sub views of one bank
	// run their ranges' rounds independently) and allocated on first use.
	inPlay protocol.InPlay
}

// NewNodes builds the node state for the range [lo, hi) of an n-node
// monitor with the given protocol seed, tie-break mode and tolerance
// (zero for exact monitoring). Its generators are the root's children
// lo..hi-1, the same every other engine gives those nodes; the walk of the
// root's split sequence starts at lo (rng.SplitArena jumps there) and
// stops at hi, so S banks over one id space cost n splits between them.
func NewNodes(n, lo, hi int, seed uint64, distinct bool, tol order.Tol) *Nodes {
	if n <= 0 {
		panic("coord: need n > 0")
	}
	if lo < 0 || hi > n || lo >= hi {
		panic(fmt.Sprintf("coord: bad node range [%d, %d) of %d", lo, hi, n))
	}
	if hi-lo > math.MaxInt32 {
		panic(fmt.Sprintf("coord: node range [%d, %d) exceeds 2^31-1 hosted nodes", lo, hi))
	}
	b := newBank(n, lo, hi, distinct, tol, protocol.NodeRoot(seed).SplitArena(lo, hi))
	for i := range b.keys {
		b.violStep[i] = -1
		if !distinct {
			b.keys[i] = b.codec.Encode(0, lo+i)
		}
	}
	return b
}

// newBank allocates a bank over [lo, hi) around the given generators with
// every filter [-inf, +inf]; the caller fills keys and violation history.
func newBank(n, lo, hi int, distinct bool, tol order.Tol, gens rng.Arena) *Nodes {
	inst := filter.Unbounded()
	return &Nodes{
		lo:       lo,
		hi:       hi,
		distinct: distinct,
		codec:    order.NewCodec(n),
		tol:      tol,
		maxVal:   order.MaxValueFor(n, distinct),
		keys:     make([]order.Key, hi-lo),
		gens:     gens,
		violStep: make([]int64, hi-lo),
		flags:    make([]uint8, hi-lo),
		inst:     &inst,
	}
}

// Sub returns a view of the sub-range [lo, hi) sharing this bank's node
// state, installed bounds included. The parent covers construction cost
// once; disjoint views may then be driven from different goroutines
// (internal/runtime's shards), parked whenever an install is issued.
func (b *Nodes) Sub(lo, hi int) *Nodes {
	if lo < b.lo || hi > b.hi || lo >= hi {
		panic(fmt.Sprintf("coord: sub-range [%d, %d) outside [%d, %d)", lo, hi, b.lo, b.hi))
	}
	i, j := lo-b.lo, hi-b.lo
	v := &Nodes{
		lo: lo, hi: hi, distinct: b.distinct, codec: b.codec, tol: b.tol, maxVal: b.maxVal,
		keys: b.keys[i:j:j], gens: b.gens.Sub(i, j), violStep: b.violStep[i:j:j], flags: b.flags[i:j:j],
		inst: b.inst,
	}
	if b.ord != nil {
		v.ord = b.ord[i:j:j]
	}
	return v
}

// Lo returns the first hosted node id.
func (b *Nodes) Lo() int { return b.lo }

// Hi returns one past the last hosted node id.
func (b *Nodes) Hi() int { return b.hi }

// Len returns the number of hosted nodes.
func (b *Nodes) Len() int { return len(b.keys) }

// Key returns node id's current key (for invariant checks in tests).
func (b *Nodes) Key(id int) order.Key { return b.keys[b.index(id)] }

// index resolves a global id into the local arrays.
func (b *Nodes) index(id int) int {
	if id < b.lo || id >= b.hi {
		panic(fmt.Sprintf("coord: node %d outside hosted range [%d, %d)", id, b.lo, b.hi))
	}
	return id - b.lo
}

// cohorts says, per protocol tag, which hosted nodes take part: those
// whose flags under mask equal want and, in the violation cohorts, that
// violated this step — all of it knowledge the node legitimately has.
var cohorts = [...]struct {
	mask, want uint8
	violated   bool
}{
	TagViolMin: {flagWasTop, flagWasTop, true},
	TagViolMax: {flagWasTop, 0, true},
	TagHandMin: {flagInTop, flagInTop, false},
	TagHandMax: {flagInTop, 0, false},
	TagReset:   {flagExtracted, 0, false},
}

// MaxValue returns the largest observation magnitude the bank accepts
// (symmetrically, -MaxValue is the smallest): order.MaxValueFor of the
// bank's configuration — the codec capacity for the default tie-break
// injection, which shrinks with n since keys are v·n + tiebreak, or the
// sentinel-free int64 range in DistinctValues mode.
func (b *Nodes) MaxValue() int64 { return b.maxVal }

// Observe ingests one observation for node id at the given step, runs the
// node-local filter check, and reports whether the node violated as a
// former top-k member (topViol) or as an outsider (outViol). A value
// whose magnitude exceeds MaxValue is rejected with a descriptive error
// before any state changes: the key injection would overflow (or, in
// DistinctValues mode, collide with the ±∞ sentinels) and silently
// corrupt the order, so out-of-domain input must never reach the key
// domain. Hosts that face a wire (internal/netrun, internal/shardrun)
// surface the error instead of panicking.
func (b *Nodes) Observe(id int, v int64, step int64) (topViol, outViol bool, err error) {
	i := b.index(id)
	if v > b.maxVal || v < -b.maxVal {
		return false, false, fmt.Errorf("coord: node %d value %d outside the value domain [-%d, %d] for %d nodes", id, v, b.maxVal, b.maxVal, b.codec.N())
	}
	key := order.Key(v)
	if !b.distinct {
		key = b.codec.Encode(v, id)
	}
	b.keys[i] = key
	inTop := b.flags[i]&flagInTop != 0
	violated, _ := b.inst.Interval(inTop).Violates(key)
	if !violated {
		return false, false, nil
	}
	b.violStep[i] = step
	b.flags[i] &^= flagWasTop
	if inTop {
		b.flags[i] |= flagWasTop
	}
	return inTop, !inTop, nil
}

// Round runs round r of one Algorithm 2 execution over the hosted members
// of cohort tag, with the given population bound, against the best value
// broadcast so far (in the execution's comparison domain). Every node
// that sends is reported to send in ascending id order with its true key.
//
// Round 0 enlists the cohort — each node evaluates its membership locally,
// 64 flag bytes to one word of the in-play set — so banks need no
// per-execution setup call, and whatever an abandoned execution left in
// play is overwritten; every round is then one pass of the round kernel
// (protocol.Field.Round) over the members still in play. A bank that
// first sees an execution at a round r > 0 (it joined mid-execution) has
// nobody in play for it and nobody bids.
func (b *Nodes) Round(tag uint8, r int, best order.Key, bound int, step int64, send func(id int, key order.Key)) {
	if bound <= 0 {
		panic("coord: protocol round with a non-positive population bound")
	}
	if !ValidTag(tag) {
		panic(fmt.Sprintf("coord: unknown protocol tag %d", tag))
	}
	if r == 0 {
		c := cohorts[tag]
		b.inPlay.Fill(len(b.keys), func(w int) uint64 {
			var word uint64
			for j, f := range b.flags[w<<6 : min(w<<6+64, len(b.flags))] {
				if f&c.mask == c.want && (!c.violated || b.violStep[w<<6+j] == step) {
					word |= 1 << j
				}
			}
			return word
		})
	}
	tol := b.tol
	if !TolerantTag(tag) {
		tol = order.Tol{} // reset extractions always run exactly
	}
	coin := rng.NewCoin(uint(r), uint64(bound))
	protocol.Field{Keys: b.keys, Gens: b.gens}.Round(&b.inPlay, &coin, tol.WidenHi(best), MinimumTag(tag), b.lo, send)
}

// Winner marks node target as extracted by the current reset, joining the
// top-k set when isTop is set.
func (b *Nodes) Winner(target int, isTop bool) {
	i := b.index(target)
	b.flags[i] |= flagExtracted
	if isTop {
		b.flags[i] |= flagInTop
	}
}

// Midpoint installs the canonical filter assignment around mid: [mid,
// +inf] for top-k members, [-inf, mid] for outsiders — or [-inf, +inf]
// everywhere when full is set (k == n). One store, whatever the size.
func (b *Nodes) Midpoint(mid order.Key, full bool) {
	*b.inst = filter.Bounds{Lo: mid, Hi: mid}
	if full {
		*b.inst = filter.Unbounded()
	}
}

// ApplyBounds installs the ε-approximate band assignment: [lo, +inf] for
// top-k members, [-inf, hi] for outsiders (the node-side execution of
// coord.EffBounds / wire.ApproxBounds).
func (b *Nodes) ApplyBounds(lo, hi order.Key) {
	*b.inst = filter.Bounds{Lo: lo, Hi: hi}
}

// ResetBegin clears extraction state and membership ahead of a FILTERRESET.
func (b *Nodes) ResetBegin() {
	for i := range b.flags {
		b.flags[i] &= flagWasTop
	}
}

// EnableOrderFilters allocates the bank's order filters, all [-inf, +inf].
// Only an internal/runtime in the ordered mode calls it, and before it takes
// Sub views: a view taken earlier would not share the array.
func (b *Nodes) EnableOrderFilters() {
	if b.ord != nil {
		return
	}
	b.ord = make([]filter.Interval, len(b.keys))
	for i := range b.ord {
		b.ord[i] = filter.Full()
	}
}

// OrderViolated checks node target's order filter: it returns the node's
// current key and whether it left the filter.
func (b *Nodes) OrderViolated(target int) (key order.Key, violated bool) {
	i := b.index(target)
	if b.ord != nil {
		violated, _ = b.ord[i].Violates(b.keys[i])
	}
	return b.keys[i], violated
}

// SetOrderBounds installs node target's order filter [lo, hi]. It panics
// on a bank whose order filters were never enabled.
func (b *Nodes) SetOrderBounds(target int, lo, hi order.Key) {
	if b.ord == nil {
		panic("coord: SetOrderBounds without EnableOrderFilters")
	}
	b.ord[b.index(target)] = filter.Interval{Lo: lo, Hi: hi}
}
