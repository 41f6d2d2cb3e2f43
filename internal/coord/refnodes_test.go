package coord

import (
	"fmt"
	"math"

	"repro/internal/filter"
	"repro/internal/order"
	"repro/internal/rng"
)

// refNodes is the node bank as it was before filters became two bounds
// and a membership bit: an array of per-node records, each storing its own
// id, filter interval and order filter, with every install rewriting all
// of them. The code below is that commit's nodes.go verbatim but for the
// type names, the per-level ε ladder, which the bank no longer has, the
// TagReset cohort, which is every node since a FILTERRESET became one
// execution, the trial, which is asked of the keyed coin (refDecide), and
// what only its checkpoint frame read — the generator a record carried and
// its extraction bit — which went with that frame's dialect. It is the
// independent reference refnodes_equiv_test.go checks the flat bank
// against.

// refNodeState is the distributed per-node state of the paper's node model:
// the current key, the assigned filter and membership knowledge from the
// last broadcast. It carries no per-execution state: who is still in play
// during a protocol execution is the bank's active list (Nodes.Round).
type refNodeState struct {
	id       int
	key      order.Key
	iv       filter.Interval
	ordIv    filter.Interval // order filter (ordered variant only)
	inTop    bool
	wasTop   bool  // membership at the time of the last violation
	violStep int64 // observation step of the last filter violation
}

// participates evaluates cohort membership node-locally, from knowledge
// the node legitimately has (its own violation history and the membership
// flag from the last broadcast).
func (nd *refNodeState) participates(tag uint8, step int64) bool {
	switch tag {
	case TagViolMin:
		return nd.violStep == step && nd.wasTop
	case TagViolMax:
		return nd.violStep == step && !nd.wasTop
	case TagHandMin:
		return nd.inTop
	case TagHandMax:
		return !nd.inTop
	case TagReset:
		return true // everyone, since a reset is one execution
	default:
		panic(fmt.Sprintf("coord: unknown protocol tag %d", tag))
	}
}

// Nodes hosts the node-side state of a contiguous id range [Lo, Hi) of an
// n-node monitor: the sans-I/O dual of Machine. Every substrate that hosts
// nodes — the shard goroutines of internal/runtime, the peer processes of
// internal/netrun, the shard sub-coordinators of internal/shardrun — owns
// one Nodes per hosted range and translates its substrate's commands into
// the methods below.
type refNodes struct {
	lo, hi   int
	distinct bool
	codec    order.Codec
	tol      order.Tol
	maxVal   int64  // cached value-domain bound; Observe checks it per value
	seed     uint64 // keys the nodes' coins
	ns       []refNodeState

	// active is the running execution's list of hosted cohort members
	// still in play, as ascending indices into ns. Round builds it at
	// round 0 and compacts it every round; it is per view (Sub views of
	// one bank run their ranges' rounds independently) and allocated at
	// exact capacity on first use.
	active []int32
}

// newRefNodes builds the node state for the range [lo, hi) of an n-node
// monitor with the given protocol seed, tie-break mode and tolerance
// (zero for exact monitoring).
func newRefNodes(n, lo, hi int, seed uint64, distinct bool, tol order.Tol) *refNodes {
	if n <= 0 {
		panic("coord: need n > 0")
	}
	if lo < 0 || hi > n || lo >= hi {
		panic(fmt.Sprintf("coord: bad node range [%d, %d) of %d", lo, hi, n))
	}
	if hi-lo > math.MaxInt32 {
		panic(fmt.Sprintf("coord: node range [%d, %d) exceeds 2^31-1 hosted nodes", lo, hi))
	}
	b := &refNodes{
		lo:       lo,
		hi:       hi,
		distinct: distinct,
		codec:    order.NewCodec(n),
		tol:      tol,
		maxVal:   order.MaxValueFor(n, distinct),
		seed:     seed,
		ns:       make([]refNodeState, hi-lo),
	}
	for i := lo; i < hi; i++ {
		key := order.Key(0)
		if !distinct {
			key = b.codec.Encode(0, i)
		}
		b.ns[i-lo] = refNodeState{
			id:       i,
			key:      key,
			iv:       filter.Full(),
			ordIv:    filter.Full(),
			violStep: -1,
		}
	}
	return b
}

// Sub returns a view of the sub-range [lo, hi) sharing this bank's node
// state. The parent covers construction cost once; disjoint sub-views may
// then be driven from different goroutines (internal/runtime's shards).
func (b *refNodes) Sub(lo, hi int) *refNodes {
	if lo < b.lo || hi > b.hi || lo >= hi {
		panic(fmt.Sprintf("coord: sub-range [%d, %d) outside [%d, %d)", lo, hi, b.lo, b.hi))
	}
	return &refNodes{
		lo:       lo,
		hi:       hi,
		distinct: b.distinct,
		codec:    b.codec,
		tol:      b.tol,
		maxVal:   b.maxVal,
		seed:     b.seed,
		ns:       b.ns[lo-b.lo : hi-b.lo : hi-b.lo],
	}
}

// Lo returns the first hosted node id.
func (b *refNodes) Lo() int { return b.lo }

// Hi returns one past the last hosted node id.
func (b *refNodes) Hi() int { return b.hi }

// Len returns the number of hosted nodes.
func (b *refNodes) Len() int { return len(b.ns) }

// Key returns node id's current key (for invariant checks in tests).
func (b *refNodes) Key(id int) order.Key { return b.node(id).key }

// node resolves a global id into the local array.
func (b *refNodes) node(id int) *refNodeState {
	if id < b.lo || id >= b.hi {
		panic(fmt.Sprintf("coord: node %d outside hosted range [%d, %d)", id, b.lo, b.hi))
	}
	return &b.ns[id-b.lo]
}

// MaxValue returns the largest observation magnitude the bank accepts
// (symmetrically, -MaxValue is the smallest): order.MaxValueFor of the
// bank's configuration — the codec capacity for the default tie-break
// injection, which shrinks with n since keys are v·n + tiebreak, or the
// sentinel-free int64 range in DistinctValues mode.
func (b *refNodes) MaxValue() int64 { return b.maxVal }

// Observe ingests one observation for node id at the given step, runs the
// node-local filter check, and reports whether the node violated as a
// former top-k member (topViol) or as an outsider (outViol). A value
// whose magnitude exceeds MaxValue is rejected with a descriptive error
// before any state changes: the key injection would overflow (or, in
// DistinctValues mode, collide with the ±∞ sentinels) and silently
// corrupt the order, so out-of-domain input must never reach the key
// domain. Hosts that face a wire (internal/netrun, internal/shardrun)
// surface the error instead of panicking.
func (b *refNodes) Observe(id int, v int64, step int64) (topViol, outViol bool, err error) {
	nd := b.node(id)
	if v > b.maxVal || v < -b.maxVal {
		return false, false, fmt.Errorf("coord: node %d value %d outside the value domain [-%d, %d] for %d nodes", id, v, b.maxVal, b.maxVal, b.codec.N())
	}
	if b.distinct {
		nd.key = order.Key(v)
	} else {
		nd.key = b.codec.Encode(v, id)
	}
	violated, _ := nd.iv.Violates(nd.key)
	if violated {
		nd.violStep = step
		nd.wasTop = nd.inTop
		return nd.inTop, !nd.inTop, nil
	}
	return false, false, nil
}

// Round runs round r of one Algorithm 2 execution over the hosted members
// of cohort tag, with the given population bound, against the best value
// broadcast so far (in the execution's comparison domain). Every node
// that sends is reported to send in ascending id order with its true key.
//
// Round 0 enlists the cohort — each node evaluates its membership locally
// — so banks need no per-execution setup call; every round then visits
// only the members still in play and compacts the list in place, taking
// protocol.Decide's verdict for each. A node that left the list would
// have found itself inactive in every later round without drawing, so the
// trials drawn, their order and the sends are exactly those of consulting
// every hosted node every round. A bank that first sees an execution at a
// round r > 0 (it joined mid-execution) holds no list for it and nobody
// bids.
func (b *refNodes) Round(tag uint8, r int, best order.Key, bound int, step int64, send func(id int, key order.Key)) {
	if bound <= 0 {
		panic("coord: protocol round with a non-positive population bound")
	}
	if r == 0 {
		if b.active == nil {
			b.active = make([]int32, 0, len(b.ns))
		}
		b.active = b.active[:0]
		for i := range b.ns {
			if b.ns[i].participates(tag, step) {
				b.active = append(b.active, int32(i))
			}
		}
	}
	tol := b.tol
	if !TolerantTag(tag) {
		tol = order.Tol{} // reset extractions always run exactly
	}
	cut, minimum := tol.WidenHi(best), MinimumTag(tag)
	kept := b.active[:0]
	for _, i := range b.active {
		nd := &b.ns[i]
		cmp := nd.key
		if minimum {
			cmp = order.Neg(cmp)
		}
		switch refDecide(cmp, cut, rng.NewCoin(b.seed, step, tag, uint(r), uint64(bound)), nd.id) {
		case refBid:
			send(nd.id, nd.key)
		case refStay:
			kept = append(kept, i)
		}
	}
	b.active = kept
}

// refDecide is protocol.Decide as refNodes.Round called it — the per-node
// step before it moved into the round kernel — verbatim but for the trial:
// the node's hit on a coin built for it alone.
type refVerdict uint8

const (
	refStay refVerdict = iota
	refBid
	refOut
)

func refDecide(key, cut order.Key, coin rng.Coin, id int) refVerdict {
	if cut > key {
		return refOut
	}
	if coin.Hit(uint64(id)) {
		return refBid
	}
	return refStay
}

// Winner tells node target it won the current reset, joining the top-k set
// when isTop is set.
func (b *refNodes) Winner(target int, isTop bool) {
	if isTop {
		b.node(target).inTop = true
	}
}

// Midpoint installs the canonical filter assignment around mid: [mid,
// +inf] for top-k members, [-inf, mid] for outsiders — or [-inf, +inf]
// everywhere when full is set (k == n).
func (b *refNodes) Midpoint(mid order.Key, full bool) {
	for i := range b.ns {
		nd := &b.ns[i]
		switch {
		case full:
			nd.iv = filter.Full()
		case nd.inTop:
			nd.iv = filter.AtLeast(mid)
		default:
			nd.iv = filter.AtMost(mid)
		}
	}
}

// ApplyBounds installs the ε-approximate band assignment: [lo, +inf] for
// top-k members, [-inf, hi] for outsiders (the node-side execution of
// coord.EffBounds / wire.ApproxBounds).
func (b *refNodes) ApplyBounds(lo, hi order.Key) {
	for i := range b.ns {
		nd := &b.ns[i]
		if nd.inTop {
			nd.iv = filter.AtLeast(lo)
		} else {
			nd.iv = filter.AtMost(hi)
		}
	}
}

// ResetBegin clears membership ahead of a FILTERRESET.
func (b *refNodes) ResetBegin() {
	for i := range b.ns {
		b.ns[i].inTop = false
	}
}

// OrderViolated checks node target's order filter (the ordered §5
// variant): it returns the node's current key and whether it left the
// filter.
func (b *refNodes) OrderViolated(target int) (key order.Key, violated bool) {
	nd := b.node(target)
	violated, _ = nd.ordIv.Violates(nd.key)
	return nd.key, violated
}

// SetOrderBounds installs node target's order filter [lo, hi].
func (b *refNodes) SetOrderBounds(target int, lo, hi order.Key) {
	b.node(target).ordIv = filter.Interval{Lo: lo, Hi: hi}
}
