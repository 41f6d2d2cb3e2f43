package coord

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/filter"
	"repro/internal/order"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/wire"
)

// Nodes hosts the node-side state of a contiguous id range [Lo, Hi) of an
// n-node monitor: the sans-I/O dual of Machine, and the only node side
// there is. Every substrate hosts its nodes in one — the sequential engine
// of internal/core (all n of them), the shard goroutines of
// internal/runtime, the peer processes of internal/netrun, the shard
// sub-coordinators of internal/shardrun — one Nodes per hosted range, and
// translates its substrate's commands into the methods below.
//
// The per-node state of the paper's node model — current key, membership
// knowledge from the last broadcast — is a key column indexed by id - Lo and
// a membership bitset, 8⅛ bytes per hosted node: the filter is derived from
// the installed bounds (filter.Bounds) and the membership bit, and no
// function of the id is stored — the node's Bernoulli trials included, which
// are a function of the monitor's seed, the execution and the id (rng.Coin),
// not draws from a generator the node carries. Who violated its filter this
// step is two short lists (violTop, violOut), who is still in play during a
// protocol execution one bit per node in the view's in-play set (Round),
// empty between executions.
//
// So the coins are shared by construction: whichever bank hosts node i,
// built whenever — at the start, for a reassigned range after a failover,
// from a checkpoint — flips for it what any other would, which is what
// makes every engine charge the same ledger for a seed.
type Nodes struct {
	lo, hi   int
	distinct bool
	codec    order.Codec
	tol      order.Tol
	maxVal   int64  // cached value-domain bound; Observe checks it per value
	seed     uint64 // keys the nodes' coins

	keys []order.Key
	// top is the membership bitset from the last broadcast: hosted node i is
	// bit (off+i)&63 of top[(off+i)>>6]. Sub views share the words of their
	// range with the bank they were taken of, so a view whose range does not
	// start on a word boundary has off > 0, and a word may hold the bits of
	// two views. Only the coordinator's side writes it (Winner, ResetBegin,
	// restore), while every view is parked; the filter checks and rounds
	// running in views at once only read it.
	top  []uint64
	off  uint
	inst *filter.Bounds // shared with every Sub view

	// ord holds the ordered §5 variant's order filters, allocated only by
	// EnableOrderFilters and shared with every Sub view; nil means every
	// order filter is [-inf, +inf].
	ord *orderTable

	// violTop and violOut list, by index, the nodes whose filter check
	// failed at step violAt through this view, split by the node's
	// membership when it failed: the cohorts of TagViolMin and TagViolMax.
	// A node's violation is only ever compared with the current step, so no
	// node keeps a stamp: the first violation of another step empties both
	// lists, and Round ignores lists filled at another step than the one it
	// is asked about. Membership changes only between one step's filter
	// checks and the next step's, so a node is never on both lists.
	violTop, violOut []int32
	violAt           int64

	// inPlay is the running execution's set of hosted cohort members
	// still in play. Round enlists it at round 0 and every round clears the
	// members that bid or drop out; it is per view (Sub views of one bank
	// run their ranges' rounds independently) and allocated on first use.
	inPlay protocol.InPlay
}

// NewNodes builds the node state for the range [lo, hi) of an n-node
// monitor with the given protocol seed, tie-break mode and tolerance
// (zero for exact monitoring).
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
	b := newBank(n, lo, hi, seed, distinct, tol)
	if !distinct {
		for i := range b.keys {
			b.keys[i] = b.codec.Encode(0, lo+i)
		}
	}
	return b
}

// newBank allocates a bank over [lo, hi) with every filter [-inf, +inf];
// the caller fills the keys.
func newBank(n, lo, hi int, seed uint64, distinct bool, tol order.Tol) *Nodes {
	inst := filter.Unbounded()
	return &Nodes{
		lo:       lo,
		hi:       hi,
		distinct: distinct,
		codec:    order.NewCodec(n),
		tol:      tol,
		maxVal:   order.MaxValueFor(n, distinct),
		seed:     seed,
		keys:     make([]order.Key, hi-lo),
		top:      make([]uint64, (hi-lo+63)>>6),
		inst:     &inst,
	}
}

// Sub returns a view of the sub-range [lo, hi) sharing this bank's node
// state, installed bounds and order filters included. The parent covers
// construction cost once; disjoint views may then be driven from different
// goroutines (internal/runtime's shards), parked whenever an install is
// issued. What a view keeps to itself is the execution state of its range:
// its in-play set and its violator lists, so a violation cohort is made of
// the violations observed through the view that is asked.
func (b *Nodes) Sub(lo, hi int) *Nodes {
	if lo < b.lo || hi > b.hi || lo >= hi {
		panic(fmt.Sprintf("coord: sub-range [%d, %d) outside [%d, %d)", lo, hi, b.lo, b.hi))
	}
	i, j := lo-b.lo, hi-b.lo
	p, q := b.off+uint(i), b.off+uint(j) // the view's bits in b.top
	w := (q + 63) >> 6
	return &Nodes{
		lo: lo, hi: hi, distinct: b.distinct, codec: b.codec, tol: b.tol, maxVal: b.maxVal, seed: b.seed,
		keys: b.keys[i:j:j], top: b.top[p>>6 : w : w], off: p & 63,
		inst: b.inst, ord: b.ord,
	}
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

// inTop reports hosted node i's membership bit.
func (b *Nodes) inTop(i int) bool {
	p := b.off + uint(i)
	return b.top[p>>6]>>(p&63)&1 != 0
}

// setTop sets hosted node i's membership bit.
func (b *Nodes) setTop(i int) {
	p := b.off + uint(i)
	b.top[p>>6] |= 1 << (p & 63)
}

// topWord returns the membership bits of hosted nodes 64w to 64w+63, node
// 64w+j's as bit j: the bitset's words funnel-shifted by the view's offset.
// Bits past the last hosted node are another view's, or zero.
func (b *Nodes) topWord(w int) uint64 {
	if b.off == 0 {
		return b.top[w]
	}
	word := b.top[w] >> b.off
	if w+1 < len(b.top) {
		word |= b.top[w+1] << (64 - b.off)
	}
	return word
}

// MaxValue returns the largest observation magnitude the bank accepts
// (symmetrically, -MaxValue is the smallest): order.MaxValueFor of the
// bank's configuration — the codec capacity for the default tie-break
// injection, which shrinks with n since keys are v·n + tiebreak, or the
// sentinel-free int64 range in DistinctValues mode.
func (b *Nodes) MaxValue() int64 { return b.maxVal }

// Encode maps observation v of node id into the key domain: the tie-break
// injection, or the value itself in DistinctValues mode. A value whose
// magnitude exceeds MaxValue is rejected with a descriptive error: the
// injection would overflow (or, in DistinctValues mode, collide with the
// ±∞ sentinels) and silently corrupt the order, so out-of-domain input
// must never reach the key domain.
func (b *Nodes) Encode(id int, v int64) (order.Key, error) {
	if v > b.maxVal || v < -b.maxVal {
		return 0, fmt.Errorf("coord: node %d value %d outside the value domain [-%d, %d] for %d nodes", id, v, b.maxVal, b.maxVal, b.codec.N())
	}
	if b.distinct {
		return order.Key(v), nil
	}
	return b.codec.Encode(v, id), nil
}

// value returns the observation behind hosted node i's key: the key with
// the tie-break injection taken out (what a checkpoint delta carries).
func (b *Nodes) value(i int) int64 {
	if b.distinct {
		return int64(b.keys[i])
	}
	return b.codec.Value(b.keys[i], b.lo+i)
}

// Patch applies one checkpoint delta to a restored bank: vals[j] becomes
// node ids[j]'s observation. A delta spans steps in which nobody violated,
// so every value must lie in the value domain and inside the filter the
// node's membership bit derives from the installed bounds; one that does
// not is ErrFilterState, as for a key of the bank frame itself.
func (b *Nodes) Patch(ids []int, vals []int64) error {
	for j, id := range ids {
		if id < b.lo || id >= b.hi {
			return fmt.Errorf("coord: delta names node %d outside the hosted range [%d, %d)", id, b.lo, b.hi)
		}
		key, err := b.Encode(id, vals[j])
		if err != nil {
			return err
		}
		i := id - b.lo
		if iv := b.inst.Interval(b.inTop(i)); !iv.Contains(key) {
			return fmt.Errorf("%w: node %d key %d outside its filter %s", ErrFilterState, id, key, iv)
		}
		b.keys[i] = key
	}
	return nil
}

// holds reports whether key lies inside the filter a node derives from the
// installed bounds and its membership — Algorithm 1 line 3, the check every
// node makes on every observation: [Lo, +inf] for a top-k member, [-inf, Hi]
// for an outsider, the ends a tolerance's install has already widened.
func holds(inst filter.Bounds, inTop bool, key order.Key) bool {
	if inTop {
		return key >= inst.Lo
	}
	return key <= inst.Hi
}

// Observe ingests one observation for node id at the given step, runs the
// node-local filter check, and reports whether the node violated as a
// former top-k member (topViol) or as an outsider (outViol). A value
// outside the value domain (Encode) is rejected before any state changes.
// Hosts that face a wire (internal/netrun, internal/shardrun) surface the
// error instead of panicking. It is the sparse entry point, one call per
// touched node; a dense run goes through ObserveDense or ObserveStream and
// reaches it only for the values that do not pass quietly.
func (b *Nodes) Observe(id int, v int64, step int64) (topViol, outViol bool, err error) {
	i := b.index(id)
	// Encode, spelled out: its call is a quarter of a violation-free
	// observation, which every engine makes once per value.
	if v > b.maxVal || v < -b.maxVal {
		_, err = b.Encode(id, v)
		return false, false, err
	}
	key := order.Key(v)
	if !b.distinct {
		key = b.codec.Encode(v, id)
	}
	b.keys[i] = key
	inTop := b.inTop(i)
	if holds(*b.inst, inTop, key) {
		return false, false, nil
	}
	if b.violAt != step {
		b.violTop, b.violOut, b.violAt = b.violTop[:0], b.violOut[:0], step
	}
	if inTop {
		b.violTop = listViolator(b.violTop, int32(i))
	} else {
		b.violOut = listViolator(b.violOut, int32(i))
	}
	return inTop, !inTop, nil
}

// listViolator appends hosted node i to a violator list. A node that
// violates again at the same step is listed again — round 0 enlists a
// list's nodes into a set — but a full list is sorted and compacted before
// it grows, so a caller that observes the same nodes over and over at one
// step holds at most about twice as many entries as it has violators.
func listViolator(list []int32, i int32) []int32 {
	if len(list) == cap(list) && len(list) > 0 {
		slices.Sort(list)
		if list = slices.Compact(list); len(list) > cap(list)/2 {
			list = slices.Grow(list, len(list))
		}
	}
	return append(list, i)
}

// observeRun is the dense range kernel: vals[j] is the new value of hosted
// node i+j. What a value's check needs that does not depend on the value —
// the installed bounds, the codec's multiplier and the run's tie-break
// base, the domain bound — is read once, so a value that lies in the domain
// and inside its node's filter costs a multiplication, two comparisons and
// the store of its key. Any other value — a violator's, or one outside the
// domain — is handed to Observe, which does for it everything it does for a
// sparse update: the violator lists and the error are that code's, and the
// run stops at the first value it rejects.
func (b *Nodes) observeRun(i int, vals []int64, step int64) (topViol, outViol bool, err error) {
	inst, maxVal := *b.inst, b.maxVal
	mul, tie, dec := int64(1), int64(0), int64(0) // DistinctValues: the key is the value
	if !b.distinct {
		mul = int64(b.codec.N())
		tie, dec = mul-1-int64(b.lo+i), 1 // order.Codec.Encode: v*n + (n-1-id)
	}
	keys, top, p := b.keys[i:][:len(vals)], b.top, b.off+uint(i)
	for j, v := range vals {
		key := order.Key(v*mul + tie)
		tie -= dec
		inTop := top[p>>6]>>(p&63)&1 != 0
		p++
		if v <= maxVal && v >= -maxVal && holds(inst, inTop, key) {
			keys[j] = key
			continue
		}
		t, o, err := b.Observe(b.lo+i+j, v, step)
		if err != nil {
			return topViol, outViol, err
		}
		topViol, outViol = topViol || t, outViol || o
	}
	return topViol, outViol, nil
}

// ObserveDense ingests one dense step for the whole hosted range — vals[i]
// is the new value of node Lo()+i — and reports whether any former top-k
// member and any outsider violated its filter: Observe for every hosted
// node in ascending id order, stopping at the first value outside the
// value domain.
func (b *Nodes) ObserveDense(vals []int64, step int64) (topViol, outViol bool, err error) {
	if len(vals) != len(b.keys) {
		panic(fmt.Sprintf("coord: %d values for the %d nodes of [%d, %d)", len(vals), len(b.keys), b.lo, b.hi))
	}
	return b.observeRun(0, vals, step)
}

// ObserveStream is ObserveDense for a dense frame as it arrived: the
// values are read from the frame's bytes a chunk at a time and never exist
// as a column. The frame must carry one value per hosted node, which is
// checked before the first store; whatever else is wrong with it — a
// malformed varint, a value outside the domain, bytes after the last value
// — is found where it lies, so the values ahead of it have been applied
// when the error comes back. A wire-facing host ends on that error, and
// the coordinator rebuilds the range from its mirror.
func (b *Nodes) ObserveStream(s *wire.ObserveStream) (topViol, outViol bool, err error) {
	if s.Len() != len(b.keys) {
		return false, false, fmt.Errorf("coord: observe frame carries %d values for range [%d, %d)", s.Len(), b.lo, b.hi)
	}
	var chunk [256]int64
	for i := 0; i < len(b.keys); {
		n, rerr := s.Read(chunk[:])
		t, o, err := b.observeRun(i, chunk[:n], s.Step)
		topViol, outViol = topViol || t, outViol || o
		if err == nil {
			err = rerr
		}
		if err != nil {
			return topViol, outViol, err
		}
		i += n
	}
	return topViol, outViol, s.Close()
}

// ObserveDeltaStream ingests a sparse frame as it arrived: Observe for
// every (id, value) pair it carries, read from the frame's bytes. An id
// outside the hosted range is an error; like any other it is found where
// it lies (see ObserveStream).
func (b *Nodes) ObserveDeltaStream(s *wire.DeltaStream) (topViol, outViol bool, err error) {
	for s.Len() > 0 {
		id, v, err := s.Next()
		if err != nil {
			return topViol, outViol, err
		}
		if id < b.lo || id >= b.hi {
			return topViol, outViol, fmt.Errorf("coord: delta id %d outside range [%d, %d)", id, b.lo, b.hi)
		}
		t, o, err := b.Observe(id, v, s.Step)
		if err != nil {
			return topViol, outViol, err
		}
		topViol, outViol = topViol || t, outViol || o
	}
	return topViol, outViol, s.Close()
}

// Round runs round r of one protocol execution (protocol.Exec) over the
// hosted members of cohort tag, with the given population bound, against
// the cut broadcast so far — the best value, or the want-th best of an
// execution that wants several (in the execution's comparison domain).
// Every node that sends is reported to send in ascending id order with its
// true key.
//
// Round 0 enlists the cohort — each node evaluates its membership locally,
// a word of the membership bitset (or its complement, or all ones) to a word
// of the in-play set, or in a violation cohort the step's violators of its
// side alone — so banks need no per-execution setup call,
// and whatever an abandoned execution left in play is overwritten; every
// round is then one pass of the round kernel (protocol.Field.Round) over
// the members still in play. A bank that first sees an execution at a
// round r > 0 (it joined mid-execution) has nobody in play for it and
// nobody bids. The round's coin is keyed by (seed, step, tag, r): every
// input a host is handed with the command, so no host keeps anything for it.
func (b *Nodes) Round(tag uint8, r int, best order.Key, bound int, step int64, send func(id int, key order.Key)) {
	if bound <= 0 {
		panic("coord: protocol round with a non-positive population bound")
	}
	if !ValidTag(tag) {
		panic(fmt.Sprintf("coord: unknown protocol tag %d", tag))
	}
	if r == 0 {
		switch tag {
		case TagViolMin, TagViolMax:
			viol := b.violOut
			if tag == TagViolMin {
				viol = b.violTop
			}
			if b.violAt != step {
				viol = nil // the lists are another step's: nobody here violated at this one
			}
			b.inPlay.Enlist(len(b.keys), nil)
			for _, i := range viol {
				b.inPlay.Add(int(i))
			}
		case TagHandMin:
			b.inPlay.Fill(len(b.keys), b.topWord)
		case TagHandMax:
			b.inPlay.Fill(len(b.keys), func(w int) uint64 { return ^b.topWord(w) })
		case TagReset:
			b.inPlay.Fill(len(b.keys), func(int) uint64 { return ^uint64(0) })
		}
	}
	tol := b.tol
	if !TolerantTag(tag) {
		tol = order.Tol{} // a reset's execution always runs exactly
	}
	coin := rng.NewCoin(b.seed, step, tag, uint(r), uint64(bound))
	protocol.Field{Keys: b.keys}.Round(&b.inPlay, &coin, tol.WidenHi(best), MinimumTag(tag), b.lo, send)
}

// Winner tells node target what the running reset's execution made of it:
// a member of the top-k set when isTop is set, else nothing it does not
// know.
func (b *Nodes) Winner(target int, isTop bool) {
	if i := b.index(target); isTop {
		b.setTop(i)
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

// ResetBegin clears membership ahead of a FILTERRESET: a clear of the
// bitset's words, n/64 of them for a bank of n. On a view it clears the
// view's bits alone, and like Winner it runs while every other view of the
// bank is parked.
func (b *Nodes) ResetBegin() {
	p, q := b.off, b.off+uint(len(b.keys)) // the hosted bits of b.top
	for w := range b.top {
		mask := ^uint64(0)
		if w == 0 {
			mask <<= p
		}
		if end := uint(w+1) << 6; end > q {
			mask &= 1<<(q&63) - 1
		}
		b.top[w] &^= mask
	}
}

// orderTable is the node side of the ordered mode for a whole bank: the
// order filter of every node that was sent one, ascending by id. Only the k
// members hold one at a time, so the table is k entries, not a column: a
// FILTERRESET re-sends every member its filter (coord/ordered.go), and the
// first of those installs to find the table full drops what it holds for
// nodes that are members no longer. Views share it the way they share the
// installed bounds: checks and installs are unicast, issued while every
// other view is parked.
type orderTable struct {
	ent  []orderEntry
	bank *Nodes // the bank it was enabled on, for the membership of an entry's node
}

type orderEntry struct {
	id int
	iv filter.Interval
}

// find returns the position of node id's entry, or where it would go.
func (t *orderTable) find(id int) (int, bool) {
	return slices.BinarySearchFunc(t.ent, id, func(e orderEntry, id int) int { return cmp.Compare(e.id, id) })
}

// EnableOrderFilters gives the bank its order-filter table, sized for the k
// members of an ordered monitor and empty: every order filter [-inf, +inf].
// It is called before Sub views are taken; a view taken earlier would not
// share the table.
func (b *Nodes) EnableOrderFilters(k int) {
	if b.ord == nil {
		b.ord = &orderTable{ent: make([]orderEntry, 0, k), bank: b}
	}
}

// OrderFilter returns the order filter node id holds: [-inf, +inf] unless
// the table has one for it.
func (b *Nodes) OrderFilter(id int) filter.Interval {
	b.index(id)
	if b.ord != nil {
		if i, ok := b.ord.find(id); ok {
			return b.ord.ent[i].iv
		}
	}
	return filter.Full()
}

// OrderViolated checks node target's order filter: it returns the node's
// current key and whether it left the filter.
func (b *Nodes) OrderViolated(target int) (key order.Key, violated bool) {
	key = b.keys[b.index(target)]
	violated, _ = b.OrderFilter(target).Violates(key)
	return key, violated
}

// SetOrderBounds installs node target's order filter [lo, hi]. It panics
// on a bank whose order filters were never enabled.
func (b *Nodes) SetOrderBounds(target int, lo, hi order.Key) {
	t := b.ord
	if t == nil {
		panic("coord: SetOrderBounds without EnableOrderFilters")
	}
	b.index(target)
	i, ok := t.find(target)
	if !ok {
		if len(t.ent) == cap(t.ent) {
			t.ent = slices.DeleteFunc(t.ent, func(e orderEntry) bool { return !t.bank.inTop(e.id - t.bank.lo) })
			i, _ = t.find(target)
		}
		t.ent = slices.Insert(t.ent, i, orderEntry{id: target})
	}
	t.ent[i].iv = filter.Interval{Lo: lo, Hi: hi}
}
