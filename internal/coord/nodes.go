package coord

import (
	"cmp"
	"errors"
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
// internal/runtime, the leaves of internal/fanout's link engine, node
// hosts behind links or under a tree of relays — one Nodes per hosted
// range, and
// translates its substrate's commands into the methods below.
//
// The per-node state of the paper's node model — current value, membership
// knowledge from the last broadcast — is a value column indexed by id - Lo
// and a membership bitset: 3⅛ bytes per hosted node while every value the
// bank has held fits 24 bits, 4⅛ while every one fits int32, 6⅛ while every
// one fits 48 bits — always, from n = 2¹⁶ on, since the value domain does —
// and 8⅛ from the first that does not (Column). A node's key is
// re-derived where it is read, order.Codec.Encode's v·n + (n−1−id), one
// multiply-add; the filter is derived from the installed
// bounds (filter.Bounds) and the membership bit, and no function of the id
// is stored — the node's Bernoulli trials included, which are a function of
// the monitor's seed, the execution and the id (rng.Coin), not draws from a
// generator the node carries. Who violated its filter this
// step is two short lists (violTop, violOut), who is still in play during a
// protocol execution one bit per node in the view's in-play set (Round),
// empty between executions.
//
// So the coins are shared by construction: whichever bank hosts node i,
// built whenever — at the start, for a reassigned range after a failover,
// from a checkpoint — flips for it what any other would, which is what
// makes every engine charge the same ledger for a seed.
type Nodes struct {
	lo, hi int
	codec  order.Codec
	tol    order.Tol
	maxVal int64  // cached value-domain bound; Observe checks it per value
	seed   uint64 // keys the nodes' coins

	// col is the value column, shared with every Sub view; the view's
	// nodes are its entries from at on.
	col *Column
	at  int
	n   int  // hosted nodes
	sub bool // a Sub view: it never widens the column (Observe)
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
// monitor with the given protocol seed and tolerance (zero for exact
// monitoring). Keys are always the tie-break injection (order.Codec):
// distinct must be false and panics otherwise — the parameter is kept
// only because the benchmark harness calls NewNodes with it.
func NewNodes(n, lo, hi int, seed uint64, distinct bool, tol order.Tol) *Nodes {
	if distinct {
		panic("coord: the raw-value key domain is gone; keys are the tie-break injection")
	}
	if n <= 0 {
		panic("coord: need n > 0")
	}
	if lo < 0 || hi > n || lo >= hi {
		panic(fmt.Sprintf("coord: bad node range [%d, %d) of %d", lo, hi, n))
	}
	if hi-lo > math.MaxInt32 {
		panic(fmt.Sprintf("coord: node range [%d, %d) exceeds 2^31-1 hosted nodes", lo, hi))
	}
	return newBank(n, lo, hi, seed, tol, Tier24)
}

// newBank builds a bank over [lo, hi) with every value 0, its column at
// tier t, and every filter [-inf, +inf].
func newBank(n, lo, hi int, seed uint64, tol order.Tol, t Tier) *Nodes {
	inst, col := filter.Unbounded(), makeColumn(hi-lo, t)
	return &Nodes{
		lo:     lo,
		hi:     hi,
		codec:  order.NewCodec(n),
		tol:    tol,
		maxVal: order.MaxValueFor(n),
		seed:   seed,
		col:    &col,
		n:      hi - lo,
		top:    make([]uint64, (hi-lo+63)>>6),
		inst:   &inst,
	}
}

// Column is a value column: entry i is a value, held at the narrowest width
// that has held every value the column was given — its Tier: packed 24-bit
// entries (wire.Int24), 3 bytes, while every value fits 24 bits; int32, 4
// bytes, while every value fits int32; packed 48-bit ones (wire.Int48), 6
// bytes, while every value fits 48 bits; int64, 8 bytes, from the first
// that does not. A bank keeps its nodes' values in one, which every Sub
// view of it shares, and a link-backed coordinator keeps its mirror of what
// every bank holds in another (internal/fanout). A new column is every
// value 0, at Tier24, and it widens, for good, at the first value its tier
// does not hold — at most three times in its life. The value domain caps
// what a bank is given (order.MaxValueFor: below 2⁴⁷ from n = 2¹⁶ on), so a
// bank of 2¹⁶ or more nodes never reaches int64. Every loop over it is one
// generic implementation over the four widths (wire.Value).
type Column struct {
	n   int
	n24 []wire.Int24 // the column while every value fits 24 bits
	n32 []int32      // the column while every value fits int32, from the first that did not fit 24 bits
	n48 []wire.Int48 // the column while every value fits 48 bits, from the first that did not fit int32
	n64 []int64      // the column from the first value that did not fit 48 bits
}

// NewColumn returns a column of n entries, every one 0, at Tier24.
func NewColumn(n int) Column { return makeColumn(n, Tier24) }

// makeColumn returns a column of n entries, every one 0, at tier t.
func makeColumn(n int, t Tier) Column {
	switch t {
	case Tier64:
		return Column{n: n, n64: make([]int64, n)}
	case Tier48:
		return Column{n: n, n48: make([]wire.Int48, n)}
	case Tier32:
		return Column{n: n, n32: make([]int32, n)}
	}
	return Column{n: n, n24: make([]wire.Int24, n)}
}

// Tier is the width of a column's entries, in bytes: Tier24, Tier32, Tier48
// or Tier64.
type Tier uint8

// The column tiers.
const (
	Tier24 Tier = 3
	Tier32 Tier = 4
	Tier48 Tier = 6
	Tier64 Tier = 8
)

// fits reports whether v fits an entry of tier t: whether its 8t bytes,
// sign-extended, give v back.
func (t Tier) fits(v int64) bool {
	s := 64 - 8*uint(t)
	return v<<s>>s == v
}

// valueTier returns the narrowest tier that holds v.
func valueTier(v int64) Tier { return magTier(uint64(v ^ v>>63)) }

// magTier returns the narrowest tier that holds every value whose
// magnitude bits — v for v ≥ 0, −v−1 below — are at most m.
func magTier(m uint64) Tier {
	for _, t := range [...]Tier{Tier24, Tier32, Tier48} {
		if t.fits(int64(m)) {
			return t
		}
	}
	return Tier64
}

// Tier returns the width of the column's entries.
func (c *Column) Tier() Tier {
	switch {
	case c.n64 != nil:
		return Tier64
	case c.n48 != nil:
		return Tier48
	case c.n32 != nil:
		return Tier32
	}
	return Tier24
}

// widen gives the column tier t if it is narrower, keeping every value: one
// allocation, and a copy of the entries.
func (c *Column) widen(t Tier) {
	if t <= c.Tier() {
		return
	}
	w := makeColumn(c.n, t)
	switch t {
	case Tier32:
		copyColumn(w.n32, c)
	case Tier48:
		copyColumn(w.n48, c)
	default:
		copyColumn(w.n64, c)
	}
	*c = w
}

// copyColumn copies the entries of c into dst, a column as long and wider.
func copyColumn[W wire.Value](dst []W, c *Column) {
	wire.Copy(dst, c.n24)
	wire.Copy(dst, c.n32)
	wire.Copy(dst, c.n48)
}

// Int64s returns the entries of a column at Tier64, and nil otherwise.
func (c *Column) Int64s() []int64 { return c.n64 }

// Int48s returns the entries of a column at Tier48, and nil otherwise.
func (c *Column) Int48s() []wire.Int48 { return c.n48 }

// Int32s returns the entries of a column at Tier32, and nil otherwise.
func (c *Column) Int32s() []int32 { return c.n32 }

// Int24s returns the entries of a column at Tier24, and nil once it is
// wider.
func (c *Column) Int24s() []wire.Int24 { return c.n24 }

// Value returns entry i. It reads entry i's bytes alone.
func (c *Column) Value(i int) int64 {
	switch {
	case c.n64 != nil:
		return c.n64[i]
	case c.n48 != nil:
		return wire.Load(c.n48, i)
	case c.n32 != nil:
		return int64(c.n32[i])
	}
	return wire.Load(c.n24[i:i+1:i+1], 0)
}

// Put sets entries at to at+len(vals)-1 to vals, widening the column to the
// tier a value needs where it meets one its tier cannot hold.
func (c *Column) Put(at int, vals []int64) {
	for len(vals) > 0 {
		n := len(vals)
		switch {
		case c.n64 != nil:
			copy(c.n64[at:], vals)
		case c.n48 != nil:
			n = wire.StoreRun(c.n48[at:], vals, 1<<47)
		case c.n32 != nil:
			n = wire.StoreRun(c.n32[at:], vals, 1<<31)
		default:
			n = wire.StoreRun(c.n24[at:], vals, 1<<23)
		}
		if at, vals = at+n, vals[n:]; len(vals) > 0 {
			c.widen(valueTier(vals[0]))
		}
	}
}

// Set sets entry i to v, widening the column to the tier v needs if its
// tier cannot hold it.
func (c *Column) Set(i int, v int64) {
	switch {
	case c.n64 != nil:
		c.n64[i] = v
	case c.n48 != nil && Tier48.fits(v):
		wire.Store(c.n48, i, v)
	case c.n32 != nil && Tier32.fits(v):
		c.n32[i] = int32(v)
	case c.n24 != nil && Tier24.fits(v):
		wire.Store(c.n24, i, v)
	default:
		c.widen(valueTier(v))
		c.Set(i, v)
	}
}

// cells returns the entries of col, the bank's column at its tier, that
// hold the view's nodes. No load or store through them reaches another
// view's entries (wire.Load, wire.StoreRun), which another goroutine may
// be writing.
func cells[V wire.Value](b *Nodes, col []V) []V { return col[b.at : b.at+b.n] }

// scanTier returns the tier that holds every value of vals ahead of the
// first outside the value domain, and whether it met such a value, at which
// an observation of them stops. It looks 256 values at a time, without a
// branch a value, and at values one by one only in a block that holds one
// at or past the domain's ends; it stops at the domain's tier, which holds
// whatever follows: Tier48 from n = 2¹⁶ on, no value the bank takes needs
// more.
func (b *Nodes) scanTier(vals []int64) (t Tier, stopped bool) {
	t, top := Tier24, magTier(uint64(b.maxVal))
	for len(vals) > 0 && t < top {
		blk := vals[:min(256, len(vals))]
		vals = vals[len(blk):]
		var m uint64 // the magnitude bits of every value of blk (magTier)
		for _, v := range blk {
			m |= uint64(v ^ v>>63)
		}
		if m < uint64(b.maxVal) { // then every value lies in the domain
			t = max(t, magTier(m))
			continue
		}
		for _, v := range blk {
			if v > b.maxVal || v < -b.maxVal {
				return t, true
			}
			t = max(t, valueTier(v))
		}
	}
	return t, false
}

// Sub returns a view of the sub-range [lo, hi) sharing this bank's node
// state, installed bounds and order filters included. The parent covers
// construction cost once; disjoint views may then be driven from different
// goroutines (internal/runtime's shards), parked whenever an install is
// issued. What a view keeps to itself is the execution state of its range:
// its in-play set and its violator lists, so a violation cohort is made of
// the violations observed through the view that is asked. A view never
// widens the column it shares (Observe): the bank does, while every view
// is parked.
func (b *Nodes) Sub(lo, hi int) *Nodes {
	if lo < b.lo || hi > b.hi || lo >= hi {
		panic(fmt.Sprintf("coord: sub-range [%d, %d) outside [%d, %d)", lo, hi, b.lo, b.hi))
	}
	i, j := lo-b.lo, hi-b.lo
	p, q := b.off+uint(i), b.off+uint(j) // the view's bits in b.top
	w := (q + 63) >> 6
	return &Nodes{
		lo: lo, hi: hi, codec: b.codec, tol: b.tol, maxVal: b.maxVal, seed: b.seed,
		col: b.col, at: b.at + i, n: j - i, sub: true, top: b.top[p>>6 : w : w], off: p & 63,
		inst: b.inst, ord: b.ord,
	}
}

// Lo returns the first hosted node id.
func (b *Nodes) Lo() int { return b.lo }

// Hi returns one past the last hosted node id.
func (b *Nodes) Hi() int { return b.hi }

// Len returns the number of hosted nodes.
func (b *Nodes) Len() int { return b.n }

// Key returns node id's current key: its value under the tie-break
// injection.
func (b *Nodes) Key(id int) order.Key { return b.codec.Encode(b.value(b.index(id)), id) }

// InTop reports node id's membership bit (for invariant checks in tests).
func (b *Nodes) InTop(id int) bool { return b.inTop(b.index(id)) }

// Installed returns the bounds every hosted node's filter derives from:
// between steps, its coordinator's Machine.Installed.
func (b *Nodes) Installed() filter.Bounds { return *b.inst }

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
// bank's n — the codec capacity of the tie-break injection, which shrinks
// with n since keys are v·n + tiebreak.
func (b *Nodes) MaxValue() int64 { return b.maxVal }

// Encode maps observation v of node id into the key domain through the
// tie-break injection. A value whose magnitude exceeds MaxValue is
// rejected with a descriptive error: the injection would overflow and
// silently corrupt the order, so out-of-domain input must never reach the
// key domain.
func (b *Nodes) Encode(id int, v int64) (order.Key, error) {
	if v > b.maxVal || v < -b.maxVal {
		return 0, fmt.Errorf("coord: node %d value %d outside the value domain [-%d, %d] for %d nodes", id, v, b.maxVal, b.maxVal, b.codec.N())
	}
	return b.codec.Encode(v, id), nil
}

// value returns hosted node i's observation (what a checkpoint delta
// carries, and the baseline an observation frame's changes are added to).
func (b *Nodes) value(i int) int64 { return b.col.Value(b.at + i) }

// store sets hosted node i's value, which lies in the value domain,
// widening the column if v does not fit its tier. A Sub view does not: it
// stores nothing and returns false, since other views may be running over
// the column.
func (b *Nodes) store(i int, v int64) bool {
	if c := b.col; c.n24 != nil && Tier24.fits(v) {
		wire.Store(c.n24, b.at+i, v)
	} else if c.n32 != nil && Tier32.fits(v) {
		c.n32[b.at+i] = int32(v)
	} else if c.n48 != nil && Tier48.fits(v) {
		wire.Store(c.n48, b.at+i, v)
	} else if c.n64 != nil {
		c.n64[b.at+i] = v
	} else {
		return b.storeFirst(i, v)
	}
	return true
}

// storeFirst is store of a value the column's tier does not hold: a view
// refuses it, a bank widens its column.
func (b *Nodes) storeFirst(i int, v int64) bool {
	if b.sub {
		return false
	}
	b.col.Set(b.at+i, v)
	return true
}

// Widen widens the bank's column, for good, to the tier that holds every
// value of vals ahead of the first outside the value domain, if it is
// narrower: the step a host of Sub views takes, while every view is
// parked, when a view refuses a value of vals with ErrNarrow. The batch
// observed again then stores every value it takes.
func (b *Nodes) Widen(vals []int64) {
	t, _ := b.scanTier(vals)
	b.col.widen(t)
}

// ErrNarrow is the error a Sub view's Observe, ObserveDense and the like
// return at a value their column's tier cannot hold, having stored none of
// it: the bank widens its column (Widen) while every view is parked, and
// the view's batch is observed again. It is never an input's fault.
var ErrNarrow = errors.New("coord: a Sub view's column is narrower than a value it was given")

// Patch applies one checkpoint delta to a restored bank: vals[j] becomes
// node ids[j]'s observation. Every value must lie in the value domain;
// whether the keys sit inside their filters is checked once, on the state
// the whole chain restores (RestoreChain).
func (b *Nodes) Patch(ids []int, vals []int64) error {
	for j, id := range ids {
		if id < b.lo || id >= b.hi {
			return fmt.Errorf("coord: delta names node %d outside the hosted range [%d, %d)", id, b.lo, b.hi)
		}
		if _, err := b.Encode(id, vals[j]); err != nil {
			return err
		}
		b.store(id-b.lo, vals[j])
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
// Hosts that face a wire (internal/fanout's leaves) surface the
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
	// store, spelled out for the same reason.
	if c := b.col; c.n24 != nil && Tier24.fits(v) {
		wire.Store(c.n24, b.at+i, v)
	} else if c.n32 != nil && Tier32.fits(v) {
		c.n32[b.at+i] = int32(v)
	} else if c.n48 != nil && Tier48.fits(v) {
		wire.Store(c.n48, b.at+i, v)
	} else if c.n64 != nil {
		c.n64[b.at+i] = v
	} else if !b.storeFirst(i, v) {
		return false, false, ErrNarrow
	}
	key := b.codec.Encode(v, id)
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
// node i+j. It runs observeCells over the column at its tier, and again
// over the wider column for the values after one that widened it.
func (b *Nodes) observeRun(i int, vals []int64, step int64) (topViol, outViol bool, err error) {
	for len(vals) > 0 {
		var n int
		var t, o bool
		switch c := b.col; {
		case c.n64 != nil:
			n, t, o, err = observeCells(b, cells(b, c.n64)[i:], i, vals, step, b.maxVal)
		case c.n48 != nil:
			n, t, o, err = observeCells(b, cells(b, c.n48)[i:], i, vals, step, min(b.maxVal, 1<<47-1))
		case c.n32 != nil:
			n, t, o, err = observeCells(b, cells(b, c.n32)[i:], i, vals, step, min(b.maxVal, math.MaxInt32))
		default:
			n, t, o, err = observeCells(b, cells(b, c.n24)[i:], i, vals, step, min(b.maxVal, 1<<23-1))
		}
		topViol, outViol = topViol || t, outViol || o
		if err != nil {
			return topViol, outViol, err
		}
		i, vals = i+n, vals[n:]
	}
	return topViol, outViol, nil
}

// observeCells is the range kernel over a column of one width: cells[j] is
// hosted node i+j's entry. It runs in two loops, so that neither holds what
// the other needs: quiet finds the values that pass quietly, a run of them
// at a time, and wire.StoreRun stores that run. A value that lies within lim,
// the domain's bound and the width's, and inside its node's filter costs a
// multiplication and two comparisons, and the store of its entry. Any
// other value — a violator's, one outside the domain, or one the column's
// tier cannot hold — is handed to Observe, which does for it everything it
// does for a sparse update: the violator lists, the error and the widening
// are that code's, and the run stops at the first value it rejects, and
// after the first that widens the column it stores into. It returns how
// many values it took.
func observeCells[V wire.Value](b *Nodes, cells []V, i int, vals []int64, step int64, lim int64) (n int, topViol, outViol bool, err error) {
	tier := b.col.Tier()
	for j := 0; j < len(vals); j++ {
		q := j + b.quiet(i+j, vals[j:], lim)
		wire.StoreRun(cells[j:q], vals[j:q], math.MaxUint64)
		if j = q; j == len(vals) {
			break
		}
		t, o, err := b.Observe(b.lo+i+j, vals[j], step)
		if err != nil {
			return j, topViol, outViol, err
		}
		topViol, outViol = topViol || t, outViol || o
		if b.col.Tier() != tier {
			return j + 1, topViol, outViol, nil // the column widened under the run
		}
	}
	return len(vals), topViol, outViol, nil
}

// quiet returns how many of vals, the new values of hosted nodes i on, lie
// within lim and inside their nodes' filters, ahead of the first that does
// not. What a value's check needs that does not depend on the value — the
// installed bounds, the codec's multiplier and the run's tie-break base —
// is read once.
func (b *Nodes) quiet(i int, vals []int64, lim int64) int {
	inst := *b.inst
	mul := int64(b.codec.N())
	tie := mul - 1 - int64(b.lo+i) // order.Codec.Encode: v*n + (n-1-id)
	top, p := b.top, b.off+uint(i)
	for j, v := range vals {
		key := order.Key(v*mul + tie)
		tie--
		inTop := top[p>>6]>>(p&63)&1 != 0
		p++
		if v > lim || v < -lim || !holds(inst, inTop, key) {
			return j
		}
	}
	return len(vals)
}

// ObserveDense ingests one dense step for the whole hosted range — vals[i]
// is the new value of node Lo()+i — and reports whether any former top-k
// member and any outsider violated its filter: Observe for every hosted
// node in ascending id order, stopping at the first value outside the
// value domain.
func (b *Nodes) ObserveDense(vals []int64, step int64) (topViol, outViol bool, err error) {
	if len(vals) != b.n {
		panic(fmt.Sprintf("coord: %d values for the %d nodes of [%d, %d)", len(vals), b.n, b.lo, b.hi))
	}
	return b.observeRun(0, vals, step)
}

// ObserveStream is ObserveDense for a dense frame as it arrived: the
// frame carries each node's change from the value the bank holds (wire
// package comment), and the values are rebuilt from it a chunk at a time,
// never a column of their own. The frame must carry one change per hosted
// node, which is checked before the first store; whatever else is wrong
// with it — a malformed varint, a change that lands outside the value
// domain, bytes after the last change — is found where it lies, so the
// values ahead of it have been applied when the error comes back. A
// wire-facing host ends on that error, and the coordinator re-Assigns the
// range and rebuilds it from its mirror.
func (b *Nodes) ObserveStream(s *wire.ObserveStream) (topViol, outViol bool, err error) {
	if s.Len() != b.n {
		return false, false, fmt.Errorf("coord: observe frame carries %d values for range [%d, %d)", s.Len(), b.lo, b.hi)
	}
	var chunk [256]int64
	for i := 0; i < b.n; {
		n, rerr := s.Read(chunk[:])
		switch c := b.col; { // wraps as the coordinator's subtraction did
		case c.n64 != nil:
			addCells(chunk[:n], cells(b, c.n64)[i:])
		case c.n48 != nil:
			addCells(chunk[:n], cells(b, c.n48)[i:])
		case c.n32 != nil:
			addCells(chunk[:n], cells(b, c.n32)[i:])
		default:
			addCells(chunk[:n], cells(b, c.n24)[i:])
		}
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

// addCells adds each entry of cells to the change in dst beside it.
func addCells[V wire.Value](dst []int64, cells []V) {
	cells = cells[:len(dst)]
	for j := range dst {
		dst[j] += wire.Load(cells, j)
	}
}

// ObserveDeltaStream ingests a sparse frame as it arrived: Observe for
// every (id, change) pair it carries, read from the frame's bytes, at the
// value the change leads to from the node's own. An id outside the hosted
// range is an error; like any other it is found where it lies (see
// ObserveStream).
func (b *Nodes) ObserveDeltaStream(s *wire.DeltaStream) (topViol, outViol bool, err error) {
	for s.Len() > 0 {
		id, change, err := s.Next()
		if err != nil {
			return topViol, outViol, err
		}
		if id < b.lo || id >= b.hi {
			return topViol, outViol, fmt.Errorf("coord: delta id %d outside range [%d, %d)", id, b.lo, b.hi)
		}
		t, o, err := b.Observe(id, b.value(id-b.lo)+change, s.Step)
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
// true key. No engine runs an execution through it — every host runs one
// whole (Run); it is the per-round step that the round-kernel benchmark
// (benchmark/layers.go) and the reference tests drive.
//
// Round 0 enlists the cohort — each node evaluates its membership locally,
// a word of the membership bitset (or its complement, or all ones) to a word
// of the in-play set, or in a violation cohort the step's violators of its
// side alone — so banks need no per-execution setup call,
// and whatever an abandoned execution left in play is overwritten; every
// round is then one pass of the round kernel (protocol.Field.Round) over
// the members still in play. The round's coin is keyed by (seed, step,
// tag, r): every input a host is handed with the command, so no host keeps
// anything for it.
func (b *Nodes) Round(tag uint8, r int, best order.Key, bound int, step int64, send func(id int, key order.Key)) {
	b.round(tag, r, best, bound, step, ExecTol(tag, b.tol), send)
}

// Run runs one whole protocol execution over the hosted members of cohort
// tag on ex, which the caller has begun (protocol.Exec.Begin) with the
// population bound, the recorder and the trace the execution charges:
// every round of it, each against the cut ex has kept so far, the winners
// left in ex. It is the round loop of protocol.Exec over Round, and every
// host that runs an execution runs it.
//
// With a log, the execution is the host's share of one its coordinator
// replays against the true cut (protocol.Exec.Replay), and every bid is
// also written to log with its round. Its rounds then run exactly, as
// Replay requires: against the host's own cut, a tolerant round could
// retire a node the true cut lets send.
func (b *Nodes) Run(tag uint8, step int64, ex *protocol.Exec, log *wire.BidLogWriter) {
	tol, send := ExecTol(tag, b.tol), ex.Bid
	if log != nil {
		tol = order.Tol{}
		send = func(id int, key order.Key) {
			ex.Bid(id, key)
			log.Add(ex.Round(), id, int64(key))
		}
	}
	for ex.More() {
		b.round(tag, ex.Round(), ex.Best(), ex.Bound(), step, tol, send)
		ex.EndRound()
	}
}

// round is Round with the tolerance decided by the caller.
func (b *Nodes) round(tag uint8, r int, best order.Key, bound int, step int64, tol order.Tol, send func(id int, key order.Key)) {
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
			b.inPlay.Enlist(b.n, nil)
			for _, i := range viol {
				b.inPlay.Add(int(i))
			}
		case TagHandMin:
			b.inPlay.Fill(b.n, b.topWord)
		case TagHandMax:
			b.inPlay.Fill(b.n, func(w int) uint64 { return ^b.topWord(w) })
		case TagReset:
			b.inPlay.Fill(b.n, func(int) uint64 { return ^uint64(0) })
		}
	}
	coin := rng.NewCoin(b.seed, step, tag, uint(r), uint64(bound))
	cut, minimum := tol.WidenHi(best), MinimumTag(tag)
	mul := int64(b.codec.N())
	tie := mul - 1 - int64(b.lo) // node i's key: its value·n + (n−1−(lo+i))
	switch c := b.col; {
	case c.n64 != nil:
		protocol.Field[int64]{Vals: cells(b, c.n64), Mul: mul, Tie: tie}.Round(&b.inPlay, &coin, cut, minimum, b.lo, send)
	case c.n48 != nil:
		protocol.Field[wire.Int48]{Vals: cells(b, c.n48), Mul: mul, Tie: tie}.Round(&b.inPlay, &coin, cut, minimum, b.lo, send)
	case c.n32 != nil:
		protocol.Field[int32]{Vals: cells(b, c.n32), Mul: mul, Tie: tie}.Round(&b.inPlay, &coin, cut, minimum, b.lo, send)
	default:
		protocol.Field[wire.Int24]{Vals: cells(b, c.n24), Mul: mul, Tie: tie}.Round(&b.inPlay, &coin, cut, minimum, b.lo, send)
	}
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
	p, q := b.off, b.off+uint(b.n) // the hosted bits of b.top
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
	key = b.Key(target)
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
