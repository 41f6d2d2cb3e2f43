// Package filter implements the filter formalism of the paper's §2.2: each
// node is assigned an interval (its filter) such that, as long as every
// node's observation stays inside its interval, the set of top-k positions
// cannot change and no communication is necessary.
//
// Lemma 2.2 characterizes valid filter assignments: every top-k node's
// lower bound must be at or above every non-top-k node's upper bound. Set
// is that characterization as a predicate over a whole assignment
// (Validate, and ValidateEps for the ε mode): no engine keeps one as its
// state — the nodes' filters live in their bank (coord.Nodes) as Bounds
// and a membership bit each — but a checkpoint restore builds one to
// refuse filters the algorithm could not have installed, and the monitors'
// tests and soak runs assemble one per step as their invariant.
package filter

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/order"
)

// Interval is an inclusive interval [Lo, Hi] over the key domain, with
// order.NegInf / order.PosInf playing the roles of −∞ / +∞.
type Interval struct {
	Lo, Hi order.Key
}

// Full returns the unconstrained interval [−∞, +∞].
func Full() Interval { return Interval{Lo: order.NegInf, Hi: order.PosInf} }

// AtLeast returns [m, +∞], the filter shape the monitor assigns to top-k
// nodes.
func AtLeast(m order.Key) Interval { return Interval{Lo: m, Hi: order.PosInf} }

// AtMost returns [−∞, m], the filter shape for non-top-k nodes.
func AtMost(m order.Key) Interval { return Interval{Lo: order.NegInf, Hi: m} }

// Band returns the (1±ε) tolerance band around threshold th as an
// interval [WidenLo(th), WidenHi(th)]. In the ε-approximate mode the
// coordinator anchors filters on a band instead of a point midpoint:
// top-k nodes install [Band.Lo, +∞], outsiders [−∞, Band.Hi], so values
// may drift an ε fraction across the threshold before any communication
// happens. At ε = 0 the band collapses to the point [th, th].
func Band(th order.Key, tol order.Tol) Interval {
	return Interval{Lo: tol.WidenLo(th), Hi: tol.WidenHi(th)}
}

// Contains reports whether key k lies in the interval.
func (iv Interval) Contains(k order.Key) bool { return iv.Lo <= k && k <= iv.Hi }

// Violates reports whether observing key k breaks the filter, together
// with the side that broke: below is true when k < Lo, false when k > Hi.
// When the filter holds, the boolean violation flag is false.
func (iv Interval) Violates(k order.Key) (violated, below bool) {
	switch {
	case k < iv.Lo:
		return true, true
	case k > iv.Hi:
		return true, false
	default:
		return false, false
	}
}

// String renders the interval with ∞ glyphs for the sentinels.
func (iv Interval) String() string {
	lo, hi := "-inf", "+inf"
	if iv.Lo != order.NegInf {
		lo = fmt.Sprintf("%d", iv.Lo)
	}
	if iv.Hi != order.PosInf {
		hi = fmt.Sprintf("%d", iv.Hi)
	}
	return fmt.Sprintf("[%s, %s]", lo, hi)
}

// Bounds is the filter state of a whole population. Algorithm 1 only ever
// broadcasts one or two numbers — [Lo, +∞] for top-k members, [−∞, Hi] for
// the rest, Lo == Hi at ε = 0 — and every node derives its filter from its
// membership bit, so whoever holds filters (Set, coord.Nodes) stores the
// broadcast and the bits, not n intervals, and an install is one store.
// Before the first install and when k == n the bounds are Unbounded.
//
// A derived filter moves the moment a membership bit does, where a stored
// one went stale until the next install. Nobody can tell: membership only
// changes inside a step's FILTERRESET, and the step accepts no observation
// before the install that closes it.
type Bounds struct {
	Lo, Hi order.Key
}

// Unbounded returns the bounds under which every filter is [−∞, +∞].
func Unbounded() Bounds { return Bounds{Lo: order.NegInf, Hi: order.PosInf} }

// Interval returns the filter of a node with the given membership.
func (b Bounds) Interval(inTop bool) Interval {
	if inTop {
		return AtLeast(b.Lo)
	}
	return AtMost(b.Hi)
}

// Set is a filter assignment for n nodes — the installed Bounds — plus the
// top-k membership the assignment encodes: what Lemma 2.2 is checked
// against (see the package comment).
//
// The membership is kept in two synchronized representations: a per-node
// boolean (for O(1) InTop checks) and a sorted id slice maintained
// incrementally by SetMembership so that Top never has to scan or
// allocate.
type Set struct {
	bounds Bounds
	inTop  []bool
	top    []int // current membership, ascending; alias returned by Top
	tmp    []int // scratch for SetMembership (swapped with top)
	gen    uint64
	k      int
}

// NewSet creates a filter set for n nodes with all filters [−∞, +∞] and an
// empty top-k set of nominal size k. It panics unless 1 <= k <= n.
func NewSet(n, k int) *Set {
	if n <= 0 {
		panic("filter: set needs n > 0")
	}
	if k < 1 || k > n {
		panic("filter: set needs 1 <= k <= n")
	}
	return &Set{
		bounds: Unbounded(),
		inTop:  make([]bool, n),
		top:    make([]int, 0, k),
		tmp:    make([]int, 0, k),
		k:      k,
	}
}

// N returns the number of nodes.
func (s *Set) N() int { return len(s.inTop) }

// K returns the nominal top-k size.
func (s *Set) K() int { return s.k }

// Interval returns node id's current filter: [−∞, +∞] before the first
// install and when k == n, else the installed bound on the node's side.
func (s *Set) Interval(id int) Interval { return s.bounds.Interval(s.inTop[id]) }

// Bounds returns the installed bounds every filter derives from.
func (s *Set) Bounds() Bounds { return s.bounds }

// InTop reports whether node id is recorded as a top-k member.
func (s *Set) InTop(id int) bool { return s.inTop[id] }

// SetMembership replaces the top-k membership with exactly the ids in top
// (in any order). It panics if len(top) != k, an id repeats, or an id is
// out of range. The input slice is not retained. The set's generation
// counter advances only when the membership actually changes, so callers
// can detect top-k changes without copying or comparing id slices.
func (s *Set) SetMembership(top []int) {
	if len(top) != s.k {
		panic(fmt.Sprintf("filter: membership size %d, want k=%d", len(top), s.k))
	}
	s.tmp = append(s.tmp[:0], top...)
	sort.Ints(s.tmp)
	for i, id := range s.tmp {
		if id < 0 || id >= len(s.inTop) {
			panic("filter: membership id out of range")
		}
		if i > 0 && id == s.tmp[i-1] {
			panic("filter: duplicate membership id")
		}
	}
	if slices.Equal(s.tmp, s.top) {
		return // unchanged; inTop flags and generation stay as they are
	}
	for _, id := range s.top {
		s.inTop[id] = false
	}
	for _, id := range s.tmp {
		s.inTop[id] = true
	}
	s.top, s.tmp = s.tmp, s.top
	s.gen++
}

// Top returns the current top-k ids in ascending order. The returned slice
// is a read-only view owned by the set and is invalidated by the next
// SetMembership call; use AppendTop for a copy that survives.
func (s *Set) Top() []int { return s.top }

// AppendTop appends the current top-k ids (ascending) to dst and returns
// the extended slice. With a dst of capacity >= K it performs no
// allocation.
func (s *Set) AppendTop(dst []int) []int { return append(dst, s.top...) }

// Generation returns a counter that advances exactly when SetMembership
// installs a membership different from the previous one. A fresh set
// starts at generation 0 with an empty membership.
func (s *Set) Generation() uint64 { return s.gen }

// AssignMidpoint installs the canonical assignment of Algorithm 1 around
// midpoint m: [m, +∞] for current top-k members, [−∞, m] for the rest.
// With k == n there is no outside node, so every filter becomes [−∞, +∞]
// and the monitor never communicates again — the degenerate case discussed
// in DESIGN.md.
func (s *Set) AssignMidpoint(m order.Key) { s.AssignBand(m, m) }

// AssignBand is the ε-approximate generalization of AssignMidpoint: it
// installs [lo, +∞] for current top-k members and [−∞, hi] for the rest,
// where [lo, hi] is a tolerance band (see Band) around the separating
// threshold. With k == n every filter becomes [−∞, +∞] as in the exact
// assignment.
func (s *Set) AssignBand(lo, hi order.Key) {
	s.bounds = Bounds{Lo: lo, Hi: hi}
	if s.k == len(s.inTop) {
		s.bounds = Unbounded()
	}
}

// Keys is a population's current keys by node id: a key column (Column),
// or a node bank, which derives each key from the value it holds.
type Keys interface {
	Len() int
	Key(id int) order.Key
}

// Column is a key column as Keys: node id's key is Column[id].
type Column []order.Key

// Len returns the number of keys.
func (c Column) Len() int { return len(c) }

// Key returns node id's key.
func (c Column) Key(id int) order.Key { return c[id] }

// Validate checks the Lemma 2.2 characterization against the given current
// keys: (1) every key lies in its node's filter, and (2) the smallest lower
// bound among top-k filters — the members' shared one — is at least the
// largest upper bound among non-top-k filters. It returns a descriptive
// error on the first violation found, or nil if the assignment is a valid
// set of filters.
func (s *Set) Validate(keys Keys) error {
	if err := s.contained(keys); err != nil {
		return err
	}
	// With no members yet, or no outside nodes (k == n), separation is vacuous.
	if b := s.bounds; len(s.top) > 0 && len(s.top) < len(s.inTop) && b.Lo < b.Hi {
		return fmt.Errorf("filter: separation violated: min top lower bound %d < max outside upper bound %d", b.Lo, b.Hi)
	}
	return nil
}

// contained checks that there is one key per node, inside the node's filter.
func (s *Set) contained(keys Keys) error {
	if keys.Len() != len(s.inTop) {
		return fmt.Errorf("filter: %d keys for %d nodes", keys.Len(), len(s.inTop))
	}
	for id := range s.inTop {
		if iv, k := s.Interval(id), keys.Key(id); !iv.Contains(k) {
			return fmt.Errorf("filter: node %d key %d outside filter %s", id, k, iv)
		}
	}
	return nil
}

// ValidateEps is the ε-tolerant counterpart of Validate: every key must
// still lie in its node's filter, but instead of exact separation the
// membership only needs to be ε-valid — some threshold's (1±ε) band must
// cover both the smallest top-k key and the largest outside key
// (order.Tol.Separated). With a zero tolerance it accepts exactly the
// assignments whose current membership Validate's separation condition
// accepts.
func (s *Set) ValidateEps(keys Keys, tol order.Tol) error {
	if err := s.contained(keys); err != nil {
		return err
	}
	minTop, maxOut := order.PosInf, order.NegInf
	for id, in := range s.inTop {
		if k := keys.Key(id); in {
			minTop = order.Min(minTop, k)
		} else {
			maxOut = order.Max(maxOut, k)
		}
	}
	// With no outside nodes (k == n) the condition is vacuous.
	if maxOut != order.NegInf && !tol.Separated(minTop, maxOut) {
		return fmt.Errorf("filter: ε-separation violated: min top key %d vs max outside key %d at eps=%v", minTop, maxOut, tol.Eps())
	}
	return nil
}

// CountTop returns how many nodes are currently marked as top-k members.
// A consistent set always returns exactly K(); the monitor asserts this.
func (s *Set) CountTop() int {
	c := 0
	for _, in := range s.inTop {
		if in {
			c++
		}
	}
	return c
}
