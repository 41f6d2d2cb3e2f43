package filter

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/order"
	"repro/internal/rng"
)

// refSet is the filter set as it was before installs became two bounds: a
// stored Interval per node, rewritten for all n nodes by every install.
// It is kept verbatim (renamed, minus SetInterval) as the independent
// reference the derived-interval Set is checked against.
type refSet struct {
	ivs   []Interval
	inTop []bool
	top   []int
	tmp   []int
	gen   uint64
	k     int
}

func newRefSet(n, k int) *refSet {
	s := &refSet{
		ivs:   make([]Interval, n),
		inTop: make([]bool, n),
		top:   make([]int, 0, k),
		tmp:   make([]int, 0, k),
		k:     k,
	}
	for i := range s.ivs {
		s.ivs[i] = Full()
	}
	return s
}

func (s *refSet) Interval(id int) Interval { return s.ivs[id] }

func (s *refSet) SetMembership(top []int) {
	s.tmp = append(s.tmp[:0], top...)
	sort.Ints(s.tmp)
	if slices.Equal(s.tmp, s.top) {
		return
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

func (s *refSet) AssignMidpoint(m order.Key) { s.AssignBand(m, m) }

func (s *refSet) AssignBand(lo, hi order.Key) {
	if s.k == len(s.ivs) {
		for i := range s.ivs {
			s.ivs[i] = Full()
		}
		return
	}
	for i := range s.ivs {
		if s.inTop[i] {
			s.ivs[i] = AtLeast(lo)
		} else {
			s.ivs[i] = AtMost(hi)
		}
	}
}

func (s *refSet) Validate(keys []order.Key) error {
	if len(keys) != len(s.ivs) {
		return fmt.Errorf("filter: %d keys for %d nodes", len(keys), len(s.ivs))
	}
	minTopLo := order.PosInf
	maxOutHi := order.NegInf
	for id, iv := range s.ivs {
		if !iv.Contains(keys[id]) {
			return fmt.Errorf("filter: node %d key %d outside filter %s", id, keys[id], iv)
		}
		if s.inTop[id] {
			minTopLo = order.Min(minTopLo, iv.Lo)
		} else {
			maxOutHi = order.Max(maxOutHi, iv.Hi)
		}
	}
	if maxOutHi != order.NegInf && minTopLo < maxOutHi {
		return fmt.Errorf("filter: separation violated: min top lower bound %d < max outside upper bound %d", minTopLo, maxOutHi)
	}
	return nil
}

func (s *refSet) ValidateEps(keys []order.Key, tol order.Tol) error {
	if len(keys) != len(s.ivs) {
		return fmt.Errorf("filter: %d keys for %d nodes", len(keys), len(s.ivs))
	}
	minTop := order.PosInf
	maxOut := order.NegInf
	for id, iv := range s.ivs {
		if !iv.Contains(keys[id]) {
			return fmt.Errorf("filter: node %d key %d outside filter %s", id, keys[id], iv)
		}
		if s.inTop[id] {
			minTop = order.Min(minTop, keys[id])
		} else {
			maxOut = order.Max(maxOut, keys[id])
		}
	}
	if maxOut != order.NegInf && !tol.Separated(minTop, maxOut) {
		return fmt.Errorf("filter: ε-separation violated: min top key %d vs max outside key %d at eps=%v", minTop, maxOut, tol.Eps())
	}
	return nil
}

// TestSetMatchesPerNodeIntervals drives random sequences of membership
// changes and installs (midpoints, crossed and uncrossed bands, k = n)
// through the derived-interval Set and the stored-interval reference and
// demands identical membership, generations, intervals and validation
// verdicts (error text included) at every point a filter is ever read.
//
// That excludes exactly one window: between a membership change and the
// install that follows it, a stored interval still shows the old side
// while a derived one already shows the new. Algorithm 1 always closes
// that window with an install before the next filter check, so the
// sequences compare intervals only outside it — and do compare them
// before the first install, where both are [−∞, +∞] whatever the
// membership.
func TestSetMatchesPerNodeIntervals(t *testing.T) {
	tol, err := order.NewTol(0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct{ n, k int }{{1, 1}, {2, 1}, {7, 3}, {7, 7}, {40, 5}, {40, 39}} {
		r := rng.New(uint64(shape.n*100+shape.k), 3)
		got, ref := NewSet(shape.n, shape.k), newRefSet(shape.n, shape.k)
		keys := make([]order.Key, shape.n)
		installed, stale := false, false
		for op := 0; op < 400; op++ {
			where := fmt.Sprintf("n=%d k=%d op %d", shape.n, shape.k, op)
			switch r.Intn(4) {
			case 0:
				top := r.Perm(shape.n)[:shape.k]
				gen := got.Generation()
				got.SetMembership(top)
				ref.SetMembership(top)
				stale = stale || (installed && got.Generation() != gen)
			case 1:
				m := order.Key(r.Int63n(2000) - 1000)
				got.AssignMidpoint(m)
				ref.AssignMidpoint(m)
				installed, stale = true, false
			case 2:
				lo, hi := order.Key(r.Int63n(2000)-1000), order.Key(r.Int63n(2000)-1000)
				got.AssignBand(lo, hi) // crossed (lo < hi) as often as not
				ref.AssignBand(lo, hi)
				installed, stale = true, false
			case 3:
				for i := range keys {
					keys[i] = order.Key(r.Int63n(2400) - 1200)
				}
			}
			if got.Generation() != ref.gen || !slices.Equal(got.Top(), ref.top) || got.CountTop() != len(ref.top) {
				t.Fatalf("%s: membership %v gen %d, reference %v gen %d", where, got.Top(), got.Generation(), ref.top, ref.gen)
			}
			for id := 0; id < shape.n; id++ {
				if got.InTop(id) != ref.inTop[id] {
					t.Fatalf("%s: node %d InTop %v, reference %v", where, id, got.InTop(id), ref.inTop[id])
				}
				if !stale && got.Interval(id) != ref.Interval(id) {
					t.Fatalf("%s: node %d filter %v, reference %v", where, id, got.Interval(id), ref.Interval(id))
				}
			}
			if stale {
				continue
			}
			if g, w := got.Validate(Column(keys)), ref.Validate(keys); fmt.Sprint(g) != fmt.Sprint(w) {
				t.Fatalf("%s: Validate %v, reference %v", where, g, w)
			}
			if g, w := got.ValidateEps(Column(keys), tol), ref.ValidateEps(keys, tol); fmt.Sprint(g) != fmt.Sprint(w) {
				t.Fatalf("%s: ValidateEps %v, reference %v", where, g, w)
			}
		}
	}
}

// TestInstallAllocatesNothing pins the point of the layout: an install
// touches no per-node state, so it allocates nothing and a set holds one
// byte per node.
func TestInstallAllocatesNothing(t *testing.T) {
	s := NewSet(1<<16, 16)
	s.SetMembership([]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	if a := testing.AllocsPerRun(100, func() { s.AssignBand(10, 20); s.AssignMidpoint(15) }); a != 0 {
		t.Fatalf("install allocates %v times, want 0", a)
	}
	if s.Interval(1) != AtLeast(15) || s.Interval(0) != AtMost(15) {
		t.Fatalf("filters after the installs: %v / %v", s.Interval(1), s.Interval(0))
	}
}
