package coord

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/order"
	"repro/internal/rng"
	"repro/internal/wire"
)

// denseTwin is one bank over a hosted range, cut into Sub views, and one
// way of feeding every view its part of a dense step.
type denseTwin struct {
	name  string
	bank  *Nodes
	views []*Nodes
	feed  func(view *Nodes, vals []int64, step int64) (bool, bool, error)
}

// perValue is the reference feed: Nodes.Observe for every node of the view
// in ascending id order, stopping at the first value the bank rejects.
func perValue(view *Nodes, vals []int64, step int64) (topViol, outViol bool, err error) {
	for i, v := range vals {
		t, o, err := view.Observe(view.Lo()+i, v, step)
		if err != nil {
			return topViol, outViol, err
		}
		topViol, outViol = topViol || t, outViol || o
	}
	return topViol, outViol, nil
}

// fromBytes feeds the view the frame a root would ship it, read in place.
func fromBytes(view *Nodes, vals []int64, step int64) (bool, bool, error) {
	s, err := wire.OpenObserve(wire.Observe{Step: step, Vals: vals}.Append(nil))
	if err != nil {
		return false, false, err
	}
	return view.ObserveStream(&s)
}

// TestDenseKernelMatchesPerValueObserve drives three twin banks through
// the same random dense steps — one through Nodes.Observe value by value,
// one through the range kernel from a slice (ObserveDense), one through it
// from a frame's bytes (ObserveStream) — over both tie-break modes, exact
// and ε-widened installs, hosted ranges that end off the kernel's chunk
// size, Sub views, steps that repeat and advance, values on both sides of
// both bounds and at the domain's ends, and in a third of the steps a value
// outside the domain at a random index. After every step the twins must
// agree on every key, every membership bit, every view's violator lists and
// their step, the flags each view returned and its error.
func TestDenseKernelMatchesPerValueObserve(t *testing.T) {
	r := rng.New(28, 0xd5)
	for trial := 0; trial < 120; trial++ {
		n := 1 + r.Intn(900)
		lo := r.Intn(n)
		hi := lo + 1 + r.Intn(n-lo)
		distinct := r.Intn(2) == 0
		tol := order.Tol{}
		if r.Intn(2) == 0 {
			tol, _ = order.NewTol(0.05)
		}
		cuts := []int{lo}
		for c := r.Intn(3); c > 0 && hi-lo > 1; c-- {
			cuts = append(cuts, lo+1+r.Intn(hi-lo-1))
		}
		cuts = append(cuts, hi)
		slices.Sort(cuts)
		cuts = slices.Compact(cuts)

		twins := []*denseTwin{
			{name: "per value", feed: perValue},
			{name: "slice", feed: (*Nodes).ObserveDense},
			{name: "bytes", feed: fromBytes},
		}
		for _, tw := range twins {
			tw.bank = NewNodes(n, lo, hi, 7, distinct, tol)
			for i := 0; i+1 < len(cuts); i++ {
				tw.views = append(tw.views, tw.bank.Sub(cuts[i], cuts[i+1]))
			}
		}
		all := func(f func(b *Nodes)) {
			for _, tw := range twins {
				f(tw.bank)
			}
		}

		maxVal := twins[0].bank.MaxValue()
		mid := r.Int63n(2001) - 1000
		key := func(v int64) order.Key {
			k, err := twins[0].bank.Encode(lo+r.Intn(hi-lo), v)
			if err != nil {
				t.Fatal(err)
			}
			return k
		}
		value := func() int64 {
			switch r.Intn(40) {
			case 0:
				return maxVal
			case 1:
				return -maxVal
			}
			return mid + r.Int63n(121) - 60
		}
		where := fmt.Sprintf("trial %d: n=%d range [%d, %d) cuts %v distinct=%v tol=%v", trial, n, lo, hi, cuts, distinct, tol)

		step := int64(0)
		vals := make([]int64, hi-lo)
		for s := 0; s < 12; s++ {
			// What a FILTERRESET and the installs between resets leave: some
			// members, bounds around the values, sometimes no bounds at all.
			if s == 0 || r.Intn(3) == 0 {
				all((*Nodes).ResetBegin)
				for w := r.Intn(6); w > 0; w-- {
					id := lo + r.Intn(hi-lo)
					all(func(b *Nodes) { b.Winner(id, true) })
				}
			}
			switch r.Intn(4) {
			case 0:
				m, full := key(mid), r.Intn(5) == 0
				all(func(b *Nodes) { b.Midpoint(m, full) })
			case 1, 2:
				blo, bhi := key(mid-r.Int63n(30)), key(mid+r.Int63n(30))
				all(func(b *Nodes) { b.ApplyBounds(tol.WidenLo(blo), tol.WidenHi(bhi)) })
			}
			step += int64(r.Intn(2))
			for i := range vals {
				vals[i] = value()
			}
			if r.Intn(3) == 0 {
				bad := maxVal + 1 + r.Int63n(3)
				if distinct || bad < 0 {
					bad = maxVal + 1 // MaxInt64
				}
				if r.Intn(2) == 0 {
					bad = -bad
				}
				vals[r.Intn(len(vals))] = bad
			}

			type answer struct {
				top, out bool
				err      string
			}
			var want []answer
			for ti, tw := range twins {
				for vi, view := range tw.views {
					top, out, err := tw.feed(view, vals[view.Lo()-lo:view.Hi()-lo], step)
					got := answer{top, out, fmt.Sprint(err)}
					if ti == 0 {
						want = append(want, got)
					} else if got != want[vi] {
						t.Fatalf("%s, step %d (%d), view [%d, %d) fed from %s answers %+v, per value %+v", where, s, step, view.Lo(), view.Hi(), tw.name, got, want[vi])
					}
				}
			}
			ref := twins[0]
			for _, tw := range twins[1:] {
				if !slices.Equal(tw.bank.keys, ref.bank.keys) {
					t.Fatalf("%s, step %d: keys fed from %s differ from per value", where, s, tw.name)
				}
				if !slices.Equal(tw.bank.top, ref.bank.top) {
					t.Fatalf("%s, step %d: membership fed from %s differs from per value", where, s, tw.name)
				}
				for vi, view := range tw.views {
					rv := ref.views[vi]
					if !slices.Equal(view.violTop, rv.violTop) || !slices.Equal(view.violOut, rv.violOut) || view.violAt != rv.violAt {
						t.Fatalf("%s, step %d: view [%d, %d) fed from %s lists violators %v/%v at step %d, per value %v/%v at step %d",
							where, s, view.Lo(), view.Hi(), tw.name, view.violTop, view.violOut, view.violAt, rv.violTop, rv.violOut, rv.violAt)
					}
				}
			}
		}
	}
}

// TestObserveStreamChecksTheFrameBeforeItStores pins the order of a dense
// frame's checks: a value count that is not the range's width is refused
// with the bank untouched, and a frame that turns malformed mid-run has
// been applied up to the malformed value when its error comes back.
func TestObserveStreamChecksTheFrameBeforeItStores(t *testing.T) {
	const n = 600
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(1000 + i)
	}
	bank := NewNodes(n, 0, n, 1, false, order.Tol{})
	before := slices.Clone(bank.keys)

	short := wire.Observe{Step: 1, Vals: vals[:n-1]}.Append(nil)
	s, err := wire.OpenObserve(short)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := bank.ObserveStream(&s); err == nil || !slices.Equal(bank.keys, before) {
		t.Fatalf("a frame of %d values for %d nodes: error %v, bank touched: %v", n-1, n, err, !slices.Equal(bank.keys, before))
	}

	// Cut the frame inside value 300 and keep the count: the open passes
	// (a value may be one byte), 300 values are applied, the 301st is
	// truncated.
	full := wire.Observe{Step: 1, Vals: vals}.Append(nil)
	s, _ = wire.OpenObserve(full)
	if _, err := s.Share(300); err != nil {
		t.Fatal(err)
	}
	s, err = wire.OpenObserve(full[:s.Offset()+1])
	if err == nil {
		_, _, err = bank.ObserveStream(&s)
	}
	if err == nil {
		t.Fatal("a frame truncated mid-run was accepted")
	}
	for i := range vals {
		want := before[i]
		if i < 300 {
			want, _ = bank.Encode(i, vals[i])
		}
		if bank.keys[i] != want {
			t.Fatalf("after a frame truncated at value 300, node %d holds key %d, want %d", i, bank.keys[i], want)
		}
	}
}
