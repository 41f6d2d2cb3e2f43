package coord

import (
	"slices"
	"testing"

	"repro/internal/order"
	"repro/internal/stream"
)

func newOrderedDriver(n, k int, seed uint64) *driver {
	d := newDriver(n, k, seed)
	d.mach = New(Config{N: n, K: k, Ordered: true})
	d.bank.EnableOrderFilters(k)
	return d
}

// TestOrderedSmallScopeExhaustive checks the ordered mode on every value
// sequence of a small scope — n = 3, values 0..2, T = 3 steps, every k —
// instead of a sample: after every step the ranking is the sorted oracle,
// the order filters of adjacent ranks overlap in at most a point and hold
// their members' keys, and the step settled within its bound. A member
// reports at most once a step, so at most k check passes end in a re-sort
// and one more, in which nobody reports, ends the step; k + 1 passes do
// occur (k = 2: values (2,0,0) then (0,1,0)).
func TestOrderedSmallScopeExhaustive(t *testing.T) {
	const n, vmax, steps = 3, 2, 3
	seq := make([]int64, n*steps) // an odometer over every sequence
	runs, maxPasses := 0, 0
	for {
		for k := 1; k <= n; k++ {
			runs++
			d := newOrderedDriver(n, k, 7)
			for s := 0; s < steps; s++ {
				vals := seq[s*n : (s+1)*n]
				before := d.orderChecks
				d.observe(vals)
				got := d.mach.AppendRanking(nil)
				if want := rankOracle(vals, k); !slices.Equal(got, want) {
					t.Fatalf("k=%d seq=%v step %d: ranking %v, oracle %v", k, seq, s, got, want)
				}
				for pos, id := range got {
					iv, ok := d.mach.OrderFilter(id)
					if !ok || !iv.Contains(d.bank.Key(id)) {
						t.Fatalf("k=%d seq=%v step %d: rank %d (node %d) key %d outside its order filter %v", k, seq, s, pos+1, id, d.bank.Key(id), iv)
					}
					if pos > 0 {
						if above, _ := d.mach.OrderFilter(got[pos-1]); iv.Hi > above.Lo {
							t.Fatalf("k=%d seq=%v step %d: order filters of ranks %d and %d overlap: %v, %v", k, seq, s, pos, pos+1, above, iv)
						}
					}
				}
				passes := (d.orderChecks - before) / k
				if (d.orderChecks-before)%k != 0 || passes > k+1 {
					t.Fatalf("k=%d seq=%v step %d: %d order checks", k, seq, s, d.orderChecks-before)
				}
				maxPasses = max(maxPasses, passes)
			}
		}
		i := 0
		for ; i < len(seq) && seq[i] == vmax; i++ {
			seq[i] = 0
		}
		if i == len(seq) {
			break
		}
		seq[i]++
	}
	if runs != 59049 || maxPasses != n+1 {
		t.Fatalf("%d runs, at most %d check passes a step; want 59049 runs and the bound of %d reached", runs, maxPasses, n+1)
	}
}

// TestOrderedMisuse pins the ordered mode's part of the event/effect
// protocol: its events in the wrong state panic, an Abort mid-pass returns
// the machine to idle, and the ForceReset that must follow rebuilds the
// ranking.
func TestOrderedMisuse(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	const n, k = 8, 3
	d := newOrderedDriver(n, k, 5)
	expectPanic("OrderDone while idle", func() { d.mach.OrderDone(0, false) })
	src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 12, MaxStep: 300, Seed: 3})
	vals := make([]int64, n)
	for s := 0; s < 20; s++ {
		src.Step(vals)
		d.observe(vals)
	}
	if _, err := d.mach.Snapshot(nil); err == nil {
		t.Fatal("snapshot of an ordered machine succeeded")
	}

	// A quiet step of an initialized ordered machine opens a check pass.
	d.mach.BeginStep()
	eff := d.mach.FinishStep(false, false)
	if eff.Kind != EffOrderCheck || eff.Target != d.mach.AppendRanking(nil)[0] {
		t.Fatalf("quiet step opened with %+v, want a check of rank 1", eff)
	}
	expectPanic("Ack of an EffOrderCheck", func() { d.mach.Ack() })
	expectPanic("ExecDone of an EffOrderCheck", func() { d.mach.ExecDone(true, 0, 0) })
	// The member reports a key below every estimate: the pass goes on, and
	// after it the re-sort hands out new bounds, which only an Ack answers.
	eff = d.mach.OrderDone(order.NegInf+1, true)
	for eff.Kind == EffOrderCheck {
		eff = d.mach.OrderDone(0, false)
	}
	if eff.Kind != EffOrderBounds {
		t.Fatalf("after a reporting pass: %+v, want EffOrderBounds", eff)
	}
	expectPanic("OrderDone of an EffOrderBounds", func() { d.mach.OrderDone(0, false) })

	d.mach.Abort()
	expectPanic("Ack after Abort", func() { d.mach.Ack() })
	src.Step(vals)
	for id, v := range vals {
		if _, _, err := d.bank.Observe(id, v, d.mach.Step()); err != nil {
			t.Fatal(err)
		}
	}
	d.drive(d.mach.ForceReset(), d.mach.Step())
	if got, want := d.mach.AppendRanking(nil), rankOracle(vals, k); !slices.Equal(got, want) {
		t.Fatalf("after Abort and ForceReset: ranking %v, oracle %v", got, want)
	}
	for s := 0; s < 20; s++ {
		src.Step(vals)
		d.observe(vals)
		if got, want := d.mach.AppendRanking(nil), rankOracle(vals, k); !slices.Equal(got, want) {
			t.Fatalf("post-recovery step %d: ranking %v, oracle %v", s, got, want)
		}
	}

	// A set-mode machine holds no band and reports no ranking.
	plain := newDriver(n, k, 5)
	plain.observe(vals)
	if r := plain.mach.AppendRanking(nil); len(r) != 0 || plain.orderChecks != 0 || plain.mach.band != nil {
		t.Fatalf("set-mode machine ranked %v with %d order checks", r, plain.orderChecks)
	}
}
