package coord

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"

	"repro/internal/filter"
	"repro/internal/order"
	"repro/internal/protocol"
	"repro/internal/stream"
	"repro/internal/wire"
)

const (
	negInf = int64(order.NegInf)
	posInf = int64(order.PosInf)
)

// warmFrames runs a driver over a violent walk and returns it with its
// decoded bank frame, one member id and two outsider ids.
func warmFrames(t *testing.T, n, k int, tol order.Tol) (d *driver, ns wire.NodesState, member, out1, out2 int) {
	t.Helper()
	d = newDriverTol(n, k, 7, tol)
	src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 1 << 10, Hi: 1 << 14, MaxStep: 300, Seed: 3})
	vals := make([]int64, n)
	for s := 0; s < 30; s++ {
		src.Step(vals)
		d.observe(vals)
	}
	if err := ns.Decode(d.bank.Snapshot(nil)); err != nil {
		t.Fatal(err)
	}
	member, out1, out2 = -1, -1, -1
	for id := n - 1; id >= 0; id-- {
		switch {
		case d.mach.InTop(id):
			member = id
		case out1 < 0:
			out1 = id
		default:
			out2 = id
		}
	}
	return d, ns, member, out1, out2
}

// cloneFrame deep-copies the per-node slices a mutation may touch.
func cloneFrame(ns wire.NodesState) wire.NodesState {
	ns.Keys = append([]int64(nil), ns.Keys...)
	ns.IvLo = append([]int64(nil), ns.IvLo...)
	ns.IvHi = append([]int64(nil), ns.IvHi...)
	ns.Flags = append([]byte(nil), ns.Flags...)
	return ns
}

// TestRestoreNodesRejectsUninstallableFilters feeds RestoreNodes frames
// whose per-node intervals no broadcast could have produced, or whose
// keys have left their filters: each is a typed rejection, where the
// per-node bank restored all of them and served whatever they held.
func TestRestoreNodesRejectsUninstallableFilters(t *testing.T) {
	_, ns, m, o1, o2 := warmFrames(t, 10, 3, order.Tol{})
	if _, err := RestoreNodes(ns.Append(nil)); err != nil {
		t.Fatalf("untouched frame rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		mut  func(s *wire.NodesState)
	}{
		{"member bounded above", func(s *wire.NodesState) { s.IvHi[m] = s.IvLo[m] + 1<<20 }},
		{"outsider bounded below", func(s *wire.NodesState) { s.IvLo[o1] = s.Keys[o1] - 5 }},
		{"two upper bounds", func(s *wire.NodesState) { s.IvHi[o1]++ }},
		{"two lower bounds", func(s *wire.NodesState) {
			for id := range s.IvLo {
				if id != m && s.Flags[id]&wire.FlagNodeInTop != 0 {
					s.IvLo[id]--
					return
				}
			}
		}},
		{"one node unfiltered among filtered", func(s *wire.NodesState) { s.IvHi[o2] = posInf }},
		{"empty filter", func(s *wire.NodesState) { s.IvLo[o1], s.IvHi[o1] = 5, 4 }},
		{"membership flag flipped", func(s *wire.NodesState) { s.Flags[m] &^= wire.FlagNodeInTop }},
		{"outsider key above its filter", func(s *wire.NodesState) { s.Keys[o1] = s.IvHi[o1] + 1 }},
		{"member key below its filter", func(s *wire.NodesState) { s.Keys[m] = s.IvLo[m] - 1 }},
	} {
		s := cloneFrame(ns)
		tc.mut(&s)
		if _, err := RestoreNodes(s.Append(nil)); !errors.Is(err, ErrFilterState) {
			t.Errorf("%s: restore returned %v, want ErrFilterState", tc.name, err)
		}
	}
}

// TestRestoreNodesOneSidedAndUninstalledBanks covers the frames that
// constrain fewer than two bounds: a range hosting only members, only
// outsiders, and a bank no install ever reached (the pre-time-0 frame; a
// bank rebuilt for a reassigned range). Each restores, re-emits its frame
// byte for byte, and behaves as the bank it was taken from through the
// next reset and install.
func TestRestoreNodesOneSidedAndUninstalledBanks(t *testing.T) {
	const n, lo, hi = 12, 4, 8
	for _, tc := range []struct {
		name    string
		members []int
		install bool
	}{
		{"only members", []int{4, 5, 6, 7}, true},
		{"only outsiders", nil, true},
		{"never installed", nil, false},
		{"never installed, flags set", []int{5}, false}, // rebuilt bank, reset under way elsewhere
	} {
		live := NewNodes(n, lo, hi, 9, false, order.Tol{})
		for _, id := range tc.members {
			live.Winner(id, true)
		}
		if tc.install {
			live.Midpoint(order.Key(500*n), false)
		}
		for id := lo; id < hi; id++ {
			v := int64(400)
			if slices.Contains(tc.members, id) {
				v = 600
			}
			if t1, t2, err := live.Observe(id, v, 1); err != nil || t1 || t2 {
				t.Fatalf("%s: setting up node %d: %v %v %v", tc.name, id, t1, t2, err)
			}
		}
		frame := live.Snapshot(nil)
		back, err := RestoreNodes(frame)
		if err != nil {
			t.Fatalf("%s: restore: %v", tc.name, err)
		}
		if (*back.inst == filter.Unbounded()) == tc.install {
			t.Fatalf("%s: restored bank holds bounds %+v", tc.name, *back.inst)
		}
		if !bytes.Equal(back.Snapshot(nil), frame) {
			t.Fatalf("%s: restored bank re-emits a different frame", tc.name)
		}
		// The next reset re-elects node 5 alone and installs a band: both
		// bounds are set again, whatever the frame left unconstrained.
		for _, b := range []*Nodes{live, back} {
			b.ResetBegin()
			b.Winner(5, true)
			b.Winner(6, false)
			b.ApplyBounds(order.Key(450*n), order.Key(550*n))
		}
		for id := lo; id < hi; id++ {
			for _, v := range []int64{400, 500, 600} {
				lt, lo2, _ := live.Observe(id, v, 2)
				bt, bo, _ := back.Observe(id, v, 2)
				if lt != bt || lo2 != bo {
					t.Fatalf("%s: node %d value %d: restored bank flags %v %v, live %v %v", tc.name, id, v, bt, bo, lt, lo2)
				}
			}
		}
		if !bytes.Equal(back.Snapshot(nil), live.Snapshot(nil)) {
			t.Fatalf("%s: frames diverged after the next install", tc.name)
		}
	}
}

// restoreFilters runs RestoreFilters over a (possibly mutated) bank frame
// against the driver's machine, round-tripped through its own frame.
func restoreFilters(t *testing.T, d *driver, s wire.NodesState) error {
	t.Helper()
	mframe, err := d.mach.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := RestoreMachine(mframe)
	if err != nil {
		t.Fatal(err)
	}
	var back wire.NodesState
	if err := back.Decode(s.Append(nil)); err != nil {
		t.Fatal(err)
	}
	fs, err := RestoreFilters(&back, mach)
	if err == nil {
		for id := 0; id < mach.N(); id++ {
			if iv := fs.Interval(id); int64(iv.Lo) != s.IvLo[id] || int64(iv.Hi) != s.IvHi[id] || fs.InTop(id) != mach.InTop(id) {
				t.Fatalf("accepted frame: node %d restored as %v (member %v), frame holds [%d, %d]", id, iv, fs.InTop(id), s.IvLo[id], s.IvHi[id])
			}
		}
	}
	return err
}

// TestRestoreFiltersAgainstMachine pins the validation the sequential and
// concurrent engines run on restore: a canonical frame whose filters the
// restored machine could not be running with — other members, no install
// after the time-0 reset, a separation Lemma 2.2 rejects, in ε mode
// another band than the machine tracks — is refused with ErrFilterState;
// the untouched frame, the pre-time-0 frame and the k = n frame are
// accepted, at ε = 0 and ε > 0.
func TestRestoreFiltersAgainstMachine(t *testing.T) {
	eps, err := order.NewTol(0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tol := range []order.Tol{{}, eps} {
		d, ns, m, o1, _ := warmFrames(t, 10, 3, tol)
		if err := restoreFilters(t, d, ns); err != nil {
			t.Fatalf("eps=%v: untouched frame rejected: %v", tol.Eps(), err)
		}
		lo, hi := ns.IvLo[m], ns.IvHi[o1]
		for _, tc := range []struct {
			name string
			mut  func(s *wire.NodesState)
		}{
			{"member and outsider swapped", func(s *wire.NodesState) {
				// Canonical, and every key inside its filter — but not
				// the machine's membership.
				s.Flags[m], s.Flags[o1] = s.Flags[o1], s.Flags[m]
				s.IvLo[m], s.IvHi[m], s.Keys[m] = negInf, hi, hi
				s.IvLo[o1], s.IvHi[o1], s.Keys[o1] = lo, posInf, lo
			}},
			{"filters uninstalled after the time-0 reset", func(s *wire.NodesState) {
				for id := range s.IvLo {
					s.IvLo[id], s.IvHi[id] = negInf, posInf
				}
			}},
			{"members' bound lowered", func(s *wire.NodesState) {
				// ε = 0: the bounds cross (no separation). ε > 0: not the
				// machine's band.
				for id := range s.IvLo {
					if s.Flags[id]&wire.FlagNodeInTop != 0 {
						s.IvLo[id] -= 3
					}
				}
			}},
		} {
			s := cloneFrame(ns)
			tc.mut(&s)
			if err := restoreFilters(t, d, s); !errors.Is(err, ErrFilterState) {
				t.Errorf("eps=%v %s: got %v, want ErrFilterState", tol.Eps(), tc.name, err)
			}
		}

		fresh := newDriverTol(10, 3, 7, tol)
		var pre wire.NodesState
		if err := pre.Decode(fresh.bank.Snapshot(nil)); err != nil {
			t.Fatal(err)
		}
		if err := restoreFilters(t, fresh, pre); err != nil {
			t.Fatalf("eps=%v: pre-time-0 frame rejected: %v", tol.Eps(), err)
		}
		pre.Flags[4] |= wire.FlagNodeInTop
		if err := restoreFilters(t, fresh, pre); !errors.Is(err, ErrFilterState) {
			t.Errorf("eps=%v: pre-time-0 frame with a member: got %v, want ErrFilterState", tol.Eps(), err)
		}

		all, full, _, _, _ := warmFrames(t, 6, 6, tol)
		if err := restoreFilters(t, all, full); err != nil {
			t.Fatalf("eps=%v: k = n frame rejected: %v", tol.Eps(), err)
		}
		for id := range full.IvLo {
			full.IvLo[id] = full.Keys[id] - 1
		}
		if err := restoreFilters(t, all, full); !errors.Is(err, ErrFilterState) {
			t.Errorf("eps=%v: k = n frame with installed filters: got %v, want ErrFilterState", tol.Eps(), err)
		}
	}
}

// liveHeap forces a full collection and returns the live heap, exactly as
// benchmark/run.go measures heap_mb.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestBankFootprintPerHostedNode pins what a bank keeps alive per hosted
// node once it has run a full TagReset execution: key 8, generator 16,
// violation step 8, flags 1 and the execution's 4-byte active list, 37 B
// in all. The budget leaves no room for a stored filter interval (16 B),
// an order filter (16 B) or the node's own id (8 B) per node.
func TestBankFootprintPerHostedNode(t *testing.T) {
	const n, budget = 1 << 18, 48.0
	before := liveHeap()
	b := NewNodes(n, 0, n, 1, false, order.Tol{})
	b.ResetBegin()
	best := order.NegInf
	for r := 0; r < protocol.Rounds(n); r++ {
		b.Round(TagReset, r, best, n, 1, func(_ int, key order.Key) { best = order.Max(best, key) })
	}
	b.Midpoint(best, false)
	perNode := (float64(liveHeap()) - float64(before)) / n
	t.Logf("bank, n=%d: %.1f B/hosted node live after one TagReset execution", n, perNode)
	if perNode > budget {
		t.Fatalf("bank holds %.1f B/hosted node after one execution, budget %v", perNode, budget)
	}
	runtime.KeepAlive(b)
}

// TestBankAllocatesOptionalArraysOnDemand pins that the two per-node
// arrays only some hosts need are absent until asked for: order filters
// (internal/runtime's ordered engine) and ladder levels (the hierarchical
// ε mode), through resets, installs of both kinds, checkpoints and views.
func TestBankAllocatesOptionalArraysOnDemand(t *testing.T) {
	tol, err := order.NewTol(0.1)
	if err != nil {
		t.Fatal(err)
	}
	var d *driver
	for _, tl := range []order.Tol{{}, tol} { // midpoint installs, band installs
		d = newDriverTol(20, 4, 3, tl)
		src := stream.NewRandomWalk(stream.WalkConfig{N: 20, Lo: 1 << 10, Hi: 1 << 14, MaxStep: 400, Seed: 2})
		vals := make([]int64, 20)
		for s := 0; s < 40; s++ {
			src.Step(vals)
			d.observe(vals)
		}
		d.bank.SetLadder(nil)
		back := checkpoint(t, d).bank
		for name, b := range map[string]*Nodes{"bank": d.bank, "view": d.bank.Sub(3, 9), "restored bank": back} {
			if b.ord != nil || b.levels != nil {
				t.Fatalf("%s that saw neither SetOrderBounds nor a ladder holds order filters (%d) or ladder levels (%d)", name, len(b.ord), len(b.levels))
			}
			if _, violated := b.OrderViolated(b.Lo()); violated {
				t.Fatalf("%s: an absent order filter reports a violation", name)
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetOrderBounds on a bank without order filters did not panic")
			}
		}()
		d.bank.SetOrderBounds(0, 1, 2)
	}()

	d.bank.EnableOrderFilters()
	d.bank.SetLadder(tol.Ladder(2))
	if len(d.bank.ord) != 20 || len(d.bank.levels) != 20 {
		t.Fatalf("enabled bank holds %d order filters and %d ladder levels for 20 nodes", len(d.bank.ord), len(d.bank.levels))
	}
	view := d.bank.Sub(3, 9)
	view.SetOrderBounds(4, 1, 2)
	if key, violated := d.bank.OrderViolated(4); !violated {
		t.Fatalf("order filter set through a view is not the parent's: key %d inside [1, 2]", key)
	}
}
