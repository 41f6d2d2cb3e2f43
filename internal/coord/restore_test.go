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
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/wire"
)

const (
	negInf = int64(order.NegInf)
	posInf = int64(order.PosInf)
)

// decodeBank decodes a bank's frame.
func decodeBank(t *testing.T, frame []byte) wire.BankState {
	t.Helper()
	var bs wire.BankState
	if err := bs.Decode(frame); err != nil {
		t.Fatal(err)
	}
	return bs
}

// warmFrames runs a driver over a violent walk and returns it with its
// decoded bank frame, one member id and two outsider ids.
func warmFrames(t *testing.T, n, k int, tol order.Tol) (d *driver, bs wire.BankState, member, out1, out2 int) {
	t.Helper()
	d = newDriverTol(n, k, 7, tol)
	src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 1 << 10, Hi: 1 << 14, MaxStep: 300, Seed: 3})
	vals := make([]int64, n)
	for s := 0; s < 30; s++ {
		src.Step(vals)
		d.observe(vals)
	}
	bs = decodeBank(t, d.bank.Snapshot(nil))
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
	return d, bs, member, out1, out2
}

// cloneBank deep-copies the per-node slices a mutation may touch.
func cloneBank(bs wire.BankState) wire.BankState {
	bs.Keys = append([]int64(nil), bs.Keys...)
	bs.InTop = append([]bool(nil), bs.InTop...)
	return bs
}

// TestRestoreNodesRejectsUninstallableFilters feeds RestoreNodes frames
// whose keys have left their filters: each is a typed rejection, where the
// per-node bank restored all of them and served whatever they held. The
// intervals are not in the frame to get wrong — every filter is the one
// pair of bounds applied by membership — so what is left is a key on the
// wrong side of its bound: by moving the key, the bound, or the
// membership bit.
func TestRestoreNodesRejectsUninstallableFilters(t *testing.T) {
	_, bs, m, o1, o2 := warmFrames(t, 10, 3, order.Tol{})
	if _, err := RestoreNodes(bs.Append(nil), 0); err != nil {
		t.Fatalf("untouched frame rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		mut  func(s *wire.BankState)
	}{
		{"outsider key above the bound", func(s *wire.BankState) { s.Keys[o1] = s.BoundHi + 1 }},
		{"member key below the bound", func(s *wire.BankState) { s.Keys[m] = s.BoundLo - 1 }},
		{"stale bounds: members' bound raised past a member", func(s *wire.BankState) { s.BoundLo = s.Keys[m] + 1 }},
		{"stale bounds: outsiders' bound lowered past an outsider", func(s *wire.BankState) { s.BoundHi = s.Keys[o2] - 1 }},
		{"member flag dropped from a member far above the bound", func(s *wire.BankState) {
			s.Keys[m] = s.BoundHi + 1<<30
			s.InTop[m] = false
		}},
		{"member flag set on an outsider", func(s *wire.BankState) {
			s.Keys[o1] = s.BoundLo - 1<<30
			s.InTop[o1] = true
		}},
	} {
		s := cloneBank(bs)
		tc.mut(&s)
		if _, err := RestoreNodes(s.Append(nil), 0); !errors.Is(err, ErrFilterState) {
			t.Errorf("%s: restore returned %v, want ErrFilterState", tc.name, err)
		}
	}
	// Columns that disagree with Hi − Lo: the header of a [4, 8) bank
	// claims [4, 9), or [4, 7), over the same four keys.
	part := decodeBank(t, NewNodes(12, 4, 8, 9, false, order.Tol{}).Snapshot(nil))
	columns := part.Append(nil)[len(part.BankHeader.Append(nil)):]
	for _, claimed := range []int{9, 7} {
		h := part.BankHeader
		h.Hi = claimed
		if _, err := RestoreNodes(append(h.Append(nil), columns...), 0); err == nil {
			t.Errorf("header claims [4, %d) over four nodes' columns: restored", claimed)
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
		back, err := RestoreNodes(frame, 0)
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
		// bounds are set again.
		for _, b := range []*Nodes{live, back} {
			b.ResetBegin()
			b.Winner(5, true)
			b.Winner(6, false)
			b.ApplyBounds(order.Key(450*n), order.Key(550*n))
		}
		for id := lo; id < hi; id++ {
			for _, v := range []int64{400, 500, 600} {
				lt, lo2, _ := live.Observe(id, v, 2)
				if bt, bo, _ := back.Observe(id, v, 2); lt != bt || lo2 != bo {
					t.Fatalf("%s: node %d value %d: restored bank flags %v %v, live %v %v", tc.name, id, v, bt, bo, lt, lo2)
				}
			}
		}
		if !bytes.Equal(back.Snapshot(nil), live.Snapshot(nil)) {
			t.Fatalf("%s: frames diverged after the next install", tc.name)
		}
	}
}

// restoreAgainstMachine restores a (possibly mutated) full-range bank
// frame and validates it against the driver's machine, round-tripped
// through its own frame — what the concurrent engine's Restore does.
func restoreAgainstMachine(t *testing.T, d *driver, frame []byte) error {
	t.Helper()
	mframe, err := d.mach.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := RestoreMachine(mframe)
	if err != nil {
		t.Fatal(err)
	}
	bank, err := RestoreNodes(frame, 0)
	if err != nil {
		return err
	}
	if err := bank.MatchesMachine(mach); err != nil {
		return err
	}
	fs, err := RestoreFilters(*bank.inst, bank.keys, mach)
	if err != nil {
		t.Fatalf("MatchesMachine accepted what RestoreFilters rejects: %v", err)
	}
	for id := 0; id < mach.N(); id++ {
		if iv := fs.Interval(id); iv != bank.inst.Interval(mach.InTop(id)) || fs.InTop(id) != mach.InTop(id) {
			t.Fatalf("accepted frame: node %d restored as %v (member %v), bank holds %+v", id, iv, fs.InTop(id), *bank.inst)
		}
	}
	return nil
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
		d, f, m, o1, _ := warmFrames(t, 10, 3, tol)
		if err := restoreAgainstMachine(t, d, f.Append(nil)); err != nil {
			t.Fatalf("eps=%v: untouched frame rejected: %v", tol.Eps(), err)
		}
		lo, hi := f.BoundLo, f.BoundHi
		for _, tc := range []struct {
			name string
			mut  func(s *wire.BankState)
		}{
			{"member and outsider swapped", func(s *wire.BankState) {
				// Every key inside its filter — but not the machine's
				// membership.
				s.InTop[m], s.InTop[o1] = s.InTop[o1], s.InTop[m]
				s.Keys[m], s.Keys[o1] = hi, lo
			}},
			{"a member flag the machine does not have", func(s *wire.BankState) {
				s.InTop[o1] = true
				s.Keys[o1] = lo
			}},
			{"filters uninstalled after the time-0 reset", func(s *wire.BankState) { s.BoundLo, s.BoundHi = negInf, posInf }},
			{"members' bound lowered", func(s *wire.BankState) {
				// ε = 0: the bounds cross (no separation). ε > 0: not the
				// machine's band.
				s.BoundLo -= 3
			}},
		} {
			s := cloneBank(f)
			tc.mut(&s)
			if err := restoreAgainstMachine(t, d, s.Append(nil)); !errors.Is(err, ErrFilterState) {
				t.Errorf("eps=%v, %s: got %v, want ErrFilterState", tol.Eps(), tc.name, err)
			}
		}
		// A bank that is not the machine's range is no filter state at
		// all: a plain mismatch.
		part := NewNodes(10, 2, 6, 7, false, tol)
		if err := restoreAgainstMachine(t, d, part.Snapshot(nil)); err == nil || errors.Is(err, ErrFilterState) {
			t.Errorf("eps=%v: a [2, 6) bank against a 10-node machine: got %v", tol.Eps(), err)
		}

		fresh := newDriverTol(10, 3, 7, tol)
		pre := decodeBank(t, fresh.bank.Snapshot(nil))
		if err := restoreAgainstMachine(t, fresh, pre.Append(nil)); err != nil {
			t.Fatalf("eps=%v: pre-time-0 frame rejected: %v", tol.Eps(), err)
		}
		pre.InTop[4] = true
		if err := restoreAgainstMachine(t, fresh, pre.Append(nil)); !errors.Is(err, ErrFilterState) {
			t.Errorf("eps=%v: pre-time-0 frame with a member: got %v, want ErrFilterState", tol.Eps(), err)
		}

		all, full, _, _, _ := warmFrames(t, 6, 6, tol)
		if err := restoreAgainstMachine(t, all, full.Append(nil)); err != nil {
			t.Fatalf("eps=%v: k = n frame rejected: %v", tol.Eps(), err)
		}
		full.BoundLo = slices.Min(full.Keys) - 1 // one bound every key respects, where k = n installs none
		if err := restoreAgainstMachine(t, all, full.Append(nil)); !errors.Is(err, ErrFilterState) {
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
// node once it has run a full TagReset execution: key 8 + membership bit +
// in-play bit, 8.26 B in all. The budget leaves no room for a flag byte, a
// generator's state or a violation stamp (8 B), an id list (4 B), a filter
// interval (16 B), an order filter (16 B) or the node's own id (8 B) per
// node.
func TestBankFootprintPerHostedNode(t *testing.T) {
	const n, budget = 1 << 18, 8.5
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

// TestRangeBanksFlipAsOneBank pins that S banks over one id space flip as
// one: a bank built over [lo, hi) — by itself, whenever, knowing nothing of
// the rest — sends in every round of an execution exactly what a bank over
// all n nodes sends from [lo, hi), for every cohort shape, a mask bound and
// a general one. A node's coin is a function of the seed and its global
// id, so there is no shared split walk for a range bank to get wrong.
func TestRangeBanksFlipAsOneBank(t *testing.T) {
	for _, tc := range []struct {
		n, lo, hi int
		seed      uint64
	}{{1, 0, 1, 1}, {24, 4, 20, 5}, {4096, 3072, 4096, 7}, {4096, 1024, 2048, 7}, {70001, 65536, 70001, 9}, {65536, 0, 32768, 2}} {
		whole, part := NewNodes(tc.n, 0, tc.n, tc.seed, false, order.Tol{}), NewNodes(tc.n, tc.lo, tc.hi, tc.seed, false, order.Tol{})
		vr := rng.New(tc.seed, 3)
		for id := 0; id < tc.n; id++ {
			v := vr.Int63n(1 << 20)
			whole.Observe(id, v, 1)
			if id >= tc.lo && id < tc.hi {
				part.Observe(id, v, 1)
			}
		}
		for _, bound := range []int{tc.n, tc.n + tc.n/3 + 1} {
			for _, tag := range []uint8{TagHandMax, TagReset} {
				best := order.NegInf
				for r := 0; r < protocol.Rounds(bound); r++ {
					var all, ranged []bid
					whole.Round(tag, r, best, bound, 9, func(id int, key order.Key) {
						if id >= tc.lo && id < tc.hi {
							all = append(all, bid{id, key})
						}
					})
					part.Round(tag, r, best, bound, 9, func(id int, key order.Key) { ranged = append(ranged, bid{id, key}) })
					if !slices.Equal(all, ranged) {
						t.Fatalf("n=%d [%d, %d) seed=%d bound=%d tag=%d round %d: the range bank sends %v, the whole bank sends %v from that range",
							tc.n, tc.lo, tc.hi, tc.seed, bound, tag, r, ranged, all)
					}
					for _, b := range ranged { // the range's own bids: a cut both banks are then given
						best = order.Max(best, b.key)
					}
				}
			}
		}
	}
}

// TestBankAllocatesOptionalArraysOnDemand pins that the state only some
// hosts need is absent until asked for — order filters (the ordered mode of
// the in-process engines), through resets, installs of both kinds,
// checkpoints and views — and then a k-entry table, not a per-node array.
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
		back := checkpoint(t, d).bank
		for name, b := range map[string]*Nodes{"bank": d.bank, "view": d.bank.Sub(3, 9), "restored bank": back} {
			if b.ord != nil {
				t.Fatalf("%s that never saw SetOrderBounds holds an order-filter table", name)
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

	// The table is the k filters an ordered monitor's members hold, not a
	// column: it stays k entries however often the membership turns over,
	// and views share it.
	d.bank.EnableOrderFilters(4)
	view := d.bank.Sub(3, 9)
	for round := 0; round < 5; round++ {
		d.bank.ResetBegin()
		for id := round * 4; id < round*4+4; id++ {
			d.bank.Winner(id, true)
			d.bank.SetOrderBounds(id, 1, 2)
		}
		if len(d.bank.ord.ent) != 4 || cap(d.bank.ord.ent) != 4 {
			t.Fatalf("membership %d: the table of a k = 4 monitor holds %d entries in room for %d", round, len(d.bank.ord.ent), cap(d.bank.ord.ent))
		}
	}
	if iv := d.bank.OrderFilter(19); iv != (filter.Interval{Lo: 1, Hi: 2}) || d.bank.OrderFilter(15) != filter.Full() {
		t.Fatalf("member 19 holds %v, former member 15 %v", iv, d.bank.OrderFilter(15))
	}
	view.SetOrderBounds(4, 1, 2)
	if key, violated := d.bank.OrderViolated(4); !violated {
		t.Fatalf("order filter set through a view is not the parent's: key %d inside [1, 2]", key)
	}
}
