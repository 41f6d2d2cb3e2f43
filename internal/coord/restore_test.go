package coord

import (
	"bytes"
	"errors"
	"math"
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
		case slices.Contains(d.mach.Top(), id):
			member = id
		case out1 < 0:
			out1 = id
		default:
			out2 = id
		}
	}
	return d, bs, member, out1, out2
}

// cloneBank deep-copies the value column a mutation may touch.
func cloneBank(bs wire.BankState) wire.BankState {
	bs.Vals = append([]int64(nil), bs.Vals...)
	return bs
}

// TestRestoreNodesRejectsUninstallableFilters feeds RestoreChain bank
// frames whose keys have left the filters the machine beside them
// installed: each is a typed rejection, where the per-node bank restored
// all of them and served whatever they held. Neither the membership nor
// the bounds are in the bank frame to get wrong — both are the machine's —
// so what is left is a key on the wrong side of its bound.
func TestRestoreNodesRejectsUninstallableFilters(t *testing.T) {
	d, bs, m, o1, _ := warmFrames(t, 10, 3, order.Tol{})
	if err := restoreAgainstMachine(t, d, bs.Append(nil)); err != nil {
		t.Fatalf("untouched frame rejected: %v", err)
	}
	// A value one above the value of a bound has a key above it whatever
	// the id, and one below has a key below it.
	in, codec := d.mach.Installed(), d.bank.codec
	hi, _ := codec.Decode(in.Hi)
	lo, _ := codec.Decode(in.Lo)
	for _, tc := range []struct {
		name string
		mut  func(s *wire.BankState)
	}{
		{"outsider key above the bound", func(s *wire.BankState) { s.Vals[o1] = hi + 1 }},
		{"member key below the bound", func(s *wire.BankState) { s.Vals[m] = lo - 1 }},
		{"member and outsider values swapped", func(s *wire.BankState) { s.Vals[m], s.Vals[o1] = s.Vals[o1], s.Vals[m] }},
	} {
		s := cloneBank(bs)
		tc.mut(&s)
		if err := restoreAgainstMachine(t, d, s.Append(nil)); !errors.Is(err, ErrFilterState) {
			t.Errorf("%s: restore returned %v, want ErrFilterState", tc.name, err)
		}
	}
	// A value column that disagrees with Hi − Lo: the header of a [4, 8)
	// bank claims [4, 9), or [4, 7), over the same four values.
	part := decodeBank(t, NewNodes(12, 4, 8, 9, false, order.Tol{}).Snapshot(nil))
	columns := part.Append(nil)[len(part.BankHeader.Append(nil)):]
	for _, claimed := range []int{9, 7} {
		h := part.BankHeader
		h.Hi = claimed
		if _, err := RestoreNodes(append(h.Append(nil), columns...), 0); err == nil {
			t.Errorf("header claims [4, %d) over four nodes' values: restored", claimed)
		}
	}
}

// TestRestoreNodesRefusesValuesOutsideTheDomain pins that RestoreNodes
// re-derives every key from its value without the codec's panic: a value
// past the value domain of the frame's n, at either end, is an error
// wrapping wire.ErrMalformed, and the domain's own ends restore.
func TestRestoreNodesRefusesValuesOutsideTheDomain(t *testing.T) {
	const n = 12
	bs := decodeBank(t, NewNodes(n, 4, 8, 9, false, order.Tol{}).Snapshot(nil))
	max := order.MaxValueFor(n)
	for _, v := range []int64{max + 1, -max - 1, math.MaxInt64, math.MinInt64} {
		bad := cloneBank(bs)
		bad.Vals[2] = v
		if _, err := RestoreNodes(bad.Append(nil), 0); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("a value of %d: RestoreNodes returned %v, want wire.ErrMalformed", v, err)
		}
	}
	ends := cloneBank(bs)
	ends.Vals[0], ends.Vals[3] = max, -max
	b, err := RestoreNodes(ends.Append(nil), 0)
	if err != nil {
		t.Fatalf("the domain's ends: %v", err)
	}
	if got := decodeBank(t, b.Snapshot(nil)); !slices.Equal(got.Vals, ends.Vals) {
		t.Fatalf("the domain's ends restored as %v, want %v", got.Vals, ends.Vals)
	}
}

// TestRestoreNodesOneSidedAndUninstalledBanks covers banks of a range
// that hosts only members, only outsiders, or that no install ever
// reached (the pre-time-0 frame; a bank rebuilt for a reassigned range).
// Each frame restores a bank that re-emits it byte for byte and holds no
// member and no bound of its own — those are its coordinator's — and that
// behaves as the bank it was taken from once the next reset and install
// have reached both.
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
		if *back.inst != filter.Unbounded() || slices.ContainsFunc(back.top, func(w uint64) bool { return w != 0 }) {
			t.Fatalf("%s: restored bank holds bounds %+v and membership %x", tc.name, *back.inst, back.top)
		}
		if !bytes.Equal(back.Snapshot(nil), frame) {
			t.Fatalf("%s: restored bank re-emits a different frame", tc.name)
		}
		// The next reset re-elects node 5 alone and installs a band.
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
// frame beside the driver's machine frame, or the machine frame mach when
// one is given — what the in-process engine's restore does (RestoreChain)
// — and, when that succeeds, checks that the restored bank installed the
// machine's membership and bounds.
func restoreAgainstMachine(t *testing.T, d *driver, frame []byte, mach ...[]byte) error {
	t.Helper()
	mframe, err := d.mach.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(mach) > 0 {
		mframe = mach[0]
	}
	m, bank, err := RestoreChain(d.mach.N(), d.mach.K(), d.mach.Tol().Eps(), 0, &wire.Checkpoint{Machine: mframe, Nodes: frame}, nil)
	if err != nil {
		return err
	}
	fs := m.Filters()
	for id := 0; id < m.N(); id++ {
		if iv := fs.Interval(id); iv != bank.inst.Interval(bank.inTop(id)) || fs.InTop(id) != bank.inTop(id) || bank.inTop(id) != slices.Contains(m.Top(), id) {
			t.Fatalf("accepted frame: node %d restored as %v (member %v), bank holds %+v (member %v)", id, iv, fs.InTop(id), *bank.inst, bank.inTop(id))
		}
	}
	return nil
}

// TestRestoreFiltersAgainstMachine pins the validation the in-process
// engine runs on restore, where the filters are the machine frame's
// membership and installed bounds over the bank frame's keys: a machine
// frame whose filters its keys cannot be running under — other members, a
// bound moved past a key, in ε mode another band — is refused with
// ErrFilterState; the untouched frames, the pre-time-0 frames and the
// k = n frames are accepted, at ε = 0 and ε > 0; a bank of another range
// is a plain mismatch.
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
		mframe, err := d.mach.Snapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		var ms wire.MachineState
		if err := ms.Decode(mframe); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			mut  func(s *wire.MachineState)
		}{
			{"member and outsider swapped", func(s *wire.MachineState) {
				s.Top = slices.DeleteFunc(s.Top, func(id int) bool { return id == m })
				s.Top = append(s.Top, o1)
				slices.Sort(s.Top)
			}},
			{"members' bound raised past a member", func(s *wire.MachineState) {
				// ε = 0: T− and T+ moved over the member's key. ε > 0: the
				// band did.
				lift := int64(d.bank.codec.Encode(f.Vals[m], m) - d.mach.Installed().Lo + 1)
				s.TPlus, s.TMinus = s.TPlus+2*lift, s.TMinus+2*lift
				s.CurLo, s.CurHi = s.CurLo+lift, s.CurHi+lift
			}},
		} {
			s := ms
			s.Top = append([]int(nil), ms.Top...)
			tc.mut(&s)
			if err := restoreAgainstMachine(t, d, f.Append(nil), s.Append(nil)); !errors.Is(err, ErrFilterState) {
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
		if err := restoreAgainstMachine(t, fresh, fresh.bank.Snapshot(nil)); err != nil {
			t.Fatalf("eps=%v: pre-time-0 frame rejected: %v", tol.Eps(), err)
		}
		all, full, _, _, _ := warmFrames(t, 6, 6, tol)
		if err := restoreAgainstMachine(t, all, full.Append(nil)); err != nil {
			t.Fatalf("eps=%v: k = n frame rejected: %v", tol.Eps(), err)
		}
	}
}

// TestBankInstallsWhatTheMachineRecords pins the fact restore rests on:
// between steps, the bounds a bank has installed are the ones its
// machine's Installed derives from the machine's checkpoint state, and its
// membership bits are the machine's — through resets, violations with and
// without a new midpoint or band, k = n and the steps before time 0.
func TestBankInstallsWhatTheMachineRecords(t *testing.T) {
	eps, err := order.NewTol(0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		n, k int
		tol  order.Tol
	}{{12, 3, order.Tol{}}, {12, 3, eps}, {5, 5, order.Tol{}}, {5, 5, eps}, {64, 1, order.Tol{}}} {
		d := newDriverTol(tc.n, tc.k, 5, tc.tol)
		src := stream.NewRandomWalk(stream.WalkConfig{N: tc.n, Lo: 1 << 10, Hi: 1 << 14, MaxStep: 300, Seed: 8})
		vals := make([]int64, tc.n)
		for s := 0; s < 200; s++ {
			if got, want := *d.bank.inst, d.mach.Installed(); got != want {
				t.Fatalf("n=%d k=%d eps=%v step %d: the bank holds %+v, the machine records %+v", tc.n, tc.k, tc.tol.Eps(), s, got, want)
			}
			for id := 0; id < tc.n; id++ {
				if d.bank.inTop(id) != slices.Contains(d.mach.Top(), id) {
					t.Fatalf("n=%d k=%d step %d: node %d membership differs", tc.n, tc.k, s, id)
				}
			}
			src.Step(vals)
			d.observe(vals)
		}
		if st := d.mach.Stats(); tc.k < tc.n && (st.Resets < 3 || st.ViolationSteps <= st.Resets) {
			t.Fatalf("n=%d k=%d eps=%v: the walk is too calm: %+v", tc.n, tc.k, tc.tol.Eps(), st)
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
// node once it has observed a dense step and run a full TagReset
// execution: the value column + membership bit + in-play bit, 3.26 B in
// all while every value fits 24 bits, 4.26 B while every one fits int32
// and 6.26 B once none does — past 2³¹ and at 2⁴⁰ alike, since at this n
// every value in the domain fits 48 bits. The budgets, 3.5, 4.5 and 6.5,
// leave no room for a column a width too wide (4 B, 6 B or 8 B), a key
// column beside the values (8 B), a narrower column kept beside the wider
// one (3 B or more), a flag byte, a generator's state or a violation stamp
// (8 B), an id list (4 B), a filter interval (16 B), an order filter (16 B)
// or the node's own id (8 B) per node.
func TestBankFootprintPerHostedNode(t *testing.T) {
	const n = 1 << 18
	for _, arm := range []struct {
		name   string
		base   int64
		budget float64
	}{{"narrow", 0, 3.5}, {"int32", 1 << 23, 4.5}, {"wide", 1 << 31, 6.5}, {"int48", 1 << 40, 6.5}} {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = arm.base + int64(i)*7%1000003
		}
		before := liveHeap()
		b := NewNodes(n, 0, n, 1, false, order.Tol{})
		if _, _, err := b.ObserveDense(vals, 1); err != nil {
			t.Fatal(err)
		}
		b.ResetBegin()
		best := order.NegInf
		for r := 0; r < protocol.Rounds(n); r++ {
			b.Round(TagReset, r, best, n, 1, func(_ int, key order.Key) { best = order.Max(best, key) })
		}
		b.Midpoint(best, false)
		perNode := (float64(liveHeap()) - float64(before)) / n
		t.Logf("%s: bank, n=%d: %.2f B/hosted node live after a dense step and one TagReset execution", arm.name, n, perNode)
		if perNode > arm.budget {
			t.Fatalf("%s: bank holds %.2f B/hosted node after a dense step and one execution, budget %v", arm.name, perNode, arm.budget)
		}
		runtime.KeepAlive(b)
		runtime.KeepAlive(vals)
	}
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
