package coord

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/filter"
	"repro/internal/order"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/wire"
)

// bankAPI is the command surface Nodes shares with the per-node reference
// (refnodes_test.go) — what a host translates its substrate's commands
// into.
type bankAPI interface {
	Observe(id int, v int64, step int64) (topViol, outViol bool, err error)
	Round(tag uint8, r int, best order.Key, bound int, step int64, send func(id int, key order.Key))
	ResetBegin()
	Winner(target int, isTop bool)
	Midpoint(mid order.Key, full bool)
	ApplyBounds(lo, hi order.Key)
	OrderViolated(target int) (order.Key, bool)
	SetOrderBounds(target int, lo, hi order.Key)
	Snapshot(dst []byte) []byte
}

// pair issues every command to the flat bank and to the reference and
// fails the test on the first answer that differs: violation flags and
// errors of an observation, the (id, key) sends of a round in order, an
// order-filter check. same compares what no answer shows and a step can
// still read — every node's key, derived filter and membership, every
// member's order filter — through the flat bank's checkpoint frame.
type pair struct {
	t     *testing.T
	where string
	kern  bankAPI
	ref   *refNodes
}

type bid struct {
	id  int
	key order.Key
}

func (p *pair) Observe(id int, v int64, step int64) (bool, bool, error) {
	kt, ko, kerr := p.kern.Observe(id, v, step)
	rt, ro, rerr := p.ref.Observe(id, v, step)
	if kt != rt || ko != ro || fmt.Sprint(kerr) != fmt.Sprint(rerr) {
		p.t.Fatalf("%s: Observe(%d, %d, %d) = %v %v %v, reference %v %v %v", p.where, id, v, step, kt, ko, kerr, rt, ro, rerr)
	}
	return kt, ko, kerr
}

func (p *pair) Round(tag uint8, r int, best order.Key, bound int, step int64, send func(id int, key order.Key)) {
	var ks, rs []bid
	p.kern.Round(tag, r, best, bound, step, func(id int, key order.Key) { ks = append(ks, bid{id, key}) })
	p.ref.Round(tag, r, best, bound, step, func(id int, key order.Key) { rs = append(rs, bid{id, key}) })
	if !slices.Equal(ks, rs) {
		p.t.Fatalf("%s: tag %d round %d sends %v, reference %v", p.where, tag, r, ks, rs)
	}
	for _, b := range ks {
		send(b.id, b.key)
	}
}

func (p *pair) ResetBegin() { p.kern.ResetBegin(); p.ref.ResetBegin() }
func (p *pair) Winner(target int, isTop bool) {
	p.kern.Winner(target, isTop)
	p.ref.Winner(target, isTop)
}
func (p *pair) Midpoint(mid order.Key, full bool) {
	p.kern.Midpoint(mid, full)
	p.ref.Midpoint(mid, full)
}
func (p *pair) ApplyBounds(lo, hi order.Key) { p.kern.ApplyBounds(lo, hi); p.ref.ApplyBounds(lo, hi) }
func (p *pair) SetOrderBounds(target int, lo, hi order.Key) {
	p.kern.SetOrderBounds(target, lo, hi)
	p.ref.SetOrderBounds(target, lo, hi)
}
func (p *pair) OrderViolated(target int) (order.Key, bool) {
	kk, kv := p.kern.OrderViolated(target)
	rk, rv := p.ref.OrderViolated(target)
	if kk != rk || kv != rv {
		p.t.Fatalf("%s: OrderViolated(%d) = %d %v, reference %d %v", p.where, target, kk, kv, rk, rv)
	}
	return kk, kv
}
func (p *pair) Snapshot(dst []byte) []byte { return p.kern.Snapshot(dst) }

func (p *pair) same() {
	p.t.Helper()
	// The flat bank's frame must be the one encoding of what it decodes to,
	// and hold what the reference holds: the bank's shape, every node's key
	// and membership, every reference interval the frame's bounds applied by
	// membership, and every member's order filter. What a later step cannot
	// read is left out: violation history, and the order filter a node kept
	// from a membership it has lost.
	frame := p.kern.Snapshot(nil)
	var bs wire.BankState
	if err := bs.Decode(frame); err != nil {
		p.t.Fatalf("%s: checkpoint frame does not decode: %v", p.where, err)
	}
	if !bytes.Equal(bs.Append(nil), frame) {
		p.t.Fatalf("%s: checkpoint frame is not canonical", p.where)
	}
	r := p.ref
	if bs.N != r.codec.N() || bs.Lo != r.lo || bs.Hi != r.hi || bs.EpsNum != r.tol.Num() || bs.Distinct != r.distinct {
		p.t.Fatalf("%s: checkpoint frame header %+v, reference [%d, %d) of %d", p.where, bs.BankHeader, r.lo, r.hi, r.codec.N())
	}
	in := filter.Bounds{Lo: order.Key(bs.BoundLo), Hi: order.Key(bs.BoundHi)}
	for i := range r.ns {
		nd := &r.ns[i]
		ord, refOrd := filter.Full(), filter.Full()
		if bs.InTop[i] {
			ord = filter.Interval{Lo: order.Key(bs.OrdLo[i]), Hi: order.Key(bs.OrdHi[i])}
		}
		if nd.inTop {
			refOrd = nd.ordIv
		}
		if order.Key(bs.Keys[i]) != nd.key || bs.InTop[i] != nd.inTop || in.Interval(nd.inTop) != nd.iv || ord != refOrd {
			p.t.Fatalf("%s: node %d: the frame holds key %d, member %v, filter %v, order filter %v; the reference key %d, member %v, filter %v, order filter %v",
				p.where, nd.id, bs.Keys[i], bs.InTop[i], in.Interval(bs.InTop[i]), ord, nd.key, nd.inTop, nd.iv, refOrd)
		}
	}
}

// viewBank drives a flat bank the way internal/runtime does: the range is
// cut into Sub views, each owned by one goroutine that alone touches its
// nodes — observations, rounds, winner bits, order filters — while filter
// installs, the reset's clear of the membership bitset and snapshots happen
// on the parent from the commanding goroutine, between commands, when every
// worker is parked. Run under -race it pins that the shared installed
// bounds and bitset words need no other synchronization than the command
// hand-off.
type viewBank struct {
	parent *Nodes
	cuts   []int
	views  []*Nodes
	cmds   []chan func(v *Nodes)
	done   chan struct{}
}

func newViewBank(parent *Nodes, cuts []int) *viewBank {
	vb := &viewBank{parent: parent, cuts: cuts, done: make(chan struct{})}
	for i := 0; i+1 < len(cuts); i++ {
		v, c := parent.Sub(cuts[i], cuts[i+1]), make(chan func(v *Nodes))
		vb.views, vb.cmds = append(vb.views, v), append(vb.cmds, c)
		go func() {
			for f := range c {
				f(v)
				vb.done <- struct{}{}
			}
		}()
	}
	return vb
}

func (vb *viewBank) close() {
	for _, c := range vb.cmds {
		close(c)
	}
}

// all runs f on every view's goroutine concurrently and waits for all.
func (vb *viewBank) all(f func(i int, v *Nodes)) {
	for i, c := range vb.cmds {
		c <- func(v *Nodes) { f(i, v) }
	}
	for range vb.cmds {
		<-vb.done
	}
}

// on runs f on the goroutine owning node id and waits for it.
func (vb *viewBank) on(id int, f func(v *Nodes)) {
	for i := range vb.views {
		if id < vb.cuts[i+1] {
			vb.cmds[i] <- f
			<-vb.done
			return
		}
	}
	panic("viewBank: id outside every view")
}

func (vb *viewBank) Observe(id int, v int64, step int64) (t, o bool, err error) {
	vb.on(id, func(b *Nodes) { t, o, err = b.Observe(id, v, step) })
	return
}

func (vb *viewBank) Round(tag uint8, r int, best order.Key, bound int, step int64, send func(id int, key order.Key)) {
	sends := make([][]bid, len(vb.views))
	vb.all(func(i int, v *Nodes) {
		v.Round(tag, r, best, bound, step, func(id int, key order.Key) { sends[i] = append(sends[i], bid{id, key}) })
	})
	for _, s := range sends {
		for _, b := range s {
			send(b.id, b.key)
		}
	}
}

func (vb *viewBank) ResetBegin() { vb.parent.ResetBegin() }
func (vb *viewBank) Winner(target int, isTop bool) {
	vb.on(target, func(v *Nodes) { v.Winner(target, isTop) })
}
func (vb *viewBank) Midpoint(mid order.Key, full bool) { vb.parent.Midpoint(mid, full) }
func (vb *viewBank) ApplyBounds(lo, hi order.Key)      { vb.parent.ApplyBounds(lo, hi) }
func (vb *viewBank) OrderViolated(target int) (key order.Key, violated bool) {
	vb.on(target, func(v *Nodes) { key, violated = v.OrderViolated(target) })
	return
}
func (vb *viewBank) SetOrderBounds(target int, lo, hi order.Key) {
	vb.on(target, func(v *Nodes) { v.SetOrderBounds(target, lo, hi) })
}
func (vb *viewBank) Snapshot(dst []byte) []byte { return vb.parent.Snapshot(dst) }

// equivCase is one bank configuration both equivalence tests run.
type equivCase struct {
	n, k     int
	eps      float64
	distinct bool
	ordered  bool  // order filters in use
	views    []int // Sub view cuts; nil drives the whole bank directly
}

func (tc equivCase) String() string {
	return fmt.Sprintf("n=%d k=%d eps=%g distinct=%v ordered=%v views=%v", tc.n, tc.k, tc.eps, tc.distinct, tc.ordered, tc.views)
}

var equivCases = []equivCase{
	{n: 12, k: 3},
	{n: 7, k: 7},
	{n: 1, k: 1},
	{n: 40, k: 5, distinct: true, ordered: true},
	{n: 64, k: 5, eps: 0.1},
	{n: 64, k: 9, eps: 0.1},
	{n: 33, k: 32, eps: 0.02},
	{n: 9, k: 1, views: []int{0, 4, 9}},
	{n: 64, k: 5, views: []int{0, 1, 2, 30, 64}, ordered: true},
	{n: 64, k: 63, eps: 0.1, views: []int{0, 16, 33, 64}},
}

// build returns the case's flat bank paired with its reference, and the
// function that stops the view goroutines (if any).
func (tc equivCase) build(t *testing.T, seed uint64) (*pair, order.Tol, func()) {
	tol, err := order.NewTol(tc.eps)
	if err != nil {
		t.Fatal(err)
	}
	flat, ref := NewNodes(tc.n, 0, tc.n, seed, tc.distinct, tol), newRefNodes(tc.n, 0, tc.n, seed, tc.distinct, tol)
	if tc.ordered {
		flat.EnableOrderFilters(tc.k) // before the views are taken, as the ordered runtime does
	}
	p := &pair{t: t, where: tc.String(), kern: flat, ref: ref}
	if tc.views == nil {
		return p, tol, func() {}
	}
	vb := newViewBank(flat, tc.views)
	p.kern = vb
	return p, tol, vb.close
}

// TestBankMatchesPerNodeReferenceUnderMachine runs one coordinator machine
// over the paired banks for a workload violent enough to exercise
// violation, handler and reset executions and band and midpoint installs,
// with every command answered identically by both (pair) and a
// byte-identical checkpoint frame after every step.
func TestBankMatchesPerNodeReferenceUnderMachine(t *testing.T) {
	for _, tc := range equivCases {
		p, tol, stop := tc.build(t, 41)
		d := &bankDriver{mach: New(Config{N: tc.n, K: tc.k, Tol: tol}), bank: p}
		src := stream.NewRandomWalk(stream.WalkConfig{N: tc.n, Lo: 1 << 10, Hi: 1 << 14, MaxStep: 400, Seed: 6})
		vals := make([]int64, tc.n)
		p.same() // the pre-time-0 frame
		for s := 0; s < 200; s++ {
			p.where = fmt.Sprintf("%s step %d", tc, s)
			src.Step(vals)
			resets := d.mach.Stats().Resets
			top := d.observe(vals)
			if tc.ordered {
				// The ordered variant's per-step traffic: members check
				// their order filters, some get new ones — after a reset
				// all of them, unchecked, as the machine has it.
				reset := d.mach.Stats().Resets != resets
				for i, id := range top {
					violated := false
					if !reset {
						_, violated = p.OrderViolated(id)
					}
					if reset || violated || s%7 == 0 {
						p.SetOrderBounds(id, p.ref.Key(id)-order.Key(i), p.ref.Key(id)+order.Key(s%5))
					}
				}
			}
			p.same()
		}
		if st := d.mach.Stats(); tc.k < tc.n && (st.Resets < 2 || st.HandlerCalls == 0) {
			t.Fatalf("%s: workload too calm to exercise the installs: %+v", tc, st)
		}
		stop()
	}
}

// bankDriver is driver (coord_test.go) over any bankAPI.
type bankDriver struct {
	mach *Machine
	bank bankAPI
}

func (d *bankDriver) observe(vals []int64) []int {
	step := d.mach.BeginStep()
	anyTop, anyOut := false, false
	for id, v := range vals {
		t, o, err := d.bank.Observe(id, v, step)
		if err != nil {
			panic(err)
		}
		anyTop, anyOut = anyTop || t, anyOut || o
	}
	eff := d.mach.FinishStep(anyTop, anyOut)
	for eff.Kind != EffDone {
		switch eff.Kind {
		case EffExec:
			eff = d.mach.Deliver(execute(d.bank.Round, eff.Tag, eff.Want, eff.Bound, step, d.mach.Recorder(eff.Phase)))
		case EffResetBegin:
			d.bank.ResetBegin()
			eff = d.mach.Ack()
		case EffWinner:
			d.bank.Winner(eff.Target, eff.IsTop)
			eff = d.mach.Ack()
		case EffMidpoint:
			d.bank.Midpoint(eff.Mid, eff.Full)
			eff = d.mach.Ack()
		case EffBounds:
			d.bank.ApplyBounds(eff.Lo, eff.Hi)
			eff = d.mach.Ack()
		}
	}
	return d.mach.Top()
}

// TestBankMatchesPerNodeReferenceOnRandomCommands drives the paired banks
// with command sequences no machine would issue — memberships of any
// size, full installs at k < n, crossed bands, bands on exact banks,
// midpoints on ε banks, executions of every cohort with loose bounds,
// abandoned executions, order filters of any shape — keeping only the two
// rules every host keeps: a membership change (ResetBegin, Winner) is
// followed by an install before the next observation — between those two
// a stored filter is stale where a derived one is already re-derived, and
// nothing reads either — and by an order filter for every member, the only
// nodes that are ever sent or asked about one (the bank keeps a table of
// the members' filters where the reference keeps one per node for ever).
func TestBankMatchesPerNodeReferenceOnRandomCommands(t *testing.T) {
	for ci, tc := range equivCases {
		p, _, stop := tc.build(t, uint64(ci)+3)
		r := rng.New(uint64(ci), 77)
		span := int64(tc.n)
		if tc.distinct {
			span = 1 // keys are raw values
		}
		randKey := func() order.Key { return order.Key((900 + r.Int63n(200)) * span) }
		install := func() {
			switch r.Intn(5) {
			case 0:
				p.Midpoint(randKey(), r.Intn(4) == 0)
			case 1, 2:
				p.Midpoint(randKey(), false)
			default:
				p.ApplyBounds(randKey(), randKey())
			}
		}
		for it := 0; it < 150; it++ {
			step := int64(it + 1)
			p.where = fmt.Sprintf("%s iteration %d", tc, it)
			for id := 0; id < tc.n; id++ {
				if r.Intn(3) > 0 {
					p.Observe(id, 880+r.Int63n(240), step)
				}
			}
			p.same()
			for e := r.Intn(3); e > 0; e-- {
				tag := []uint8{TagViolMin, TagViolMax, TagHandMin, TagHandMax, TagReset}[r.Intn(5)]
				var c comm.Counter
				if r.Intn(6) == 0 { // abandoned after round 0
					p.Round(tag, 0, order.NegInf, tc.n, step, func(int, order.Key) {})
					continue
				}
				execute(p.Round, tag, 1+r.Intn(3), tc.n+r.Intn(2*tc.n), step, &c)
			}
			orderBounds := func(id int) {
				lo := randKey()
				p.SetOrderBounds(id, lo, lo+order.Key(r.Int63n(60*span)))
			}
			var members []int
			for id := range p.ref.ns {
				if p.ref.ns[id].inTop {
					members = append(members, id)
				}
			}
			if tc.ordered && len(members) > 0 {
				for j := r.Intn(4); j > 0; j-- {
					orderBounds(members[r.Intn(len(members))])
				}
				for _, id := range members {
					p.OrderViolated(id)
				}
			}
			switch r.Intn(3) {
			case 0: // a reset of any shape: any number of winners, some of them members
				p.ResetBegin()
				if w := r.Intn(tc.k + 2); w > 0 {
					var c comm.Counter
					for _, win := range execute(p.Round, TagReset, w, tc.n, step, &c) {
						isTop := r.Intn(3) > 0
						if p.Winner(win.ID, isTop); isTop && tc.ordered {
							orderBounds(win.ID)
						}
					}
				}
				install()
			case 1:
				install()
			}
			p.same()
		}
		stop()
	}
}

// TestRestoreParentWrittenFrame is the compatibility half of the
// checkpoint contract: the frame a bank writes mid-run — through its views
// or not, with order filters or not — restores into a flat bank that
// re-emits it byte for byte and continues in lockstep with the per-node
// reference, which never stopped.
func TestRestoreParentWrittenFrame(t *testing.T) {
	for _, tc := range equivCases {
		p, tol, stop := tc.build(t, 41)
		warm := &bankDriver{mach: New(Config{N: tc.n, K: tc.k, Tol: tol}), bank: p}
		src := stream.NewRandomWalk(stream.WalkConfig{N: tc.n, Lo: 1 << 10, Hi: 1 << 14, MaxStep: 400, Seed: 6})
		vals := make([]int64, tc.n)
		for s := 0; s < 60; s++ {
			src.Step(vals)
			warm.observe(vals)
		}
		if tc.ordered {
			p.SetOrderBounds(warm.mach.Top()[0], 5, 50)
		}
		frame := p.Snapshot(nil)
		flat, err := RestoreNodes(frame, 41)
		if err != nil {
			t.Fatalf("%s: frame rejected: %v", tc, err)
		}
		if (flat.ord != nil) != tc.ordered {
			t.Fatalf("%s: restored bank holds order filters: %v, frame carries some: %v", tc, flat.ord != nil, tc.ordered)
		}
		if !bytes.Equal(flat.Snapshot(nil), frame) {
			t.Fatalf("%s: restored bank re-emits another frame", tc)
		}
		q := &pair{t: t, where: tc.String() + " restored", kern: flat, ref: p.ref}
		q.same()
		d := &bankDriver{mach: warm.mach, bank: q}
		for s := 0; s < 60; s++ {
			src.Step(vals)
			d.observe(vals)
			q.same()
		}
		stop()
	}
}
