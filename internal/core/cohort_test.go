package core

import (
	"fmt"
	"testing"

	"repro/internal/coord"
	"repro/internal/order"
	"repro/internal/protocol"
	"repro/internal/stream"
	"repro/internal/wire"
)

// bankDriver is Algorithm 1 in its node-local formulation: one
// coord.Machine over one coord.Nodes bank, where every node decides its
// own cohort membership. The monitor's described cohorts are checked
// against it.
type bankDriver struct {
	mach *coord.Machine
	bank *coord.Nodes
}

func (d *bankDriver) observe(t *testing.T, vals []int64) []int {
	step := d.mach.BeginStep()
	anyTop, anyOut := false, false
	for id, v := range vals {
		top, out, err := d.bank.Observe(id, v, step)
		if err != nil {
			t.Fatal(err)
		}
		anyTop, anyOut = anyTop || top, anyOut || out
	}
	eff := d.mach.FinishStep(anyTop, anyOut)
	for eff.Kind != coord.EffDone {
		switch eff.Kind {
		case coord.EffExec:
			ex := protocol.NewExec(eff.Bound, coord.MinimumTag(eff.Tag), d.mach.Recorder(eff.Phase), nil, step)
			for ex.More() {
				d.bank.Round(eff.Tag, ex.Round(), ex.Best(), eff.Bound, step, ex.Bid)
				ex.EndRound()
			}
			res := ex.Result()
			eff = d.mach.ExecDone(res.OK, res.ID, res.Key)
		case coord.EffResetBegin:
			d.bank.ResetBegin()
			eff = d.mach.Ack()
		case coord.EffWinner:
			d.bank.Winner(eff.Target, eff.IsTop)
			eff = d.mach.Ack()
		case coord.EffMidpoint:
			d.bank.Midpoint(eff.Mid, eff.Full)
			eff = d.mach.Ack()
		case coord.EffBounds:
			d.bank.ApplyBounds(eff.Lo, eff.Hi)
			eff = d.mach.Ack()
		default:
			t.Fatalf("unknown effect %d", eff.Kind)
		}
	}
	return d.mach.Top()
}

// TestCohortsMatchNodeLocalMembership runs the monitor beside the
// node-local formulation and compares, after every step, the report, the
// ledger, and — through both sides' checkpoint frames — every node's key
// and generator state. The monitor describes cohorts by short id lists
// (violators from the step's filter checks, the top side from the filter
// set's cached membership, outsiders as everyone but that membership,
// reset candidates as everyone but the winners extracted so far); equal
// generator states say each description enlisted exactly the nodes that
// would have enlisted themselves, in every execution.
func TestCohortsMatchNodeLocalMembership(t *testing.T) {
	for _, tc := range []struct {
		n, k int
		eps  float64
	}{{12, 3, 0}, {9, 1, 0}, {7, 7, 0}, {40, 39, 0}, {64, 5, 0.1}, {33, 16, 0.02}} {
		name := fmt.Sprintf("n=%d k=%d eps=%g", tc.n, tc.k, tc.eps)
		tol, err := order.NewTol(tc.eps)
		if err != nil {
			t.Fatal(err)
		}
		m := New(Config{N: tc.n, K: tc.k, Seed: 41, Epsilon: tc.eps})
		d := &bankDriver{
			mach: coord.New(coord.Config{N: tc.n, K: tc.k, Tol: tol}),
			bank: coord.NewNodes(tc.n, 0, tc.n, 41, false, tol),
		}
		src := stream.NewRandomWalk(stream.WalkConfig{N: tc.n, Lo: 1 << 10, Hi: 1 << 14, MaxStep: 400, Seed: 6})
		vals := make([]int64, tc.n)
		for s := 0; s < 250; s++ {
			src.Step(vals)
			got, want := m.Observe(vals), d.observe(t, vals)
			where := fmt.Sprintf("%s step %d", name, s)
			if !equalInts(got, want) {
				t.Fatalf("%s: report %v, node-local %v", where, got, want)
			}
			if m.Counts() != d.mach.Counts() || m.Bytes() != d.mach.Bytes() {
				t.Fatalf("%s: ledger %v/%v, node-local %v/%v", where, m.Counts(), m.Bytes(), d.mach.Counts(), d.mach.Bytes())
			}
			_, frame, err := m.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			var ours, theirs wire.BankState
			if err := ours.Decode(frame); err != nil {
				t.Fatal(err)
			}
			if err := theirs.Decode(d.bank.Snapshot(nil)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.n; i++ {
				if ours.Keys[i] != theirs.Keys[i] || ours.RngState[i] != theirs.RngState[i] {
					t.Fatalf("%s: node %d key/generator %d/%#x, node-local %d/%#x", where, i,
						ours.Keys[i], ours.RngState[i], theirs.Keys[i], theirs.RngState[i])
				}
			}
		}
		if st := m.Stats(); st != d.mach.Stats() {
			t.Fatalf("%s: stats %+v, node-local %+v", name, st, d.mach.Stats())
		}
		if st := m.Stats(); tc.k < tc.n && (st.Resets < 2 || st.HandlerCalls == 0) {
			t.Fatalf("%s: workload too calm to exercise the cohorts: %+v", name, st)
		}
	}
}

// TestRepeatedFilterResetZeroAllocs pins that FILTERRESET runs out of the
// monitor's own buffers: once the first reset has sized the in-play set,
// every later reset — k+1 executions over all n nodes each — allocates
// nothing.
func TestRepeatedFilterResetZeroAllocs(t *testing.T) {
	const n, k = 512, 8
	m := New(Config{N: n, K: k, Seed: 3})
	// Two vectors with disjoint top-k sets: every switch between them
	// violates filters on both sides and forces a reset.
	a, b := make([]int64, n), make([]int64, n)
	for i := range a {
		a[i], b[i] = int64(i), int64(n-i)
	}
	m.Observe(a)
	m.Observe(b)
	flip := false
	before := m.Stats().Resets
	const runs = 50
	if avg := testing.AllocsPerRun(runs, func() {
		if flip = !flip; flip {
			m.Observe(a)
		} else {
			m.Observe(b)
		}
	}); avg != 0 {
		t.Fatalf("an Observe that resets allocates %.2f per step, want 0", avg)
	}
	if got := m.Stats().Resets - before; got != runs+1 { // AllocsPerRun warms up once
		t.Fatalf("%d resets over %d flips: the pin did not measure resets", got, runs+1)
	}
}
