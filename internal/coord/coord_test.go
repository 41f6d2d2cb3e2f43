package coord

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/comm"
	"repro/internal/order"
	"repro/internal/stream"
)

// oracle computes the exact top-k ids (ascending) under the shared
// tie-break injection, mirroring sim.Oracle — which this package cannot
// import since sim's async runner now builds on coord.Pending.
func oracle(vals []int64, k int) []int {
	top := rankOracle(vals, k)
	sort.Ints(top)
	return top
}

// rankOracle is the exact top-k by rank, largest first, under the same
// tie-break (equal values: smaller id wins), mirroring sim.RankOracle.
func rankOracle(vals []int64, k int) []int {
	ids := make([]int, len(vals))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		return vals[ids[a]] > vals[ids[b]] || vals[ids[a]] == vals[ids[b]] && ids[a] < ids[b]
	})
	return ids[:k]
}

// driver is the smallest possible adapter: one Machine over one Nodes
// bank, effects executed by direct calls. It is the skeleton every real
// engine in the repository follows.
type driver struct {
	mach *Machine
	bank *Nodes
	// see and round answer observations and protocol rounds: the bank's
	// own Observe and Round, unless a test swaps in Sub views or a
	// reference (round_test.go).
	see   observeFunc
	round roundFunc
	// orderChecks counts the ordered mode's EffOrderCheck effects.
	orderChecks int
	// reset, when set, runs every FILTERRESET's execution the way
	// Algorithm 1 spells it: the reference of refreset_test.go.
	reset *refReset
	// ran[tag] is the last step the machine asked for an execution of
	// cohort tag in: a node's coins are keyed by (step, tag), so a machine
	// that asked twice in one step would have the second execution flip the
	// first's coins. drive fails on it, in every suite built on this driver
	// — the exhaustive small-scope ones included.
	ran [TagReset + 1]int64
}

func newDriver(n, k int, seed uint64) *driver {
	return newDriverTol(n, k, seed, order.Tol{})
}

func newDriverTol(n, k int, seed uint64, tol order.Tol) *driver {
	bank := NewNodes(n, 0, n, seed, false, tol)
	return &driver{mach: New(Config{N: n, K: k, Tol: tol}), bank: bank, see: bank.Observe, round: bank.Round}
}

func (d *driver) observe(vals []int64) []int { return d.observeDelta(nil, vals) }

// observeDelta is observe for the nodes ids lists (nil: all of them).
func (d *driver) observeDelta(ids []int, vals []int64) []int {
	step := d.mach.BeginStep()
	anyTop, anyOut := false, false
	for id, v := range vals {
		if ids != nil {
			id = ids[id]
		}
		t, o, err := d.see(id, v, step)
		if err != nil {
			panic(err)
		}
		anyTop = anyTop || t
		anyOut = anyOut || o
	}
	d.drive(d.mach.FinishStep(anyTop, anyOut), step)
	return d.mach.Top()
}

// drive executes one effect chain — a step's, or an out-of-band
// ForceReset's — to its EffDone.
func (d *driver) drive(eff Effect, step int64) {
	for eff.Kind != EffDone {
		switch eff.Kind {
		case EffExec:
			if d.ran[eff.Tag] == step && step != 0 {
				panic(fmt.Sprintf("coord: the machine ran cohort tag %d twice in step %d", eff.Tag, step))
			}
			d.ran[eff.Tag] = step
			if d.reset != nil && eff.Tag == TagReset {
				eff = d.reset.run(d.mach, eff, step)
				continue
			}
			eff = d.mach.Deliver(execute(d.round, eff.Tag, eff.Want, eff.Bound, step, d.mach.Recorder(eff.Phase)))
		case EffResetBegin:
			d.bank.ResetBegin()
			if d.reset != nil {
				d.reset.begin()
			}
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
		case EffOrderCheck:
			d.orderChecks++
			eff = d.mach.OrderDone(d.bank.OrderViolated(eff.Target))
		case EffOrderBounds:
			d.bank.SetOrderBounds(eff.Target, eff.Lo, eff.Hi)
			eff = d.mach.Ack()
		default:
			t := eff.Kind
			panic(t)
		}
	}
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMachineExactness drives the sans-I/O core directly over a workload
// and asserts the report equals the oracle at every step — Algorithm 1's
// correctness independent of any substrate.
func TestMachineExactness(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{12, 3}, {9, 1}, {7, 7}, {16, 15}} {
		d := newDriver(tc.n, tc.k, 77)
		src := stream.NewRandomWalk(stream.WalkConfig{N: tc.n, Lo: 0, Hi: 1 << 16, MaxStep: 500, Seed: 5})
		vals := make([]int64, tc.n)
		for s := 0; s < 300; s++ {
			src.Step(vals)
			got := d.observe(vals)
			if want := oracle(vals, tc.k); !equal(got, want) {
				t.Fatalf("n=%d k=%d step %d: got %v want %v", tc.n, tc.k, s, got, want)
			}
		}
		st := d.mach.Stats()
		if st.Steps != 300 {
			t.Fatalf("steps=%d", st.Steps)
		}
		if st.Resets < 1 {
			t.Fatal("no reset executed")
		}
		if tc.k < tc.n && d.mach.Counts().Total() == 0 {
			t.Fatal("ledger stayed empty")
		}
	}
}

// TestMachineStatsAndPhases sanity-checks the ledger attribution: the
// initial step charges only the reset phase, and a violation-free step
// charges nothing.
func TestMachineStatsAndPhases(t *testing.T) {
	d := newDriver(8, 2, 3)
	vals := []int64{10, 20, 30, 40, 50, 60, 70, 80}
	d.observe(vals)
	led := d.mach.Ledger()
	if c := led.PhaseCounts(comm.PhaseViolation); c.Total() != 0 {
		t.Fatalf("violation phase charged on init: %v", c)
	}
	if c := led.PhaseCounts(comm.PhaseReset); c.Total() == 0 {
		t.Fatal("reset phase empty after init")
	}
	before := d.mach.Counts()
	d.observe(vals) // unchanged values: no violation, no traffic
	if after := d.mach.Counts(); after != before {
		t.Fatalf("violation-free step charged: %v -> %v", before, after)
	}
	if st := d.mach.Stats(); st.ViolationSteps != 0 || st.TopChanges != 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

// TestAppendTopCopies pins the ownership contract: AppendTop's result is
// a copy that later steps and caller mutations cannot corrupt.
func TestAppendTopCopies(t *testing.T) {
	d := newDriver(6, 2, 9)
	d.observe([]int64{1, 2, 3, 4, 5, 6})
	got := d.mach.AppendTop(nil)
	if !equal(got, []int{4, 5}) {
		t.Fatalf("top=%v", got)
	}
	got[0], got[1] = -1, -2 // caller scribbles on its copy
	d.observe([]int64{6, 5, 4, 3, 2, 1})
	if want := []int{0, 1}; !equal(d.mach.Top(), want) {
		t.Fatalf("machine state corrupted by caller mutation: top=%v want %v", d.mach.Top(), want)
	}
}

// TestMachineMisusePanics pins the event/effect protocol: out-of-order
// events are bugs, not silent corruption.
func TestMachineMisusePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	m := New(Config{N: 4, K: 2})
	expectPanic("FinishStep before BeginStep", func() { m.FinishStep(false, false) })
	expectPanic("Ack while idle", func() { m.Ack() })
	expectPanic("ExecDone while idle", func() { m.ExecDone(true, 0, 0) })
	m.BeginStep()
	expectPanic("BeginStep twice", func() { m.BeginStep() })
	expectPanic("bad config", func() { New(Config{N: 4, K: 0}) })
}

// TestNodesRangeChecks pins the hosted-range guard rails.
func TestNodesRangeChecks(t *testing.T) {
	b := NewNodes(10, 2, 6, 1, false, order.Tol{})
	if b.Lo() != 2 || b.Hi() != 6 || b.Len() != 4 {
		t.Fatalf("range [%d, %d) len %d", b.Lo(), b.Hi(), b.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Observe did not panic")
		}
	}()
	b.Observe(7, 1, 1)
}

// TestNodesValueDomain pins the value-domain boundary: an out-of-range
// observation is rejected with an error — not a panic — before any node
// state changes; and keys are the tie-break injection only: NewNodes
// refuses to build a bank whose keys would be the raw values.
func TestNodesValueDomain(t *testing.T) {
	b := NewNodes(10, 0, 10, 1, false, order.Tol{})
	mv := b.MaxValue()
	if _, _, err := b.Observe(3, mv, 1); err != nil {
		t.Fatalf("in-range value rejected: %v", err)
	}
	before := b.Key(3)
	if _, _, err := b.Observe(3, mv+1, 1); err == nil {
		t.Fatal("over-capacity value accepted")
	}
	if _, _, err := b.Observe(3, -mv-1, 1); err == nil {
		t.Fatal("under-capacity value accepted")
	}
	if b.Key(3) != before {
		t.Fatal("rejected observation mutated the node's key")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a bank of raw-value keys was built")
		}
	}()
	NewNodes(4, 0, 4, 1, true, order.Tol{})
}

// TestNodesSubSharesState verifies Sub views alias the parent bank's node
// state — the runtime's shards all see one coherent node array.
func TestNodesSubSharesState(t *testing.T) {
	parent := NewNodes(8, 0, 8, 4, false, order.Tol{})
	left, right := parent.Sub(0, 4), parent.Sub(4, 8)
	left.Observe(1, 42, 1)
	right.Observe(6, 24, 1)
	if parent.Key(1) != left.Key(1) || parent.Key(6) != right.Key(6) {
		t.Fatal("sub views do not alias parent state")
	}
}
