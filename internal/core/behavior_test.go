package core

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/order"
	"repro/internal/stream"
)

// TestMonitorCommonModeGrowth documents the algorithm's known expensive
// regime: when every node's value rises in lockstep (monotone common-mode
// drift), outside nodes keep crossing any fixed midpoint, T− keeps rising
// past the stale T+, and resets recur. Reports must remain exact; cost is
// allowed to be high.
func TestMonitorCommonModeGrowth(t *testing.T) {
	const n, k, steps = 12, 3, 300
	m := New(Config{N: n, K: k, Seed: 81})
	vals := make([]int64, n)
	base := make([]int64, n)
	for i := range base {
		base[i] = int64((n - i) * 1000) // fixed order, distinct levels
	}
	for s := 0; s < steps; s++ {
		for i := range vals {
			vals[i] = base[i] + int64(s)*700 // strong common-mode climb
		}
		got := m.Observe(vals)
		if want := oracleTop(m, vals); !equalInts(got, want) {
			t.Fatalf("step %d: got %v want %v", s, got, want)
		}
	}
	st := m.Stats()
	// TopChanges counts the init transition (empty -> first report), so a
	// workload with a fixed order reports exactly 1.
	if st.TopChanges != 1 {
		t.Fatalf("fixed order must never change the set after init: %+v", st)
	}
	if st.Resets < 5 {
		t.Fatalf("common-mode growth should force recurring resets, got %d", st.Resets)
	}
}

// TestMonitorCommonModeWithinFilters verifies the flip side: common-mode
// drift smaller than the k/k+1 gap stays inside the filters and is free.
func TestMonitorCommonModeWithinFilters(t *testing.T) {
	const n, k = 8, 2
	m := New(Config{N: n, K: k, Seed: 82})
	vals := make([]int64, n)
	for s := 0; s < 100; s++ {
		for i := range vals {
			// Gap between adjacent nodes is 10000; total drift is < 300.
			vals[i] = int64((n-i)*10000) + int64(s%3)
		}
		m.Observe(vals)
	}
	afterInit := m.Counts().Total()
	for s := 0; s < 200; s++ {
		for i := range vals {
			vals[i] = int64((n-i)*10000) + int64(s%3)
		}
		m.Observe(vals)
	}
	if m.Counts().Total() != afterInit {
		t.Fatalf("small common-mode drift should be free: %d -> %d", afterInit, m.Counts().Total())
	}
}

// TestMonitorExtremeMagnitudes drives values near the codec capacity.
func TestMonitorExtremeMagnitudes(t *testing.T) {
	const n, k = 4, 2
	m := New(Config{N: n, K: k, Seed: 83})
	lim := order.NewCodec(n).MaxValue()
	rows := [][]int64{
		{lim, -lim, lim - 5, -lim + 5},
		{lim - 1, -lim + 1, lim - 4, -lim + 4},
		{-lim, lim, -lim + 7, lim - 7},
		{0, 1, -1, 2},
	}
	for s, vals := range rows {
		got := m.Observe(vals)
		if want := oracleTop(m, vals); !equalInts(got, want) {
			t.Fatalf("step %d: got %v want %v", s, got, want)
		}
	}
}

// TestMonitorEncodeAllOverflowPanics documents the capacity boundary on
// Observe (the id is older than the deletion of EncodeAll).
func TestMonitorEncodeAllOverflowPanics(t *testing.T) {
	m := New(Config{N: 4, K: 1, Seed: 84})
	lim := order.NewCodec(4).MaxValue()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic beyond codec capacity")
		}
	}()
	m.Observe([]int64{lim + 1, 0, 0, 0})
}

// TestMonitorViolationStepsAccounting cross-checks the stats counters
// against the phase ledger: every violation step implies handler traffic,
// and steps without violations charge nothing.
func TestMonitorViolationStepsAccounting(t *testing.T) {
	const n, k, steps = 10, 2, 400
	m := New(Config{N: n, K: k, Seed: 85})
	src := stream.NewBursty(stream.BurstyConfig{N: n, Seed: 86, Lo: 0, Hi: 1 << 20, Noise: 2, BurstProb: 0.03, BurstMax: 1 << 16})
	vals := make([]int64, n)
	var prevTotal int64
	var chargedSteps int64
	for s := 0; s < steps; s++ {
		src.Step(vals)
		m.Observe(vals)
		if cur := m.Counts().Total(); cur != prevTotal {
			chargedSteps++
			prevTotal = cur
		}
	}
	st := m.Stats()
	// Every charged step after init is a violation step; init adds one.
	if chargedSteps > st.ViolationSteps+1 {
		t.Fatalf("charged on %d steps but only %d violation steps", chargedSteps, st.ViolationSteps)
	}
	if st.HandlerCalls != st.ViolationSteps {
		t.Fatalf("each violation step should invoke the handler exactly once: %+v", st)
	}
	if st.Resets > st.HandlerCalls+1 {
		t.Fatalf("resets (%d) cannot exceed handler calls (+init): %+v", st.Resets, st)
	}
}

// TestMonitorRegimeWorkload runs the Markov volatility workload end to
// end: exact reports, and the calm phases must be cheaper than the wild
// ones.
func TestMonitorRegimeWorkload(t *testing.T) {
	const n, k, steps = 16, 3, 1500
	g := stream.NewRegime(stream.RegimeConfig{N: n, Seed: 87, Lo: 0, Hi: 1 << 20, CalmStep: 1, WildStep: 1 << 16, SwitchProb: 0.02})
	m := New(Config{N: n, K: k, Seed: 88})
	vals := make([]int64, n)
	var calmCost, wildCost, calmSteps, wildSteps float64
	var prev int64
	for s := 0; s < steps; s++ {
		g.Step(vals)
		got := m.Observe(vals)
		if want := oracleTop(m, vals); !equalInts(got, want) {
			t.Fatalf("step %d: got %v want %v", s, got, want)
		}
		cost := float64(m.Counts().Total() - prev)
		prev = m.Counts().Total()
		if g.Wild() {
			wildCost += cost
			wildSteps++
		} else {
			calmCost += cost
			calmSteps++
		}
	}
	if calmSteps == 0 || wildSteps == 0 {
		t.Skip("chain stayed in one regime for this seed")
	}
	if wildCost/wildSteps <= calmCost/calmSteps {
		t.Fatalf("wild regime should cost more per step: calm=%.2f wild=%.2f",
			calmCost/calmSteps, wildCost/wildSteps)
	}
}

// TestMonitorTraceMatchesLedger replays the event trace and cross-checks
// it against the ledger totals, tying the two accounting mechanisms
// together.
func TestMonitorTraceMatchesLedger(t *testing.T) {
	tr := comm.NewTrace(1 << 20)
	const n, k = 8, 2
	m := New(Config{N: n, K: k, Seed: 89, Trace: tr})
	src := stream.NewIID(stream.IIDConfig{N: n, Seed: 90, Dist: stream.Uniform, Lo: 0, Hi: 1 << 18})
	vals := make([]int64, n)
	for s := 0; s < 50; s++ {
		src.Step(vals)
		m.Observe(vals)
	}
	if tr.Dropped() != 0 {
		t.Fatal("trace overflowed")
	}
	var ups, bcasts int64
	for _, e := range tr.Events() {
		switch e.Kind {
		case comm.Up:
			ups++
		case comm.Bcast:
			bcasts++
		}
	}
	tot := m.Ledger().Total()
	if ups != tot.Up || bcasts != tot.Bcast {
		t.Fatalf("trace (%d up, %d bcast) vs ledger (%d up, %d bcast)", ups, bcasts, tot.Up, tot.Bcast)
	}
}
