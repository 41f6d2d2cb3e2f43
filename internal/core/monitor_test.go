package core

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/comm"
	"repro/internal/order"
	"repro/internal/stream"
)

// oracleTop computes the true top-k ids (ascending) under the monitor's
// own key mapping.
func oracleTop(m *Monitor, vals []int64) []int {
	keys := make([]order.Key, m.N())
	m.EncodeAll(vals, keys)
	ids := make([]int, m.N())
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool { return keys[ids[a]] > keys[ids[b]] })
	top := append([]int(nil), ids[:m.K()]...)
	sort.Ints(top)
	return top
}

// runChecked drives the monitor over a source for steps steps, asserting
// exact correctness and filter validity (Lemma 2.2) after every step.
func runChecked(t *testing.T, m *Monitor, src stream.Source, steps int) {
	t.Helper()
	vals := make([]int64, m.N())
	keys := make([]order.Key, m.N())
	for s := 0; s < steps; s++ {
		src.Step(vals)
		got := m.Observe(vals)
		want := oracleTop(m, vals)
		if !equalInts(got, want) {
			t.Fatalf("step %d: reported top-k %v, oracle %v (vals=%v)", s, got, want, vals)
		}
		m.EncodeAll(vals, keys)
		if err := m.Filters().Validate(keys); err != nil {
			t.Fatalf("step %d: invalid filter set: %v", s, err)
		}
		if m.Filters().CountTop() != m.K() {
			t.Fatalf("step %d: membership size %d", s, m.Filters().CountTop())
		}
	}
}

func TestMonitorRandomWalkExact(t *testing.T) {
	m := New(Config{N: 16, K: 3, Seed: 1})
	src := stream.NewRandomWalk(stream.WalkConfig{N: 16, Lo: 0, Hi: 10000, MaxStep: 50, Seed: 2})
	runChecked(t, m, src, 400)
	if m.Stats().Steps != 400 {
		t.Fatalf("steps: %+v", m.Stats())
	}
}

func TestMonitorIIDExact(t *testing.T) {
	// IID uniform redraws force constant violations — the stress case.
	m := New(Config{N: 12, K: 4, Seed: 3})
	src := stream.NewIID(stream.IIDConfig{N: 12, Seed: 4, Dist: stream.Uniform, Lo: 0, Hi: 1 << 20})
	runChecked(t, m, src, 250)
	if m.Stats().Resets < 2 {
		t.Fatalf("IID workload should force resets: %+v", m.Stats())
	}
}

func TestMonitorRotationExact(t *testing.T) {
	m := New(Config{N: 8, K: 1, Seed: 5})
	src := stream.NewRotation(stream.RotationConfig{N: 8, Period: 3, Base: 100, Peak: 1000})
	runChecked(t, m, src, 200)
	if m.Stats().TopChanges < 50 {
		t.Fatalf("rotation should change top-1 often: %+v", m.Stats())
	}
}

func TestMonitorTwoBandExact(t *testing.T) {
	m := New(Config{N: 20, K: 5, Seed: 6})
	src := stream.NewTwoBand(stream.TwoBandConfig{N: 20, K: 5, Seed: 7, Gap: 100000, BandWidth: 1000, MaxStep: 30, SwapEvery: 40})
	runChecked(t, m, src, 300)
}

func TestMonitorBurstyExact(t *testing.T) {
	m := New(Config{N: 10, K: 2, Seed: 8})
	src := stream.NewBursty(stream.BurstyConfig{N: 10, Seed: 9, Lo: 0, Hi: 1 << 24, Noise: 5, BurstProb: 0.02, BurstMax: 1 << 20})
	runChecked(t, m, src, 300)
}

func TestMonitorConstCommunicatesOnceThenSilent(t *testing.T) {
	m := New(Config{N: 8, K: 2, Seed: 10})
	vals := []int64{10, 20, 30, 40, 50, 60, 70, 80}
	src := stream.NewConst(stream.ConstConfig{N: 8, Values: vals})
	runChecked(t, m, src, 5)
	afterInit := m.Ledger().Total().Total()
	runChecked(t, m, src, 100)
	if got := m.Ledger().Total().Total(); got != afterInit {
		t.Fatalf("constant input must cost nothing after init: %d -> %d", afterInit, got)
	}
	if m.Stats().Resets != 1 {
		t.Fatalf("only the init reset should run: %+v", m.Stats())
	}
}

func TestMonitorKEqualsN(t *testing.T) {
	m := New(Config{N: 5, K: 5, Seed: 11})
	src := stream.NewIID(stream.IIDConfig{N: 5, Seed: 12, Dist: stream.Uniform, Lo: 0, Hi: 1000})
	runChecked(t, m, src, 100)
	// After initialization the filters are unconstrained: zero traffic.
	afterInit := m.Ledger().Total().Total()
	runChecked(t, m, src, 100)
	if got := m.Ledger().Total().Total(); got != afterInit {
		t.Fatalf("k=n must be silent after init: %d -> %d", afterInit, got)
	}
}

func TestMonitorK1N1(t *testing.T) {
	m := New(Config{N: 1, K: 1, Seed: 13})
	src := stream.NewIID(stream.IIDConfig{N: 1, Seed: 14, Dist: stream.Uniform, Lo: 0, Hi: 100})
	runChecked(t, m, src, 50)
	if got := m.Top(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("single node top: %v", got)
	}
}

func TestMonitorKEqualsNMinus1(t *testing.T) {
	m := New(Config{N: 6, K: 5, Seed: 15})
	src := stream.NewRandomWalk(stream.WalkConfig{N: 6, Lo: 0, Hi: 5000, MaxStep: 100, Seed: 16})
	runChecked(t, m, src, 200)
}

func TestMonitorDistinctValuesMode(t *testing.T) {
	// Rotation emits duplicate base values, so construct a distinct-value
	// trace: a shifted permutation per step.
	rows := make([][]int64, 100)
	for t0 := range rows {
		rows[t0] = make([]int64, 7)
		for i := range rows[t0] {
			rows[t0][i] = int64((i*13+t0*7)%101)*100 + int64(i)
		}
	}
	m := New(Config{N: 7, K: 2, Seed: 17, DistinctValues: true})
	runChecked(t, m, stream.NewTraceSource(rows), 100)
}

func TestMonitorDeterministic(t *testing.T) {
	run := func() (comm.Counts, Stats) {
		m := New(Config{N: 10, K: 3, Seed: 21})
		src := stream.NewRandomWalk(stream.WalkConfig{N: 10, Lo: 0, Hi: 10000, MaxStep: 200, Seed: 22})
		vals := make([]int64, 10)
		for s := 0; s < 200; s++ {
			src.Step(vals)
			m.Observe(vals)
		}
		return m.Ledger().Total(), m.Stats()
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 || s1 != s2 {
		t.Fatalf("non-deterministic run: %v/%v vs %v/%v", c1, s1, c2, s2)
	}
}

func TestMonitorPhaseBreakdownConsistent(t *testing.T) {
	m := New(Config{N: 16, K: 4, Seed: 23})
	src := stream.NewBursty(stream.BurstyConfig{N: 16, Seed: 24, Lo: 0, Hi: 1 << 20, Noise: 3, BurstProb: 0.05, BurstMax: 1 << 18})
	vals := make([]int64, 16)
	for s := 0; s < 300; s++ {
		src.Step(vals)
		m.Observe(vals)
	}
	var phaseSum int64
	for _, p := range comm.Phases() {
		phaseSum += m.Ledger().PhaseCounts(p).Total()
	}
	if total := m.Ledger().Total().Total(); phaseSum != total {
		t.Fatalf("phase sum %d != total %d", phaseSum, total)
	}
	if m.Ledger().PhaseCounts(comm.PhaseReset).Total() == 0 {
		t.Fatal("initialization reset should have cost something")
	}
}

func TestMonitorFewMessagesOnSimilarInputs(t *testing.T) {
	// The motivating claim (§2.1): on slowly-changing inputs the filter
	// algorithm communicates much less than recomputing every round. The
	// naive per-step cost would be >= n*steps; we demand at least 10x less.
	const n, steps = 32, 1000
	m := New(Config{N: n, K: 3, Seed: 25})
	src := stream.NewTwoBand(stream.TwoBandConfig{N: n, K: 3, Seed: 26, Gap: 1 << 20, BandWidth: 1 << 10, MaxStep: 4})
	vals := make([]int64, n)
	for s := 0; s < steps; s++ {
		src.Step(vals)
		m.Observe(vals)
	}
	if got := m.Ledger().Total().Total(); got > n*steps/10 {
		t.Fatalf("filter algorithm too chatty on similar inputs: %d messages", got)
	}
}

func TestMonitorTraceCaptures(t *testing.T) {
	tr := comm.NewTrace(10000)
	m := New(Config{N: 8, K: 2, Seed: 27, Trace: tr})
	src := stream.NewIID(stream.IIDConfig{N: 8, Seed: 28, Dist: stream.Uniform, Lo: 0, Hi: 1 << 16})
	vals := make([]int64, 8)
	for s := 0; s < 20; s++ {
		src.Step(vals)
		m.Observe(vals)
	}
	if tr.Len() == 0 {
		t.Fatal("trace should record events")
	}
}

func TestMonitorPanics(t *testing.T) {
	for i, f := range []func(){
		func() { New(Config{N: 0, K: 1}) },
		func() { New(Config{N: 3, K: 0}) },
		func() { New(Config{N: 3, K: 4}) },
		func() { New(Config{N: 3, K: 1}).Observe([]int64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestMonitorEncodeAllMismatchPanics(t *testing.T) {
	m := New(Config{N: 3, K: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.EncodeAll([]int64{1, 2, 3}, make([]order.Key, 2))
}

func TestMonitorStatsProgression(t *testing.T) {
	m := New(Config{N: 8, K: 2, Seed: 31})
	src := stream.NewIID(stream.IIDConfig{N: 8, Seed: 32, Dist: stream.Uniform, Lo: 0, Hi: 1 << 20})
	vals := make([]int64, 8)
	for s := 0; s < 100; s++ {
		src.Step(vals)
		m.Observe(vals)
	}
	st := m.Stats()
	if st.Steps != 100 || st.Resets < 1 || st.HandlerCalls > st.ViolationSteps {
		t.Fatalf("stats inconsistent: %+v", st)
	}
}

func TestMonitorKeysSnapshot(t *testing.T) {
	m := New(Config{N: 3, K: 1, Seed: 33})
	m.Observe([]int64{5, 10, 1})
	ks := m.Keys()
	if len(ks) != 3 {
		t.Fatalf("keys: %v", ks)
	}
	ks[0] = 999 // mutating the snapshot must not affect the monitor
	ks2 := m.Keys()
	if ks2[0] == 999 {
		t.Fatal("Keys must return a copy")
	}
}

func TestMonitorNegativeValues(t *testing.T) {
	m := New(Config{N: 5, K: 2, Seed: 35})
	src := stream.NewRandomWalk(stream.WalkConfig{N: 5, Lo: -10000, Hi: -100, MaxStep: 50, Seed: 36})
	runChecked(t, m, src, 200)
}

func TestMonitorManyTies(t *testing.T) {
	// All nodes share the same value at every step: pure tie-break regime
	// for the injection. The top-k must be the k smallest ids.
	m := New(Config{N: 9, K: 3, Seed: 37})
	src := stream.NewConst(stream.ConstConfig{N: 9, Values: []int64{7, 7, 7, 7, 7, 7, 7, 7, 7}})
	runChecked(t, m, src, 30)
	if got := m.Top(); !equalInts(got, []int{0, 1, 2}) {
		t.Fatalf("tie-break top: %v", got)
	}
}

func equalInts(a, b []int) bool { return slices.Equal(a, b) }
