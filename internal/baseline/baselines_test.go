package baseline

import (
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/order"
	"repro/internal/stream"
)

// algorithm is the common shape of all baselines under test.
type algorithm interface {
	Observe(vals []int64) []int
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

// checkExact drives an algorithm over a source and asserts exact top-k
// reports at every step.
func checkExact(t *testing.T, alg algorithm, src stream.Source, k, steps int) {
	t.Helper()
	vals := make([]int64, src.N())
	for s := 0; s < steps; s++ {
		src.Step(vals)
		got := alg.Observe(vals)
		want := order.Oracle(vals, k)
		if !equal(got, want) {
			t.Fatalf("step %d: got %v want %v (vals=%v)", s, got, want, vals)
		}
	}
}

func walk(n int, seed uint64) stream.Source {
	return stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 100000, MaxStep: 500, Seed: seed})
}

func iid(n int, seed uint64) stream.Source {
	return stream.NewIID(stream.IIDConfig{N: n, Seed: seed, Dist: stream.Uniform, Lo: 0, Hi: 1 << 20})
}

func TestNaiveExact(t *testing.T) {
	checkExact(t, NewNaive(10, 3, false), walk(10, 1), 3, 200)
	checkExact(t, NewNaive(10, 3, true), iid(10, 2), 3, 200)
}

func TestNaiveCountsEveryValue(t *testing.T) {
	b := NewNaive(5, 2, false)
	src := walk(5, 3)
	vals := make([]int64, 5)
	for s := 0; s < 100; s++ {
		src.Step(vals)
		b.Observe(vals)
	}
	if got := b.Counts().Up; got != 500 {
		t.Fatalf("naive should send n per step: %d", got)
	}
}

func TestNaiveSendOnChange(t *testing.T) {
	b := NewNaive(4, 1, true)
	c := stream.NewConst(stream.ConstConfig{N: 4, Values: []int64{1, 2, 3, 4}})
	vals := make([]int64, 4)
	for s := 0; s < 50; s++ {
		c.Step(vals)
		b.Observe(vals)
	}
	if got := b.Counts().Up; got != 4 {
		t.Fatalf("send-on-change with constant input should send once per node: %d", got)
	}
}

func TestPerRoundExact(t *testing.T) {
	checkExact(t, NewPerRound(12, 4, 7), iid(12, 8), 4, 150)
	checkExact(t, NewPerRound(12, 1, 9), walk(12, 10), 1, 150)
}

func TestPerRoundCostIndependentOfSimilarity(t *testing.T) {
	// Per-round recomputation pays every step even on constant input.
	b := NewPerRound(16, 2, 11)
	c := stream.NewConst(stream.ConstConfig{N: 16, Values: []int64{
		1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}})
	vals := make([]int64, 16)
	for s := 0; s < 100; s++ {
		c.Step(vals)
		b.Observe(vals)
	}
	perStep := float64(b.Counts().Total()) / 100
	if perStep < 2 {
		t.Fatalf("per-round should pay Θ(k log n) per step, got %.1f", perStep)
	}
}

func TestPointFilterExact(t *testing.T) {
	checkExact(t, NewPointFilter(10, 3), walk(10, 13), 3, 200)
}

func TestPointFilterQuietOnConstInput(t *testing.T) {
	b := NewPointFilter(6, 2)
	c := stream.NewConst(stream.ConstConfig{N: 6, Values: []int64{9, 8, 7, 6, 5, 4}})
	vals := make([]int64, 6)
	for s := 0; s < 50; s++ {
		c.Step(vals)
		b.Observe(vals)
	}
	// Init: 6 up + 6 down; afterwards silent.
	if got := b.Counts().Total(); got != 12 {
		t.Fatalf("point filter on constant input: %d messages, want 12", got)
	}
}

func TestPointFilterPaysPerChange(t *testing.T) {
	b := NewPointFilter(4, 1)
	src := walk(4, 15)
	vals := make([]int64, 4)
	for s := 0; s < 100; s++ {
		src.Step(vals)
		b.Observe(vals)
	}
	// Random walk changes nearly every node every step: cost ~ 2*n*steps.
	if got := b.Counts().Total(); got < 700 {
		t.Fatalf("point filter should pay per change: %d", got)
	}
}

func TestLamMidpointExact(t *testing.T) {
	checkExact(t, NewLamMidpoint(10, 3), walk(10, 17), 3, 300)
	checkExact(t, NewLamMidpoint(8, 2), iid(8, 18), 2, 200)
}

func TestLamMidpointExactOnCrossings(t *testing.T) {
	// Swapping bands force repeated order changes through the cascade.
	src := stream.NewTwoBand(stream.TwoBandConfig{N: 12, K: 4, Seed: 19, Gap: 100000, BandWidth: 900, MaxStep: 80, SwapEvery: 25})
	checkExact(t, NewLamMidpoint(12, 4), src, 4, 300)
}

func TestLamMidpointPaysForIrrelevantCrossings(t *testing.T) {
	// Two bottom-band nodes swapping order constantly never affect the
	// top-1, yet Lam-style full-order tracking keeps paying. Algorithm 1's
	// advantage (paper §3.1) is exactly to ignore these.
	const steps = 400
	rows := make([][]int64, steps)
	for s := range rows {
		a, b := int64(100), int64(200)
		if s%2 == 1 {
			a, b = b, a
		}
		rows[s] = []int64{1000000, a, b} // node 0 is always the top-1
	}
	lam := NewLamMidpoint(3, 1)
	checkExact(t, lam, stream.NewTraceSource(rows), 1, steps)
	perStep := float64(lam.Counts().Total()) / steps
	if perStep < 1 {
		t.Fatalf("lam should pay for bottom crossings: %.2f msgs/step", perStep)
	}
}

func TestBaselinePanics(t *testing.T) {
	for i, f := range []func(){
		func() { NewNaive(0, 1, false) },
		func() { NewNaive(3, 4, false) },
		func() { NewPerRound(3, 0, 1) },
		func() { NewPointFilter(-1, 1) },
		func() { NewLamMidpoint(2, 3) },
		func() { NewNaive(3, 1, false).Observe([]int64{1, 2}) },
		func() { NewPerRound(3, 1, 1).Observe([]int64{1}) },
		func() { NewPointFilter(3, 1).Observe([]int64{1}) },
		func() { NewLamMidpoint(3, 1).Observe([]int64{1}) },
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

// TestPerRoundSamplingIsGolden pins three steps of the per-round baseline
// against recorded reports and message counts. The reports and broadcasts
// are the ones recorded when it held one heap-allocated generator per node;
// the Up counts were recorded again when an execution came to draw each
// participant's generator once, for its coin identity, where it had drawn
// one trial a round, and again when the coin came to draw 64 ids a word.
func TestPerRoundSamplingIsGolden(t *testing.T) {
	b := NewPerRound(16, 3, 7)
	vals := make([]int64, 16)
	for s, want := range []struct {
		top    []int
		counts comm.Counts
	}{
		{[]int{3, 8, 13}, comm.Counts{Up: 14, Bcast: 15}},
		{[]int{4, 9, 12}, comm.Counts{Up: 28, Bcast: 30}},
		{[]int{0, 8, 13}, comm.Counts{Up: 40, Bcast: 45}},
	} {
		for i := range vals {
			vals[i] = int64((i*37+s*11)%23) * 5
		}
		if top := b.Observe(vals); !slices.Equal(top, want.top) || b.Counts() != want.counts {
			t.Fatalf("step %d: report %v, counts %+v; recorded %v, %+v", s, top, b.Counts(), want.top, want.counts)
		}
	}
}
