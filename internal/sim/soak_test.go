package sim

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/rng"
	"repro/internal/runtime"
	"repro/internal/stream"
)

// buildMixedMatrix concatenates phases from different generator families,
// including abrupt regime switches, which stress reset/handler paths in
// ways no single generator does.
func buildMixedMatrix(n, phaseLen int, seed uint64) [][]int64 {
	sources := []stream.Source{
		stream.NewTwoBand(stream.TwoBandConfig{N: n, K: 3, Seed: seed, Gap: 1 << 16, BandWidth: 1 << 8, MaxStep: 8}),
		stream.NewIID(stream.IIDConfig{N: n, Seed: seed + 1, Dist: stream.Uniform, Lo: 0, Hi: 1 << 20}),
		stream.NewRotation(stream.RotationConfig{N: n, Period: 2, Base: 10, Peak: 1 << 18}),
		stream.NewBursty(stream.BurstyConfig{N: n, Seed: seed + 2, Lo: 0, Hi: 1 << 20, Noise: 3, BurstProb: 0.05, BurstMax: 1 << 16}),
		stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 20, MaxStep: 100, Seed: seed + 3}),
		stream.NewRegime(stream.RegimeConfig{N: n, Seed: seed + 4, Lo: 0, Hi: 1 << 20, CalmStep: 2, WildStep: 1 << 10, SwitchProb: 0.05}),
		stream.NewConst(stream.ConstConfig{N: n, Values: firstRow(n)}),
	}
	var matrix [][]int64
	for _, src := range sources {
		matrix = append(matrix, stream.Collect(src, phaseLen)...)
	}
	return matrix
}

func firstRow(n int) []int64 {
	row := make([]int64, n)
	for i := range row {
		row[i] = int64(i * 37)
	}
	return row
}

// TestSoakMixedRegimes drives every algorithm through six abrupt regime
// switches with per-step oracle checking and filter-validity assertions
// for the core monitor.
func TestSoakMixedRegimes(t *testing.T) {
	phaseLen := 300
	if testing.Short() {
		phaseLen = 60
	}
	const n, k = 24, 3
	matrix := buildMixedMatrix(n, phaseLen, 4001)
	steps := len(matrix)

	t.Run("monitor", func(t *testing.T) {
		m := core.New(core.Config{N: n, K: k, Seed: 4002})
		codec, keys := order.NewCodec(n), make([]order.Key, n)
		for s, vals := range matrix {
			got := m.Observe(vals)
			if want := Oracle(vals, k); !equalInts(got, want) {
				t.Fatalf("step %d: got %v want %v", s, got, want)
			}
			for i, v := range vals {
				keys[i] = codec.Encode(v, i)
			}
			if err := m.Filters().Validate(keys); err != nil {
				t.Fatalf("step %d: %v", s, err)
			}
		}
	})

	t.Run("ordered", func(t *testing.T) {
		om := core.New(core.Config{N: n, K: k, Seed: 4003, Ordered: true})
		for s, vals := range matrix {
			om.Observe(vals)
			if got, want := om.AppendRanking(nil), RankOracle(vals, k); !equalInts(got, want) {
				t.Fatalf("step %d: ranking %v, oracle %v", s, got, want)
			}
		}
	})

	t.Run("baselines", func(t *testing.T) {
		algs := map[string]Algorithm{
			"per-round": baseline.NewPerRound(n, k, 4004),
			"lam":       baseline.NewLamMidpoint(n, k),
			"point":     baseline.NewPointFilter(n, k),
		}
		for name, alg := range algs {
			rep := Run(alg, stream.NewTraceSource(matrix), Config{Steps: steps, K: k, CheckEvery: 1})
			if rep.Errors != 0 {
				t.Fatalf("%s: %d errors", name, rep.Errors)
			}
		}
	})

	t.Run("engine-equivalence", func(t *testing.T) {
		seq := core.New(core.Config{N: n, K: k, Seed: 4005})
		conc := runtime.New(runtime.Config{N: n, K: k, Seed: 4005})
		defer conc.Close()
		for s, vals := range matrix {
			a, b := seq.Observe(vals), conc.Observe(vals)
			if !equalInts(a, b) || seq.Counts() != conc.Counts() {
				t.Fatalf("step %d: engines diverged", s)
			}
		}
	})
}

// TestFuzzEngineEquivalence randomizes (n, k, seed, workload volatility)
// and asserts report- and count-equivalence of the two engines.
func TestFuzzEngineEquivalence(t *testing.T) {
	iters := 40
	steps := 120
	if testing.Short() {
		iters, steps = 10, 60
	}
	r := rng.New(515, 0)
	for it := 0; it < iters; it++ {
		n := 2 + r.Intn(20)
		k := 1 + r.Intn(n)
		seed := r.Uint64()
		maxStep := 1 + r.Int63n(5000)
		src1 := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 18, MaxStep: maxStep, Seed: seed})
		src2 := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 18, MaxStep: maxStep, Seed: seed})
		seq := core.New(core.Config{N: n, K: k, Seed: seed + 1})
		conc := runtime.New(runtime.Config{N: n, K: k, Seed: seed + 1})
		va, vb := make([]int64, n), make([]int64, n)
		for s := 0; s < steps; s++ {
			src1.Step(va)
			src2.Step(vb)
			a, b := seq.Observe(va), conc.Observe(vb)
			if !equalInts(a, b) {
				t.Fatalf("iter %d (n=%d k=%d): reports differ at step %d", it, n, k, s)
			}
			if seq.Counts() != conc.Counts() {
				t.Fatalf("iter %d (n=%d k=%d): counts differ at step %d", it, n, k, s)
			}
			if want := Oracle(va, k); !equalInts(a, want) {
				t.Fatalf("iter %d: oracle mismatch at step %d", it, s)
			}
		}
		conc.Close()
	}
}

// TestFuzzMonitorRandomMatrices feeds completely arbitrary small matrices
// (including negative values and many ties) through the monitor.
func TestFuzzMonitorRandomMatrices(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 15
	}
	r := rng.New(616, 0)
	for it := 0; it < iters; it++ {
		n := 1 + r.Intn(10)
		k := 1 + r.Intn(n)
		steps := 30 + r.Intn(50)
		m := core.New(core.Config{N: n, K: k, Seed: r.Uint64()})
		vals := make([]int64, n)
		for s := 0; s < steps; s++ {
			for i := range vals {
				// Small value range to force heavy tie-breaking.
				vals[i] = r.Int63n(9) - 4
			}
			got := m.Observe(vals)
			if want := Oracle(vals, k); !equalInts(got, want) {
				t.Fatalf("iter %d (n=%d k=%d): step %d got %v want %v vals %v", it, n, k, s, got, want, vals)
			}
		}
	}
}
