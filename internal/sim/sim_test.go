package sim

import (
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/stream"
)

func walkSrc(n int, seed uint64) stream.Source {
	return stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 100000, MaxStep: 300, Seed: seed})
}

func TestRunMonitorNoErrors(t *testing.T) {
	m := core.New(core.Config{N: 12, K: 3, Seed: 1})
	rep := Run(m, walkSrc(12, 2), Config{Steps: 300, K: 3, CheckEvery: 1})
	if rep.Errors != 0 {
		t.Fatalf("monitor produced %d oracle mismatches", rep.Errors)
	}
	if rep.Steps != 300 || rep.Messages.Total() == 0 {
		t.Fatalf("report incomplete: %+v", rep)
	}
	if rep.MsgsPerStep <= 0 {
		t.Fatalf("MsgsPerStep: %v", rep.MsgsPerStep)
	}
}

func TestRunAllBaselinesNoErrors(t *testing.T) {
	algs := map[string]Algorithm{
		"naive":  baseline.NewNaive(8, 2, false),
		"change": baseline.NewNaive(8, 2, true),
		"round":  baseline.NewPerRound(8, 2, 3),
		"point":  baseline.NewPointFilter(8, 2),
		"lam":    baseline.NewLamMidpoint(8, 2),
	}
	for name, alg := range algs {
		rep := Run(alg, walkSrc(8, 4), Config{Steps: 150, K: 2, CheckEvery: 1})
		if rep.Errors != 0 {
			t.Fatalf("%s produced %d errors", name, rep.Errors)
		}
	}
}

func TestRunComputesOpt(t *testing.T) {
	m := core.New(core.Config{N: 10, K: 2, Seed: 5})
	rep := Run(m, walkSrc(10, 6), Config{Steps: 200, K: 2, CheckEvery: 1, ComputeOpt: true})
	if rep.OptSegments < 1 {
		t.Fatalf("opt segments: %d", rep.OptSegments)
	}
	if rep.CompetitiveRatio <= 0 {
		t.Fatalf("ratio: %v", rep.CompetitiveRatio)
	}
	wantRatio := float64(rep.Messages.Total()) / float64(rep.OptSegments)
	if rep.CompetitiveRatio != wantRatio {
		t.Fatalf("ratio %v, want %v", rep.CompetitiveRatio, wantRatio)
	}
}

func TestRunRecordSeries(t *testing.T) {
	m := core.New(core.Config{N: 6, K: 1, Seed: 7})
	rep := Run(m, walkSrc(6, 8), Config{Steps: 100, K: 1, RecordSeries: true})
	if len(rep.Series) != 100 {
		t.Fatalf("series length: %d", len(rep.Series))
	}
	for i := 1; i < len(rep.Series); i++ {
		if rep.Series[i] < rep.Series[i-1] {
			t.Fatalf("cumulative series must be non-decreasing at %d", i)
		}
	}
	if rep.Series[99] != rep.Messages.Total() {
		t.Fatalf("series end %d != total %d", rep.Series[99], rep.Messages.Total())
	}
}

func TestRunDetectsWrongAlgorithm(t *testing.T) {
	// A deliberately broken algorithm must be flagged by the oracle check.
	rep := Run(brokenAlg{}, walkSrc(5, 9), Config{Steps: 50, K: 2, CheckEvery: 1})
	if rep.Errors == 0 {
		t.Fatal("oracle failed to flag a broken algorithm")
	}
}

type brokenAlg struct{}

func (brokenAlg) Observe(vals []int64) []int { return []int{0, 1} }
func (brokenAlg) Counts() comm.Counts        { return comm.Counts{} }

func TestRunPanics(t *testing.T) {
	m := core.New(core.Config{N: 4, K: 1, Seed: 1})
	for i, f := range []func(){
		func() { Run(m, walkSrc(4, 1), Config{Steps: 0, K: 1}) },
		func() { Run(m, walkSrc(4, 1), Config{Steps: 10, K: 0}) },
		func() { Run(m, walkSrc(4, 1), Config{Steps: 10, K: 5}) },
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

func TestMeasureDelta(t *testing.T) {
	matrix := [][]int64{
		{100, 50, 10}, // gap between 1st and 2nd = 50 (in raw values)
		{100, 90, 10}, // gap 10
	}
	d := MeasureDelta(matrix, 1)
	// The injection multiplies raw gaps by n=3 (plus id offsets).
	if d < 3*10 || d > 3*60 {
		t.Fatalf("delta out of plausible range: %d", d)
	}
	if MeasureDelta(matrix, 3) != 0 {
		t.Fatal("k=n delta should be 0")
	}
}

func TestMeasureDeltaGrowsWithGap(t *testing.T) {
	mk := func(gap int64) int64 {
		return MeasureDelta([][]int64{{gap, 0}}, 1)
	}
	if mk(1000) <= mk(10) {
		t.Fatal("delta must grow with the configured gap")
	}
}

func TestMeasureDeltaPanics(t *testing.T) {
	for i, f := range []func(){
		func() { MeasureDelta(nil, 1) },
		func() { MeasureDelta([][]int64{{1, 2}}, 0) },
		func() { MeasureDelta([][]int64{{1, 2}}, 3) },
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

func TestDescribe(t *testing.T) {
	m := core.New(core.Config{N: 5, K: 1, Seed: 11})
	rep := Run(m, walkSrc(5, 12), Config{Steps: 50, K: 1, ComputeOpt: true})
	s := Describe("algo", rep)
	for _, frag := range []string{"algo", "steps=50", "msgs=", "ratio="} {
		if !strings.Contains(s, frag) {
			t.Fatalf("describe missing %q: %s", frag, s)
		}
	}
}

func TestFilterMonitorBeatsNaiveOnCalmInput(t *testing.T) {
	// End-to-end sanity for the paper's whole premise.
	mkSrc := func(seed uint64) stream.Source {
		return stream.NewTwoBand(stream.TwoBandConfig{N: 24, K: 4, Seed: seed, Gap: 1 << 18, BandWidth: 1 << 8, MaxStep: 3})
	}
	mon := Run(core.New(core.Config{N: 24, K: 4, Seed: 13}), mkSrc(14), Config{Steps: 500, K: 4, CheckEvery: 1})
	nai := Run(baseline.NewNaive(24, 4, false), mkSrc(14), Config{Steps: 500, K: 4, CheckEvery: 1})
	if mon.Errors != 0 || nai.Errors != 0 {
		t.Fatal("unexpected errors")
	}
	if mon.Messages.Total()*10 > nai.Messages.Total() {
		t.Fatalf("filter monitor (%d) should be >=10x cheaper than naive (%d)", mon.Messages.Total(), nai.Messages.Total())
	}
}
