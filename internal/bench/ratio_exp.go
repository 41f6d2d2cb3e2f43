package bench

import (
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/stream"
)

// ratioRun drives a fresh monitor over a recorded matrix and returns
// (total messages, OPT segments, measured ratio).
func ratioRun(matrix [][]int64, k int, seed uint64) (msgs int64, opt int, ratio float64) {
	n := len(matrix[0])
	m := core.New(core.Config{N: n, K: k, Seed: seed})
	rep := sim.Run(m, stream.NewTraceSource(matrix), sim.Config{
		Steps: len(matrix), K: k, CheckEvery: 1, ComputeOpt: true,
	})
	if rep.Errors != 0 {
		panic("bench: monitor produced oracle mismatches")
	}
	return rep.Messages.Total(), rep.OptSegments, rep.CompetitiveRatio
}

// E4RatioVsDelta sweeps the paper's ∆ via the converging-bands workload:
// the offline OPT needs a single filter assignment for the whole horizon
// while the monitor performs ~log2(∆) midpoint updates per descent, so the
// measured ratio should grow linearly in log ∆ (Theorem 3.3's log ∆ term).
func E4RatioVsDelta(sc Scale) Table {
	t := Table{
		ID:    "E4",
		Title: "Competitive ratio vs ∆ (converging bands, one cycle)",
		Claim: "ratio grows ~ log ∆ at fixed k, n (Thm 3.3)",
		Columns: []string{
			"gap", "log2 ∆", "steps", "opt", "mean msgs", "mean ratio", "handler calls",
		},
	}
	const n, k = 32, 4
	var logDeltas, ratios []float64
	for _, g := range []uint{8, 12, 16, 20, 24, 28, 32} {
		gap := int64(1) << g
		var msgsS, ratioS, handlerS []float64
		var steps, optSeg int
		var delta int64
		for trial := 0; trial < sc.Trials; trial++ {
			src := stream.NewConverging(stream.ConvergingConfig{
				N: n, K: k, Seed: uint64(g)*100 + uint64(trial),
				Gap: gap, MinGap: 60, HalvingSteps: 6, Jitter: 8,
			})
			steps = src.CycleLen()
			matrix := stream.Collect(src, steps)
			delta = sim.MeasureDelta(matrix, k)
			mon := core.New(core.Config{N: n, K: k, Seed: uint64(g)*991 + uint64(trial)})
			rep := sim.Run(mon, stream.NewTraceSource(matrix), sim.Config{Steps: steps, K: k, CheckEvery: 1, ComputeOpt: true})
			if rep.Errors != 0 {
				panic("bench: E4 oracle mismatch")
			}
			optSeg = rep.OptSegments
			msgsS = append(msgsS, float64(rep.Messages.Total()))
			ratioS = append(ratioS, rep.CompetitiveRatio)
			handlerS = append(handlerS, float64(mon.Stats().HandlerCalls))
		}
		ld := math.Log2(float64(delta))
		t.AddRow(F("2^%d", g), F("%.1f", ld), F("%d", steps), F("%d", optSeg),
			F("%.0f", stats.Mean(msgsS)), F("%.1f", stats.Mean(ratioS)), F("%.1f", stats.Mean(handlerS)))
		logDeltas = append(logDeltas, ld)
		ratios = append(ratios, stats.Mean(ratioS))
	}
	fit := stats.LinearFit(logDeltas, ratios)
	t.Note("fit: ratio ≈ %.1f*log2(∆) + %.1f (R²=%.3f) — linear in log ∆ as predicted", fit.Slope, fit.Intercept, fit.R2)
	return t
}

// E5RatioVsK sweeps k with fixed n on a band-swap workload: each swap is
// one OPT filter update but forces the monitor through a FILTERRESET for
// the k+1 largest keys, so the ratio should grow roughly linearly in k.
func E5RatioVsK(sc Scale) Table {
	t := Table{
		ID:    "E5",
		Title: "Competitive ratio vs k (band swaps)",
		Claim: "ratio grows ~ +k at fixed ∆, n (reset costs O(k·M(n)); Thm 3.3)",
		Columns: []string{
			"k", "mean msgs", "mean opt", "mean ratio", "ratio/(k+1)",
		},
	}
	const n = 64
	var ks, ratios []float64
	for _, k := range []int{1, 2, 4, 8, 16, 32} {
		var ratioS, msgsS, optS []float64
		for trial := 0; trial < sc.Trials; trial++ {
			src := stream.NewTwoBand(stream.TwoBandConfig{
				N: n, K: k, Seed: uint64(k)*37 + uint64(trial),
				Gap: 1 << 16, BandWidth: 1 << 8, MaxStep: 6, SwapEvery: sc.Steps / 10,
			})
			matrix := stream.Collect(src, sc.Steps)
			msgs, opt, ratio := ratioRun(matrix, k, uint64(k)*53+uint64(trial))
			msgsS = append(msgsS, float64(msgs))
			optS = append(optS, float64(opt))
			ratioS = append(ratioS, ratio)
		}
		mr := stats.Mean(ratioS)
		t.AddRow(F("%d", k), F("%.0f", stats.Mean(msgsS)), F("%.1f", stats.Mean(optS)),
			F("%.1f", mr), F("%.2f", mr/float64(k+1)))
		ks = append(ks, float64(k))
		ratios = append(ratios, mr)
	}
	fit := stats.LinearFit(ks, ratios)
	t.Note("fit: ratio ≈ %.2f*k + %.1f (R²=%.3f) — at most linear in k, as the bound predicts (a reset hears each node once, so the growth flattens as k+1 nears n)", fit.Slope, fit.Intercept, fit.R2)
	return t
}

// E6RatioVsN sweeps n with fixed k: the per-reset and per-handler protocol
// cost is M(n) = O(log n), so the ratio should grow logarithmically in n
// (Theorem 4.4's combined bound).
func E6RatioVsN(sc Scale) Table {
	t := Table{
		ID:    "E6",
		Title: "Competitive ratio vs n (band swaps)",
		Claim: "ratio grows ~ log n at fixed k, ∆ (Thm 4.4: M(n) = O(log n))",
		Columns: []string{
			"n", "mean msgs", "mean opt", "mean ratio", "ratio/log2(n)",
		},
	}
	const k = 4
	var ns, ratios []float64
	for e := 3; e <= sc.MonMaxExp; e++ {
		n := 1 << e
		if n <= k {
			continue
		}
		var ratioS, msgsS, optS []float64
		for trial := 0; trial < sc.Trials; trial++ {
			src := stream.NewTwoBand(stream.TwoBandConfig{
				N: n, K: k, Seed: uint64(n)*13 + uint64(trial),
				Gap: 1 << 16, BandWidth: 1 << 8, MaxStep: 6, SwapEvery: sc.Steps / 10,
			})
			matrix := stream.Collect(src, sc.Steps)
			msgs, opt, ratio := ratioRun(matrix, k, uint64(n)*29+uint64(trial))
			msgsS = append(msgsS, float64(msgs))
			optS = append(optS, float64(opt))
			ratioS = append(ratioS, ratio)
		}
		mr := stats.Mean(ratioS)
		t.AddRow(F("%d", n), F("%.0f", stats.Mean(msgsS)), F("%.1f", stats.Mean(optS)),
			F("%.1f", mr), F("%.2f", mr/math.Log2(float64(n))))
		ns = append(ns, float64(n))
		ratios = append(ratios, mr)
	}
	fit := stats.LogXFit(ns, ratios)
	t.Note("log2-fit: ratio ≈ %.1f*log2(n) + %.1f (R²=%.3f) — logarithmic in n as predicted", fit.Slope, fit.Intercept, fit.R2)
	return t
}
