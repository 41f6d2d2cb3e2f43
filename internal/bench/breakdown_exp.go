package bench

import (
	"repro/internal/baseline"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stream"
)

// E11PhaseBreakdown attributes every message of Algorithm 1 to its phase —
// the violation protocols, the handler completion + midpoint broadcast, or
// FILTERRESET — on two contrasting workloads. The split mirrors the two
// terms of Theorem 3.3's bound: log ∆ handler executions vs an O(k·M(n))
// reset per OPT segment.
func E11PhaseBreakdown(sc Scale) Table {
	t := Table{
		ID:    "E11",
		Title: "Message breakdown by phase of Algorithm 1",
		Claim: "midpoint workloads are handler-dominated; set-change workloads are reset-dominated",
		Columns: []string{
			"workload", "phase", "up", "bcast", "total", "share",
		},
	}
	const n, k = 32, 4
	workloads := []struct {
		name string
		src  stream.Source
	}{
		{"converging", stream.NewConverging(stream.ConvergingConfig{
			N: n, K: k, Seed: 11001, Gap: 1 << 24, MinGap: 60, HalvingSteps: 6, Jitter: 8,
		})},
		{"band-swaps", stream.NewTwoBand(stream.TwoBandConfig{
			N: n, K: k, Seed: 11002, Gap: 1 << 16, BandWidth: 1 << 8, MaxStep: 6, SwapEvery: sc.Steps / 10,
		})},
	}
	for _, w := range workloads {
		m := core.New(core.Config{N: n, K: k, Seed: 11003})
		rep := sim.Run(m, w.src, sim.Config{Steps: sc.Steps, K: k, CheckEvery: 1})
		if rep.Errors != 0 {
			panic("bench: E11 oracle mismatch")
		}
		total := m.Ledger().Total().Total()
		for _, p := range comm.Phases() {
			c := m.Ledger().PhaseCounts(p)
			t.AddRow(w.name, p.String(), F("%d", c.Up), F("%d", c.Bcast),
				F("%d", c.Total()), F("%.0f%%", 100*float64(c.Total())/float64(total)))
		}
	}
	t.Note("the reset phase includes the mandatory time-0 initialization")
	return t
}

// E12Ablations isolates the three design choices DESIGN.md calls out:
// wide midpoint filters (vs degenerate point filters), the O(log n)
// randomized protocol inside Algorithm 1 (vs gather-all with M(n) = n),
// and monitoring only the k-boundary (vs Lam-style full-order tracking).
func E12Ablations(sc Scale) Table {
	t := Table{
		ID:    "E12",
		Title: "Ablations of Algorithm 1's design choices",
		Claim: "each ingredient (wide filters, sampled protocol, top-k focus) contributes measurably",
		Columns: []string{
			"variant", "msgs", "msgs/step", "overhead vs algorithm1",
		},
	}
	const n, k = 64, 4
	src := stream.NewTwoBand(stream.TwoBandConfig{
		N: n, K: k, Seed: 12001, Gap: 1 << 16, BandWidth: 1 << 9, MaxStep: 24, SwapEvery: sc.Steps / 8,
	})
	matrix := stream.Collect(src, sc.Steps)

	variants := []struct {
		name string
		alg  sim.Algorithm
	}{
		{"algorithm1", core.New(core.Config{N: n, K: k, Seed: 12002})},
		{"gather-all protocol", core.New(core.Config{N: n, K: k, Seed: 12002, UseGather: true})},
		{"point filters", baseline.NewPointFilter(n, k)},
		{"full-order (lam)", baseline.NewLamMidpoint(n, k)},
	}
	var base float64
	rows := make([][2]float64, 0, len(variants))
	for _, v := range variants {
		rep := sim.Run(v.alg, stream.NewTraceSource(matrix), sim.Config{Steps: sc.Steps, K: k, CheckEvery: 1})
		if rep.Errors != 0 {
			panic("bench: E12 oracle mismatch for " + v.name)
		}
		if v.name == "algorithm1" {
			base = rep.MsgsPerStep
		}
		rows = append(rows, [2]float64{float64(rep.Messages.Total()), rep.MsgsPerStep})
	}
	for i, v := range variants {
		t.AddRow(v.name, F("%.0f", rows[i][0]), F("%.2f", rows[i][1]), F("%.1fx", rows[i][1]/base))
	}
	t.Note("gather-all replaces every Algorithm 2 execution with M(n)=n; point filters remove filter width; lam tracks the full order")
	return t
}
