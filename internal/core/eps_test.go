package core

import (
	"testing"

	"repro/internal/filter"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/stream"
)

// TestEpsFilterInvariant asserts the ε-mode counterpart of the exact
// engine's per-step filter invariant: after every step, each node's key
// lies inside its installed filter and the membership is ε-separated
// from the excluded nodes (filter.Set.ValidateEps) — the invariant the
// DESIGN.md validity argument rests on. It also requires the tolerance
// to have actually been exercised: on this workload some steps must
// report a set that differs from the exact top-k (while staying
// ε-valid), otherwise the run would prove nothing about the bands.
func TestEpsFilterInvariant(t *testing.T) {
	const n, k, steps, eps = 24, 4, 600, 0.05
	tol, err := order.NewTol(eps)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{N: n, K: k, Seed: 13, Epsilon: eps})
	src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 1 << 20, Hi: 1 << 21, MaxStep: 1 << 13, Seed: 29})
	vals := make([]int64, n)
	approxSteps := 0
	for s := 0; s < steps; s++ {
		src.Step(vals)
		top := m.Observe(vals)
		if err := m.Filters().ValidateEps(filter.Column(m.Keys()), tol); err != nil {
			t.Fatalf("step %d: ε filter invariant broken: %v", s, err)
		}
		if !equalInts(top, order.Oracle(vals, k)) {
			if !sim.EpsValid(vals, top, k, eps) {
				t.Fatalf("step %d: report %v neither exact nor ε-valid", s, top)
			}
			approxSteps++
		}
	}
	if approxSteps == 0 {
		t.Fatal("every report was exactly the oracle set: the bands never absorbed a crossing, workload too tame")
	}
}
