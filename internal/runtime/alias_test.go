package runtime

import (
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
)

// TestAppendTopIsACopy is the aliasing regression for the concurrent
// engine: the slice AppendTop returns must be caller-owned — mutating it
// after later steps must not corrupt the engine (unlike the Top / Observe
// views, which are documented as engine-owned and read-only). A pristine
// sequential twin run in lockstep detects any corruption.
func TestAppendTopIsACopy(t *testing.T) {
	const n, k, seed = 14, 4, 11
	rt := onShards(Config{N: n, K: k, Seed: seed}, 3)
	defer rt.Close()
	twin := core.New(core.Config{N: n, K: k, Seed: seed})

	srcA := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 16, MaxStep: 600, Seed: 12})
	srcB := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 16, MaxStep: 600, Seed: 12})
	va, vb := make([]int64, n), make([]int64, n)
	var copies [][]int
	for s := 0; s < 60; s++ {
		srcA.Step(va)
		srcB.Step(vb)
		topConc := rt.Observe(va)
		topSeq := twin.Observe(vb)
		if !equalInts(topConc, topSeq) {
			t.Fatalf("step %d: reports diverged: conc=%v seq=%v", s, topConc, topSeq)
		}
		copies = append(copies, rt.AppendTop(nil))
		// Scribble over every copy taken so far: if any of them aliased
		// engine state, the next steps diverge from the twin.
		for _, c := range copies {
			for i := range c {
				c[i] = -7
			}
		}
	}
	if cs, cc := twin.Counts(), rt.Counts(); cs != cc {
		t.Fatalf("counts diverged after mutations: seq=%v conc=%v", cs, cc)
	}
}

func equalInts(a, b []int) bool {
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
