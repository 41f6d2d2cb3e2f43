package stream

import (
	"slices"
	"testing"
)

// TestSourceSequencesAreGolden pins the first three steps of every seeded
// source against values recorded when the sources held one heap-allocated
// generator per node (root.Split): holding the same children by value in
// one flat slice (root.SplitValue) must not move a single observation —
// every experiment table and benchmark trace is a function of these
// sequences.
func TestSourceSequencesAreGolden(t *testing.T) {
	sources := map[string]Source{
		"RandomWalk": NewRandomWalk(WalkConfig{N: 5, Lo: 0, Hi: 1 << 20, MaxStep: 900, Seed: 11}),
		"IID":        NewIID(IIDConfig{N: 5, Seed: 12, Dist: Gaussian, Lo: 0, Hi: 1 << 20, Mean: 1 << 19, Std: 1 << 16}),
		"Bursty":     NewBursty(BurstyConfig{N: 5, Seed: 13, Lo: 0, Hi: 1 << 20, Noise: 40, BurstProb: 0.4, BurstMax: 1 << 18}),
		"TwoBand":    NewTwoBand(TwoBandConfig{N: 5, K: 2, Seed: 14, Gap: 10000, BandWidth: 300, MaxStep: 70, SwapEvery: 2}),
		"Regime":     NewRegime(RegimeConfig{N: 5, Seed: 15, Lo: 0, Hi: 1 << 20, CalmStep: 10, WildStep: 5000, SwitchProb: 0.5}),
		"Converging": NewConverging(ConvergingConfig{N: 5, K: 2, Seed: 16, Gap: 1 << 16, MinGap: 64, HalvingSteps: 1, Jitter: 8}),
	}
	golden := map[string][3][]int64{
		"RandomWalk": {{614087, 599071, 382246, 671614, 838219}, {614150, 599610, 382605, 671838, 838504}, {614661, 599683, 382625, 671467, 838662}},
		"IID":        {{418188, 592634, 534338, 566916, 487418}, {541484, 519520, 490475, 673971, 656589}, {549928, 609410, 415378, 495942, 556329}},
		"Bursty":     {{119832, 959985, 331351, 338760, 1007217}, {138258, 959952, 331373, 364729, 1007232}, {138250, 807629, 175033, 364727, 1007230}},
		"TwoBand":    {{9947, 10002, -27, 60, 60}, {10001, 9944, -82, 19, 116}, {10057, -20, -91, 81, 9977}},
		"Regime":     {{712531, 461557, 859063, 487097, 88123}, {717374, 460768, 854763, 490365, 83505}, {717376, 460772, 854769, 490374, 83496}},
		"Converging": {{1114113, 1114112, 1048577, 1048575, 1048575}, {1081345, 1081345, 1048578, 1048574, 1048576}, {1064960, 1064960, 1048579, 1048573, 1048576}},
	}
	for name, src := range sources {
		vals := make([]int64, src.N())
		for s, want := range golden[name] {
			src.Step(vals)
			if !slices.Equal(vals, want) {
				t.Errorf("%s step %d: %v, recorded %v", name, s, vals, want)
			}
		}
	}
}
