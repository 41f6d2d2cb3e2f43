package stream

import (
	"fmt"
	"sort"
	"strings"
)

// Spec identifies a named workload preset plus the parameters every
// preset shares. The presets are the workload families used across the
// CLIs (topkmon, tracegen) and experiments; FromSpec keeps their
// parameterization in one place.
type Spec struct {
	// Name selects the preset; see Names for the list.
	Name string
	// N is the node count.
	N int
	// K is the intended top-set size; band presets place K nodes in the
	// upper band. If 0, max(1, N/8) is used.
	K int
	// Steps is the intended horizon; presets that schedule periodic events
	// (band swaps) derive their period from it. If 0, 1000 is used.
	Steps int
	// Seed drives the preset's randomness.
	Seed uint64
}

// Names lists the available workload presets in stable order.
func Names() []string {
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

var presets = map[string]func(Spec) Source{
	"walk": func(s Spec) Source {
		return NewRandomWalk(WalkConfig{N: s.N, Lo: 0, Hi: 1 << 20, MaxStep: 64, Seed: s.Seed})
	},
	"iid": func(s Spec) Source {
		return NewIID(IIDConfig{N: s.N, Seed: s.Seed, Dist: Uniform, Lo: 0, Hi: 1 << 20})
	},
	"gauss": func(s Spec) Source {
		return NewIID(IIDConfig{N: s.N, Seed: s.Seed, Dist: Gaussian, Lo: 0, Hi: 1 << 20, Mean: 1 << 19, Std: 1 << 16})
	},
	"zipf": func(s Spec) Source {
		return NewIID(IIDConfig{N: s.N, Seed: s.Seed, Dist: Zipf, Lo: 1, Hi: 1 << 24, S: 1.1})
	},
	"bursty": func(s Spec) Source {
		return NewBursty(BurstyConfig{N: s.N, Seed: s.Seed, Lo: 0, Hi: 1 << 22, Noise: 4, BurstProb: 0.02, BurstMax: 1 << 18})
	},
	"rotation": func(s Spec) Source {
		return NewRotation(RotationConfig{N: s.N, Period: 5, Base: 100, Peak: 100000})
	},
	"regime": func(s Spec) Source {
		return NewRegime(RegimeConfig{N: s.N, Seed: s.Seed, Lo: 0, Hi: 1 << 22, CalmStep: 2, WildStep: 1 << 12, SwitchProb: 0.01})
	},
	"sparse": func(s Spec) Source {
		// The similar-inputs regime at its plainest: a sixty-fourth of the
		// nodes take a small step, everyone else holds still.
		return NewSparseWalk(SparseWalkConfig{N: s.N, Lo: 0, Hi: 1 << 20, MaxStep: 4, Changed: max(1, s.N/64), Seed: s.Seed})
	},
	"twoband": func(s Spec) Source {
		swap := s.Steps / 10
		if swap < 1 {
			swap = 1
		}
		return NewTwoBand(TwoBandConfig{N: s.N, K: s.K, Seed: s.Seed, Gap: 1 << 16, BandWidth: 1 << 8, MaxStep: 8, SwapEvery: swap})
	},
	"converging": func(s Spec) Source {
		return NewConverging(ConvergingConfig{N: s.N, K: s.K, Seed: s.Seed, Gap: 1 << 24, MinGap: 60, HalvingSteps: 6, Jitter: 8})
	},
}

// FromSpec instantiates a workload preset. Unknown names return an error
// listing the valid ones.
func FromSpec(s Spec) (Source, error) {
	if s.N <= 0 {
		return nil, fmt.Errorf("stream: spec needs N > 0, got %d", s.N)
	}
	if s.K == 0 {
		s.K = s.N / 8
		if s.K < 1 {
			s.K = 1
		}
	}
	if s.K < 1 || s.K > s.N {
		return nil, fmt.Errorf("stream: spec needs 1 <= K <= N, got K=%d N=%d", s.K, s.N)
	}
	if s.K == s.N && (s.Name == "twoband" || s.Name == "converging") {
		return nil, fmt.Errorf("stream: preset %q needs K < N", s.Name)
	}
	if s.Steps == 0 {
		s.Steps = 1000
	}
	mk, ok := presets[s.Name]
	if !ok {
		return nil, fmt.Errorf("stream: unknown workload %q (valid: %s)", s.Name, strings.Join(Names(), ", "))
	}
	return mk(s), nil
}
