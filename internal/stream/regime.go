package stream

import "repro/internal/rng"

// RegimeConfig parameterizes Regime.
type RegimeConfig struct {
	N    int
	Seed uint64
	// Lo/Hi bound all values.
	Lo, Hi int64
	// CalmStep and WildStep are the per-step walk magnitudes of the two
	// regimes (wild should exceed calm).
	CalmStep, WildStep int64
	// SwitchProb is the per-step probability of toggling the global
	// regime (a two-state Markov chain).
	SwitchProb float64
}

// Regime is a Markov regime-switching workload: all nodes random-walk,
// but the walk magnitude toggles between a calm and a wild regime
// according to a two-state Markov chain shared by the fleet. It models
// markets or sensor fields with volatility clustering and exercises the
// monitor's transition between its cheap (filters hold for long runs) and
// expensive (frequent violations) modes within a single run.
type Regime struct {
	cfg  RegimeConfig
	cur  []int64
	rngs []rng.RNG
	ctl  *rng.RNG
	wild bool
	init bool
}

// NewRegime validates the configuration and returns a generator.
func NewRegime(cfg RegimeConfig) *Regime {
	if cfg.N <= 0 {
		panic("stream: Regime needs N > 0")
	}
	if cfg.Hi < cfg.Lo {
		panic("stream: Regime has empty value range")
	}
	if cfg.CalmStep < 0 || cfg.WildStep < cfg.CalmStep {
		panic("stream: Regime needs 0 <= CalmStep <= WildStep")
	}
	if cfg.SwitchProb < 0 || cfg.SwitchProb > 1 {
		panic("stream: Regime SwitchProb outside [0,1]")
	}
	g := &Regime{cfg: cfg, cur: make([]int64, cfg.N), rngs: make([]rng.RNG, cfg.N)}
	root := rng.New(cfg.Seed, 0x4e61)
	g.ctl = root.Split(1 << 32)
	for i := range g.rngs {
		g.rngs[i] = root.SplitValue(uint64(i))
	}
	return g
}

// N implements Source.
func (g *Regime) N() int { return g.cfg.N }

// Wild reports whether the generator is currently in the wild regime.
func (g *Regime) Wild() bool { return g.wild }

// Step implements Source.
func (g *Regime) Step(vals []int64) {
	checkLen(g.cfg.N, vals)
	if !g.init {
		span := g.cfg.Hi - g.cfg.Lo + 1
		for i := range g.cur {
			g.cur[i] = g.cfg.Lo + g.rngs[i].Int63n(span)
		}
		g.init = true
	} else {
		if g.ctl.Float64() < g.cfg.SwitchProb {
			g.wild = !g.wild
		}
		step := g.cfg.CalmStep
		if g.wild {
			step = g.cfg.WildStep
		}
		for i := range g.cur {
			var delta int64
			if step > 0 {
				delta = g.rngs[i].Int63n(2*step+1) - step
			}
			g.cur[i] = clamp(g.cur[i]+delta, g.cfg.Lo, g.cfg.Hi)
		}
	}
	copy(vals, g.cur)
}
