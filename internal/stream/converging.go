package stream

import "repro/internal/rng"

// ConvergingConfig parameterizes Converging.
type ConvergingConfig struct {
	N    int
	K    int // nodes 0..K-1 form the upper band
	Seed uint64
	// Gap is the widest separation of the two band centers; it determines
	// the paper's ∆ for this workload.
	Gap int64
	// MinGap is the closest approach of the band centers. It must stay
	// above 2*Jitter+2 so the bands never cross and the top-k set never
	// changes — which keeps the offline OPT at a single filter assignment
	// while the online algorithm must keep tightening midpoints.
	MinGap int64
	// HalvingSteps is how many steps the band distance stays at each
	// halving level; the descent is geometric (Gap, Gap/2, Gap/4, ...,
	// MinGap), so one converge-diverge cycle takes
	// 2 * HalvingSteps * ceil(log2(Gap/MinGap)) steps.
	HalvingSteps int
	// Jitter is the half-width of each node's in-band random walk.
	Jitter int64
}

// Converging keeps the lower band static and halves the distance of the
// upper band toward it level by level, then doubles it back up. It is the
// ∆-sweep workload of experiment E4: every descent forces the monitor
// through ~log2(Gap/MinGap) midpoint violations — one per halving level,
// because each FILTERVIOLATIONHANDLER call re-anchors the midpoint halfway
// into the remaining distance and the next halving level crosses it again —
// while a clairvoyant offline algorithm covers the whole horizon with a
// single filter assignment just below the upper band's lowest excursion
// (the bands never cross, so the top-k set is constant and Lemma 3.2's
// feasibility condition holds globally; validated against baseline.Opt).
//
// Two design points matter. The descent is geometric rather than linear: a
// linear approach crosses all remaining midpoint levels in a single step
// once its per-step motion exceeds the half-distance, capping the observed
// cost at log(period) instead of log ∆. And the lower band stays static:
// if both bands converged symmetrically toward the center, the midpoint
// installed at initialization would remain valid forever and the monitor
// would never communicate again.
type Converging struct {
	cfg    ConvergingConfig
	levels int
	rngs   []rng.RNG
	off    []int64 // per-node jitter offset, random walk in [-Jitter, +Jitter]
	step   int
}

// NewConverging validates the configuration and returns a generator.
func NewConverging(cfg ConvergingConfig) *Converging {
	if cfg.N <= 0 || cfg.K <= 0 || cfg.K >= cfg.N {
		panic("stream: Converging needs 0 < K < N")
	}
	if cfg.HalvingSteps <= 0 {
		panic("stream: Converging needs HalvingSteps > 0")
	}
	if cfg.Jitter < 0 {
		panic("stream: Converging needs Jitter >= 0")
	}
	if cfg.MinGap <= 2*cfg.Jitter+1 {
		panic("stream: Converging MinGap must exceed 2*Jitter+1 to keep bands disjoint")
	}
	if cfg.Gap < cfg.MinGap {
		panic("stream: Converging needs Gap >= MinGap")
	}
	c := &Converging{cfg: cfg, rngs: make([]rng.RNG, cfg.N), off: make([]int64, cfg.N)}
	for d := cfg.Gap; d > cfg.MinGap; d >>= 1 {
		c.levels++
	}
	if c.levels == 0 {
		c.levels = 1
	}
	root := rng.New(cfg.Seed, 0xc0741)
	for i := range c.rngs {
		c.rngs[i] = root.SplitValue(uint64(i))
	}
	return c
}

// N implements Source.
func (c *Converging) N() int { return c.cfg.N }

// CycleLen returns the number of steps of one full converge-diverge cycle.
func (c *Converging) CycleLen() int { return 2 * c.levels * c.cfg.HalvingSteps }

// Levels returns the number of halving levels of one descent,
// ceil(log2(Gap/MinGap)) (at least 1).
func (c *Converging) Levels() int { return c.levels }

// distance returns the band separation at the given phase of the cycle.
func (c *Converging) distance(phase int) int64 {
	half := c.levels * c.cfg.HalvingSteps
	level := phase / c.cfg.HalvingSteps // 0..levels-1 descending
	if phase >= half {                  // ascending mirror
		level = (2*half - 1 - phase) / c.cfg.HalvingSteps
	}
	d := c.cfg.Gap >> uint(level)
	if d < c.cfg.MinGap {
		d = c.cfg.MinGap
	}
	return d
}

// Step implements Source.
func (c *Converging) Step(vals []int64) {
	checkLen(c.cfg.N, vals)
	d := c.distance(c.step % c.CycleLen())
	const base = int64(1) << 20 // keeps all values positive for any Jitter
	botC := base
	topC := base + d
	for i := range vals {
		if c.cfg.Jitter > 0 {
			c.off[i] += c.rngs[i].Int63n(3) - 1 // lazy ±1 walk
			if c.off[i] > c.cfg.Jitter {
				c.off[i] = c.cfg.Jitter
			}
			if c.off[i] < -c.cfg.Jitter {
				c.off[i] = -c.cfg.Jitter
			}
		}
		if i < c.cfg.K {
			vals[i] = topC + c.off[i]
		} else {
			vals[i] = botC + c.off[i]
		}
	}
	c.step++
}
