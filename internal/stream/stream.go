// Package stream provides the workload generators for all experiments: the
// input side of the monitoring problem. A Source produces, per time step,
// one integer observation for each of n nodes. Generators cover the regimes
// the paper discusses — "similar" slowly-changing inputs where filters pay
// off (§2.1), adversarial inputs where the top position rotates every step,
// and controlled-gap workloads that let experiments sweep the paper's ∆
// parameter — plus replayable traces.
//
// All generators are deterministic given a seed (see internal/rng), so every
// experiment in the repository is reproducible bit for bit.
package stream

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Source generates observations for n nodes, one slice per time step.
type Source interface {
	// N returns the number of nodes this source feeds.
	N() int
	// Step writes the next observation of node i into vals[i]. It panics if
	// len(vals) != N(). Successive calls advance time.
	Step(vals []int64)
}

// Collect runs a source for steps time steps and returns the full matrix,
// indexed [t][node]. Intended for offline algorithms and tests.
func Collect(s Source, steps int) [][]int64 {
	out := make([][]int64, steps)
	for t := range out {
		out[t] = make([]int64, s.N())
		s.Step(out[t])
	}
	return out
}

func checkLen(n int, vals []int64) {
	if len(vals) != n {
		panic(fmt.Sprintf("stream: Step buffer has %d slots, source has %d nodes", len(vals), n))
	}
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// WalkConfig parameterizes RandomWalk.
type WalkConfig struct {
	N       int   // number of nodes
	Lo, Hi  int64 // inclusive value range; walks are clamped to it
	MaxStep int64 // per-step increments are uniform in [-MaxStep, +MaxStep]
	Seed    uint64
	// SpreadLo/SpreadHi bound the uniform initial placement. Leaving both
	// zero selects the full [Lo, Hi] range (a deliberate all-zero start is
	// expressed as Lo=Hi=0 with a wider walk range being impossible anyway,
	// since initial values are clamped into [Lo, Hi]).
	SpreadLo int64
	SpreadHi int64
}

// RandomWalk is the paper's "similar inputs" regime: every node performs an
// independent bounded random walk, so consecutive observations are close and
// a filter-based algorithm should communicate rarely.
type RandomWalk struct {
	cfg  WalkConfig
	cur  []int64
	rngs []rng.RNG
	init bool
}

// NewRandomWalk validates the configuration and returns a generator.
func NewRandomWalk(cfg WalkConfig) *RandomWalk {
	if cfg.N <= 0 {
		panic("stream: RandomWalk needs N > 0")
	}
	if cfg.Hi < cfg.Lo {
		panic("stream: RandomWalk has empty value range")
	}
	if cfg.MaxStep < 0 {
		panic("stream: RandomWalk needs MaxStep >= 0")
	}
	if cfg.SpreadLo == 0 && cfg.SpreadHi == 0 {
		cfg.SpreadLo, cfg.SpreadHi = cfg.Lo, cfg.Hi
	}
	if cfg.SpreadHi < cfg.SpreadLo {
		panic("stream: RandomWalk has inverted initial spread")
	}
	w := &RandomWalk{cfg: cfg, cur: make([]int64, cfg.N), rngs: make([]rng.RNG, cfg.N)}
	root := rng.New(cfg.Seed, 0x57a1c)
	for i := range w.rngs {
		w.rngs[i] = root.SplitValue(uint64(i))
	}
	return w
}

// N implements Source.
func (w *RandomWalk) N() int { return w.cfg.N }

// Step implements Source.
func (w *RandomWalk) Step(vals []int64) {
	checkLen(w.cfg.N, vals)
	if !w.init {
		span := w.cfg.SpreadHi - w.cfg.SpreadLo + 1
		for i := range w.cur {
			w.cur[i] = clamp(w.cfg.SpreadLo+w.rngs[i].Int63n(span), w.cfg.Lo, w.cfg.Hi)
		}
		w.init = true
	} else {
		for i := range w.cur {
			delta := int64(0)
			if w.cfg.MaxStep > 0 {
				delta = w.rngs[i].Int63n(2*w.cfg.MaxStep+1) - w.cfg.MaxStep
			}
			w.cur[i] = clamp(w.cur[i]+delta, w.cfg.Lo, w.cfg.Hi)
		}
	}
	copy(vals, w.cur)
}

// IIDConfig parameterizes IID.
type IIDConfig struct {
	N    int
	Seed uint64
	// Dist selects the marginal distribution.
	Dist Distribution
	// Lo/Hi bound uniform draws (inclusive). For Gaussian, Mean/Std apply
	// and results are rounded and clamped to [Lo, Hi]. For Zipf, values are
	// Hi / rank^S, giving a heavy-tailed marginal on [Lo, Hi].
	Lo, Hi    int64
	Mean, Std float64
	S         float64 // Zipf exponent, > 0
}

// Distribution enumerates the IID marginals.
type Distribution int

// Supported IID distributions.
const (
	Uniform Distribution = iota
	Gaussian
	Zipf
)

// IID draws every node's observation independently anew each step: the
// "dissimilar inputs" regime where filters cannot help much and per-round
// recomputation is near-optimal (paper §2.1 worst-case discussion).
type IID struct {
	cfg  IIDConfig
	rngs []rng.RNG
}

// NewIID validates the configuration and returns a generator.
func NewIID(cfg IIDConfig) *IID {
	if cfg.N <= 0 {
		panic("stream: IID needs N > 0")
	}
	if cfg.Hi < cfg.Lo {
		panic("stream: IID has empty value range")
	}
	if cfg.Dist == Zipf && cfg.S <= 0 {
		panic("stream: Zipf needs exponent S > 0")
	}
	g := &IID{cfg: cfg, rngs: make([]rng.RNG, cfg.N)}
	root := rng.New(cfg.Seed, 0x11d)
	for i := range g.rngs {
		g.rngs[i] = root.SplitValue(uint64(i))
	}
	return g
}

// N implements Source.
func (g *IID) N() int { return g.cfg.N }

// Step implements Source.
func (g *IID) Step(vals []int64) {
	checkLen(g.cfg.N, vals)
	span := g.cfg.Hi - g.cfg.Lo + 1
	for i := range vals {
		r := &g.rngs[i]
		switch g.cfg.Dist {
		case Uniform:
			vals[i] = g.cfg.Lo + r.Int63n(span)
		case Gaussian:
			v := int64(math.Round(g.cfg.Mean + g.cfg.Std*r.NormFloat64()))
			vals[i] = clamp(v, g.cfg.Lo, g.cfg.Hi)
		case Zipf:
			// Log-uniform rank (density ∝ 1/rank, the Zipf(1) shape), then
			// emit Hi/rank^S: a heavy-tailed marginal on [Lo, Hi] for the
			// Babcock-Olston style workload, with S tuning the tail.
			rank := math.Exp(r.Float64() * math.Log(float64(span)))
			v := int64(float64(g.cfg.Hi) / math.Pow(rank, g.cfg.S))
			vals[i] = clamp(v, g.cfg.Lo, g.cfg.Hi)
		default:
			panic("stream: unknown distribution")
		}
	}
}

// BurstyConfig parameterizes Bursty.
type BurstyConfig struct {
	N         int
	Seed      uint64
	Lo, Hi    int64
	Noise     int64 // small per-step jitter, uniform in [-Noise, +Noise]
	BurstProb float64
	BurstMax  int64 // burst jumps are uniform in [-BurstMax, +BurstMax]
}

// Bursty behaves like a slow walk punctuated by rare large jumps, modelling
// sensors with regime changes. It stresses FILTERRESET without making every
// step adversarial.
type Bursty struct {
	cfg  BurstyConfig
	cur  []int64
	rngs []rng.RNG
	init bool
}

// NewBursty validates the configuration and returns a generator.
func NewBursty(cfg BurstyConfig) *Bursty {
	if cfg.N <= 0 {
		panic("stream: Bursty needs N > 0")
	}
	if cfg.Hi < cfg.Lo {
		panic("stream: Bursty has empty value range")
	}
	if cfg.BurstProb < 0 || cfg.BurstProb > 1 {
		panic("stream: BurstProb outside [0,1]")
	}
	b := &Bursty{cfg: cfg, cur: make([]int64, cfg.N), rngs: make([]rng.RNG, cfg.N)}
	root := rng.New(cfg.Seed, 0xb0b)
	for i := range b.rngs {
		b.rngs[i] = root.SplitValue(uint64(i))
	}
	return b
}

// N implements Source.
func (b *Bursty) N() int { return b.cfg.N }

// Step implements Source.
func (b *Bursty) Step(vals []int64) {
	checkLen(b.cfg.N, vals)
	if !b.init {
		span := b.cfg.Hi - b.cfg.Lo + 1
		for i := range b.cur {
			b.cur[i] = b.cfg.Lo + b.rngs[i].Int63n(span)
		}
		b.init = true
	} else {
		for i := range b.cur {
			r := &b.rngs[i]
			var delta int64
			if r.Float64() < b.cfg.BurstProb && b.cfg.BurstMax > 0 {
				delta = r.Int63n(2*b.cfg.BurstMax+1) - b.cfg.BurstMax
			} else if b.cfg.Noise > 0 {
				delta = r.Int63n(2*b.cfg.Noise+1) - b.cfg.Noise
			}
			b.cur[i] = clamp(b.cur[i]+delta, b.cfg.Lo, b.cfg.Hi)
		}
	}
	copy(vals, b.cur)
}

// RotationConfig parameterizes Rotation.
type RotationConfig struct {
	N      int
	Period int   // every Period steps the peak moves to the next node
	Base   int64 // value of non-peak nodes
	Peak   int64 // value of the current peak node; must exceed Base
}

// Rotation is the adversarial workload from the paper's §2.1 worst-case
// discussion: the identity of the maximum changes round-robin, forcing any
// correct algorithm to communicate persistently. With Period = 1 the top-1
// position changes every single step.
type Rotation struct {
	cfg  RotationConfig
	step int
}

// NewRotation validates the configuration and returns a generator.
func NewRotation(cfg RotationConfig) *Rotation {
	if cfg.N <= 0 {
		panic("stream: Rotation needs N > 0")
	}
	if cfg.Period <= 0 {
		panic("stream: Rotation needs Period > 0")
	}
	if cfg.Peak <= cfg.Base {
		panic("stream: Rotation needs Peak > Base")
	}
	return &Rotation{cfg: cfg}
}

// N implements Source.
func (r *Rotation) N() int { return r.cfg.N }

// Step implements Source.
func (r *Rotation) Step(vals []int64) {
	checkLen(r.cfg.N, vals)
	peak := (r.step / r.cfg.Period) % r.cfg.N
	for i := range vals {
		if i == peak {
			vals[i] = r.cfg.Peak
		} else {
			vals[i] = r.cfg.Base
		}
	}
	r.step++
}

// TwoBandConfig parameterizes TwoBand.
type TwoBandConfig struct {
	N    int
	K    int // nodes 0..K-1 start in the top band
	Seed uint64
	// Gap is the distance between the bands' centers; it controls the
	// paper's ∆ (the k-th/(k+1)-st value difference) for experiment E4.
	Gap int64
	// BandWidth is each band's half-width; in-band values random walk with
	// the given MaxStep.
	BandWidth int64
	MaxStep   int64
	// SwapEvery > 0 makes the lowest top-band node and the highest
	// bottom-band node exchange bands every SwapEvery steps, forcing top-k
	// set changes at a controlled rate. 0 disables swaps.
	SwapEvery int
}

// TwoBand maintains a top band of K nodes and a bottom band of N-K nodes
// separated by a configurable gap. It is the workload that controls ∆ in
// the competitive-ratio experiments.
type TwoBand struct {
	cfg     TwoBandConfig
	center  []int64 // per-node band center
	cur     []int64
	rngs    []rng.RNG
	inTop   []bool
	step    int
	topC    int64
	botC    int64
	started bool
}

// NewTwoBand validates the configuration and returns a generator.
func NewTwoBand(cfg TwoBandConfig) *TwoBand {
	if cfg.N <= 0 || cfg.K <= 0 || cfg.K > cfg.N {
		panic("stream: TwoBand needs 0 < K <= N")
	}
	if cfg.Gap <= 2*cfg.BandWidth {
		panic("stream: TwoBand gap must exceed the band widths to keep bands disjoint")
	}
	if cfg.BandWidth < 0 || cfg.MaxStep < 0 {
		panic("stream: TwoBand needs non-negative widths")
	}
	tb := &TwoBand{
		cfg:    cfg,
		center: make([]int64, cfg.N),
		cur:    make([]int64, cfg.N),
		rngs:   make([]rng.RNG, cfg.N),
		inTop:  make([]bool, cfg.N),
		topC:   cfg.Gap, // top band centered at Gap, bottom at 0
		botC:   0,
	}
	root := rng.New(cfg.Seed, 0x2ba)
	for i := range tb.rngs {
		tb.rngs[i] = root.SplitValue(uint64(i))
		if i < cfg.K {
			tb.inTop[i] = true
			tb.center[i] = tb.topC
		} else {
			tb.center[i] = tb.botC
		}
		tb.cur[i] = tb.center[i]
	}
	return tb
}

// N implements Source.
func (tb *TwoBand) N() int { return tb.cfg.N }

// Step implements Source.
func (tb *TwoBand) Step(vals []int64) {
	checkLen(tb.cfg.N, vals)
	if tb.started && tb.cfg.SwapEvery > 0 && tb.step%tb.cfg.SwapEvery == 0 {
		tb.swapExtremes()
	}
	for i := range tb.cur {
		var delta int64
		if tb.cfg.MaxStep > 0 {
			delta = tb.rngs[i].Int63n(2*tb.cfg.MaxStep+1) - tb.cfg.MaxStep
		}
		lo := tb.center[i] - tb.cfg.BandWidth
		hi := tb.center[i] + tb.cfg.BandWidth
		tb.cur[i] = clamp(tb.cur[i]+delta, lo, hi)
	}
	tb.started = true
	tb.step++
	copy(vals, tb.cur)
}

// swapExtremes moves the currently lowest top-band node to the bottom band
// and the highest bottom-band node to the top band.
func (tb *TwoBand) swapExtremes() {
	loTop, hiBot := -1, -1
	for i := range tb.cur {
		if tb.inTop[i] {
			if loTop < 0 || tb.cur[i] < tb.cur[loTop] {
				loTop = i
			}
		} else {
			if hiBot < 0 || tb.cur[i] > tb.cur[hiBot] {
				hiBot = i
			}
		}
	}
	if loTop < 0 || hiBot < 0 {
		return // single-band configuration (K == N)
	}
	tb.inTop[loTop], tb.inTop[hiBot] = false, true
	tb.center[loTop], tb.center[hiBot] = tb.botC, tb.topC
	tb.cur[loTop], tb.cur[hiBot] = tb.botC, tb.topC
}

// ConstConfig parameterizes Const.
type ConstConfig struct {
	N      int
	Values []int64 // len N; emitted unchanged every step
}

// Const emits the same observation vector forever: the best case for any
// filter-based algorithm (zero steady-state communication).
type Const struct{ cfg ConstConfig }

// NewConst validates the configuration and returns a generator.
func NewConst(cfg ConstConfig) *Const {
	if cfg.N <= 0 {
		panic("stream: Const needs N > 0")
	}
	if len(cfg.Values) != cfg.N {
		panic("stream: Const needs exactly N values")
	}
	return &Const{cfg: cfg}
}

// N implements Source.
func (c *Const) N() int { return c.cfg.N }

// Step implements Source.
func (c *Const) Step(vals []int64) {
	checkLen(c.cfg.N, vals)
	copy(vals, c.cfg.Values)
}
