package stream

import (
	"sort"

	"repro/internal/rng"
)

// DeltaSource is a workload generator that can report, per time step, only
// the nodes whose observation changed — the sparse form the monitors'
// ObserveDelta ingestion consumes. For generators that implement both
// interfaces, Step and StepDelta advance the same underlying trajectory:
// any interleaving of the two produces the same value sequence.
type DeltaSource interface {
	// N returns the number of nodes this source feeds.
	N() int
	// StepDelta advances one time step and writes the ids of the changed
	// nodes (strictly ascending) and their new values into the prefixes of
	// ids and vals, returning how many entries were written. Both buffers
	// must have length >= N(). Nodes not listed kept their previous value;
	// before the first step every node is considered to hold 0.
	StepDelta(ids []int, vals []int64) int
}

// StepDelta implements DeltaSource: it advances the walk exactly as Step
// does (consuming identical randomness, so Step and StepDelta calls may be
// interleaved freely) but reports only the nodes whose clamped value
// actually moved. The first step reports every node.
func (w *RandomWalk) StepDelta(ids []int, vals []int64) int {
	if len(ids) < w.cfg.N || len(vals) < w.cfg.N {
		panic("stream: StepDelta buffers must have length >= N")
	}
	if !w.init {
		span := w.cfg.SpreadHi - w.cfg.SpreadLo + 1
		for i := range w.cur {
			w.cur[i] = clamp(w.cfg.SpreadLo+w.rngs[i].Int63n(span), w.cfg.Lo, w.cfg.Hi)
			ids[i] = i
			vals[i] = w.cur[i]
		}
		w.init = true
		return w.cfg.N
	}
	written := 0
	for i := range w.cur {
		delta := int64(0)
		if w.cfg.MaxStep > 0 {
			delta = w.rngs[i].Int63n(2*w.cfg.MaxStep+1) - w.cfg.MaxStep
		}
		next := clamp(w.cur[i]+delta, w.cfg.Lo, w.cfg.Hi)
		if next != w.cur[i] {
			w.cur[i] = next
			ids[written] = i
			vals[written] = next
			written++
		}
	}
	return written
}

// SparseWalkConfig parameterizes SparseWalk.
type SparseWalkConfig struct {
	N       int
	Lo, Hi  int64 // inclusive value range; moves are clamped to it
	MaxStep int64 // per-move increments are uniform in [-MaxStep, +MaxStep]
	// Changed is how many (distinct, uniformly chosen) nodes attempt a
	// move per step, 1 <= Changed <= N. Nodes whose draw is a zero move
	// (or clamped in place at a range edge) are not reported, so a step
	// may emit fewer than Changed entries. The remaining nodes repeat
	// their value.
	Changed int
	Seed    uint64
}

// SparseWalk is the delta-native workload: each step, a small uniformly
// random subset of nodes performs one bounded random-walk move while all
// others hold still. It models the million-stream regime where the
// per-step update volume, not n, is the natural cost unit, and is the
// workload behind the BenchmarkMonitorDelta speedup target.
type SparseWalk struct {
	cfg  SparseWalkConfig
	cur  []int64
	idx  []int // permutation scratch for distinct-subset selection
	tmp  []int // sortIDs' second buffer, Changed long
	r    *rng.RNG
	init bool
}

// NewSparseWalk validates the configuration and returns a generator.
func NewSparseWalk(cfg SparseWalkConfig) *SparseWalk {
	if cfg.N <= 0 {
		panic("stream: SparseWalk needs N > 0")
	}
	if cfg.Hi < cfg.Lo {
		panic("stream: SparseWalk has empty value range")
	}
	if cfg.MaxStep < 0 {
		panic("stream: SparseWalk needs MaxStep >= 0")
	}
	if cfg.Changed < 1 || cfg.Changed > cfg.N {
		panic("stream: SparseWalk needs 1 <= Changed <= N")
	}
	sw := &SparseWalk{
		cfg: cfg,
		cur: make([]int64, cfg.N),
		idx: make([]int, cfg.N),
		tmp: make([]int, cfg.Changed),
		r:   rng.New(cfg.Seed, 0x5b1e),
	}
	for i := range sw.idx {
		sw.idx[i] = i
	}
	return sw
}

// N implements Source and DeltaSource.
func (sw *SparseWalk) N() int { return sw.cfg.N }

// Step implements Source by advancing the same trajectory StepDelta
// drives and emitting the full dense vector.
func (sw *SparseWalk) Step(vals []int64) {
	checkLen(sw.cfg.N, vals)
	sw.advance(nil, nil)
	copy(vals, sw.cur)
}

// StepDelta implements DeltaSource.
func (sw *SparseWalk) StepDelta(ids []int, vals []int64) int {
	if len(ids) < sw.cfg.N || len(vals) < sw.cfg.N {
		panic("stream: StepDelta buffers must have length >= N")
	}
	return sw.advance(ids, vals)
}

// radixMinIDs is about where sortIDs' radix passes start to beat sort.Ints:
// a pass clears and sums 256 buckets, half a microsecond before it moves an
// id, so at 128 ids the comparison sort still wins (1.1 against 1.5-2.4 µs
// over id spaces of 2^12 to 2^20), while at 4096 the radix sort is 6-12
// times cheaper.
const radixMinIDs = 256

// sortIDs sorts ids — node ids below n — ascending, through tmp, which is
// as long: an LSD radix sort, a byte of the id a pass, so a step's order
// costs a few linear passes where a comparison sort was two fifths of
// generating a large sparse step. A pass costs its 256 buckets whatever it
// sorts, which a few ids do not repay: those go to the comparison sort.
func sortIDs(ids, tmp []int, n int) {
	if len(ids) < radixMinIDs {
		sort.Ints(ids)
		return
	}
	src, dst := ids, tmp
	for shift := 0; (n-1)>>shift > 0; shift += 8 {
		var at [257]int // at[d+1] counts digit d, then at[d] is where it goes
		for _, id := range src {
			at[id>>shift&0xff+1]++
		}
		for d := 1; d < 256; d++ {
			at[d] += at[d-1]
		}
		for _, id := range src {
			d := id >> shift & 0xff
			dst[at[d]] = id
			at[d]++
		}
		src, dst = dst, src
	}
	copy(ids, src) // a no-op after an even number of passes
}

// advance moves the trajectory one step. With non-nil buffers it records
// the changed (id, value) pairs, ascending by id, and returns the count.
func (sw *SparseWalk) advance(ids []int, vals []int64) int {
	if !sw.init {
		span := sw.cfg.Hi - sw.cfg.Lo + 1
		for i := range sw.cur {
			sw.cur[i] = sw.cfg.Lo + sw.r.Int63n(span)
		}
		sw.init = true
		if ids == nil {
			return 0
		}
		for i, v := range sw.cur {
			ids[i] = i
			vals[i] = v
		}
		return sw.cfg.N
	}
	// Choose Changed distinct nodes by partial Fisher-Yates over the
	// persistent index permutation, then emit them in ascending order.
	c := sw.cfg.Changed
	for j := 0; j < c; j++ {
		k := j + sw.r.Intn(sw.cfg.N-j)
		sw.idx[j], sw.idx[k] = sw.idx[k], sw.idx[j]
	}
	sortIDs(sw.idx[:c], sw.tmp, sw.cfg.N)
	written := 0
	for _, id := range sw.idx[:c] {
		var delta int64
		if sw.cfg.MaxStep > 0 {
			delta = sw.r.Int63n(2*sw.cfg.MaxStep+1) - sw.cfg.MaxStep
		}
		next := clamp(sw.cur[id]+delta, sw.cfg.Lo, sw.cfg.Hi)
		if next == sw.cur[id] {
			continue // zero move or clamped in place: value did not change
		}
		sw.cur[id] = next
		if ids != nil {
			ids[written] = id
			vals[written] = next
			written++
		}
	}
	return written
}
