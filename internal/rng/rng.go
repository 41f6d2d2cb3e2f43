// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used by every randomized component in this repository.
//
// The generator is a PCG-XSH-RR variant (64-bit state, 32-bit output) with
// an odd per-instance increment, which makes it cheap to derive independent
// substreams: each (seed, stream) pair yields a distinct sequence, so a
// workload generator or a baseline can hand every node its own generator
// and remain reproducible regardless of scheduling order.
//
// The monitor's nodes carry no generator: the protocol's Bernoulli trials
// are a keyed function of (seed, step, tag, round, node id) — Coin, in
// coin.go — which is what makes every engine flip the same coins for a
// seed, however the nodes are spread over hosts and whenever a host was
// built.
//
// The package deliberately does not use math/rand: the paper's protocols
// require Bernoulli trials with success probability 2^r/N for possibly
// non-power-of-two N, and we want those trials to be exact (unbiased) and
// bit-for-bit reproducible across Go versions.
package rng

import (
	"math"
	"math/bits"
)

// Multiplier of the PCG-XSH-RR linear congruential core (from the PCG
// reference implementation).
const pcgMultiplier = 6364136223846793005

// RNG is a deterministic pseudo-random number generator. The zero value is
// not ready for use; construct instances with New or Split (or, by value,
// with SplitValue). An RNG is 16 bytes of plain state: a copy continues
// the original's sequence independently of it.
type RNG struct {
	state uint64
	inc   uint64 // always odd
}

// New returns a generator for the given seed and stream id. Different
// (seed, stream) pairs produce statistically independent sequences.
func New(seed, stream uint64) *RNG {
	r := seeded(seed, stream)
	return &r
}

func seeded(seed, stream uint64) RNG {
	r := RNG{inc: streamInc(stream)}
	// Standard PCG initialization: advance once, add seed, advance again.
	r.next()
	r.state += seed
	r.next()
	return r
}

// Split derives a child generator whose sequence is independent of the
// parent's future output. The child is seeded from the parent's stream so
// repeated Split calls with the same child ids are reproducible.
func (r *RNG) Split(child uint64) *RNG {
	c := r.SplitValue(child)
	return &c
}

// SplitValue is Split returning the child by value — the same child, the
// same advance of the parent, no allocation — for callers that keep many
// generators in one flat slice.
func (r *RNG) SplitValue(child uint64) RNG {
	return seeded(r.Uint64(), r.splitStream(child))
}

// splitStream is the stream id of r's child, which SplitValue seeds from.
// It depends on the child's id and the parent's stream alone — not on the
// seed or on how far the parent has advanced.
func (r *RNG) splitStream(child uint64) uint64 { return childStream(r.inc, child) }

// childStream is the stream id of a child of the generator with increment
// parentInc.
func childStream(parentInc, child uint64) uint64 { return child<<1 ^ parentInc }

// streamInc maps a stream id to its (odd) increment.
func streamInc(stream uint64) uint64 { return stream<<1 | 1 }

// State returns the generator's internal (state, increment) pair: a
// generator rebuilt from its pair continues the original's output exactly.
func (r *RNG) State() (state, inc uint64) { return r.state, r.inc }

// next advances the LCG core and returns the pre-advance state.
func (r *RNG) next() uint64 {
	old := r.state
	r.state = old*pcgMultiplier + r.inc
	return old
}

// output is the XSH-RR output permutation of a pre-advance state.
func output(old uint64) uint32 {
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	return bits.RotateLeft32(xorshifted, -int(old>>59))
}

// Uint32 returns a uniformly distributed 32-bit value.
func (r *RNG) Uint32() uint32 {
	return output(r.next())
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	hi := uint64(r.Uint32())
	lo := uint64(r.Uint32())
	return hi<<32 | lo
}

// Int63 returns a uniformly distributed non-negative int64.
func (r *RNG) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Rejection sampling (Lemire-style threshold) removes modulo bias.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with zero n")
	}
	if n&(n-1) == 0 { // power of two: mask is exact
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling on the largest multiple of n that fits in 64 bits.
	limit := -n % n // (2^64 - n) mod n == 2^64 mod n
	for {
		v := r.Uint64()
		if v >= limit {
			return v % n
		}
	}
}

// Int63n returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n called with non-positive n")
	}
	return int64(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli performs an exact Bernoulli trial with success probability
// num/den. It panics if den == 0 or num > den. The trial consumes exactly
// the randomness of one Uint64n(den) draw, so counts stay comparable across
// engines.
func (r *RNG) Bernoulli(num, den uint64) bool {
	if den == 0 {
		panic("rng: Bernoulli with zero denominator")
	}
	if num > den {
		panic("rng: Bernoulli with probability > 1")
	}
	if num == den {
		return true
	}
	if num == 0 {
		return false
	}
	return r.Uint64n(den) < num
}

// BernoulliPow2 performs the paper's coin flip with success probability
// min(1, 2^r/N) as a draw from a generator a node carries: the stateful
// form of the trial, which the monitor's nodes flipped before their coin
// became a function of their id (Coin) and the experiments still measure
// that coin against. A probability-1 flip draws nothing.
func (r *RNG) BernoulliPow2(round uint, n uint64) bool {
	if n == 0 {
		panic("rng: BernoulliPow2 with zero population")
	}
	if round >= 64 || uint64(1)<<round >= n {
		return true
	}
	return r.Bernoulli(uint64(1)<<round, n)
}

// Perm returns a uniformly random permutation of [0, n) using the
// Fisher-Yates shuffle.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) method. Deterministic given the generator state.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}
