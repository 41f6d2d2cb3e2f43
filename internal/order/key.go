// Package order defines the totally ordered key domain the monitoring
// algorithms operate on.
//
// The paper assumes all observed values are pairwise distinct at every time
// step (§2). Real streams do not satisfy that, so this package provides an
// order-preserving injection from (value, node id) pairs into int64 keys:
//
//	key(v, i) = v*n + (n-1-i)
//
// for n nodes with ids 0..n-1. Two properties make this the right mapping:
//
//  1. It is strictly monotone in v for a fixed node, so a node can evaluate
//     its own filter locally by transforming only its own observations.
//  2. For equal values the node with the smaller id receives the larger
//     key, implementing the deterministic tie-break "lower id wins" that
//     the correctness oracle also uses.
//
// The injection multiplies the paper's ∆ (the k-th/(k+1)-st gap) by n,
// which only shifts the log ∆ term by log n and is documented in DESIGN.md.
package order

import (
	"math"
	"math/bits"
)

// Key is a point in the totally ordered observation domain. The extreme
// values NegInf and PosInf act as the paper's −∞ and +∞ filter bounds and
// are never produced by Encode.
type Key int64

// Sentinels for unbounded filter ends.
const (
	NegInf Key = math.MinInt64
	PosInf Key = math.MaxInt64
)

// Codec maps (value, node id) pairs into keys for a fixed universe of n
// nodes. The zero value is unusable; construct with NewCodec.
type Codec struct {
	n   int64
	max int64 // MaxValue, computed once: Encode checks it per observation
	// n = odd << shift, and inv is odd's inverse modulo 2^64: a multiple of
	// n is divided by n exactly with one shift and one multiplication
	// (Value), where a division takes twenty times as long.
	shift uint
	inv   uint64
}

// NewCodec returns a codec for n nodes. It panics for n <= 0.
func NewCodec(n int) Codec {
	if n <= 0 {
		panic("order: codec needs at least one node")
	}
	shift := uint(bits.TrailingZeros64(uint64(n)))
	odd := uint64(n) >> shift
	inv := odd // Newton's iteration doubles the correct low bits: 3, 6, ..., 96
	for i := 0; i < 5; i++ {
		inv *= 2 - odd*inv
	}
	return Codec{n: int64(n), max: (math.MaxInt64 - 1 - (int64(n) - 1)) / int64(n), shift: shift, inv: inv}
}

// N returns the number of nodes the codec was built for.
func (c Codec) N() int { return int(c.n) }

// MaxValue is the largest raw value Encode accepts (symmetrically,
// -MaxValue is the smallest): the key of any admissible (value, id) pair
// neither overflows int64 nor lands on the PosInf/NegInf sentinels. The
// budget is MaxInt64-1 rather than MaxInt64 because at power-of-two n
// the extreme key value·n + (n-1) would otherwise equal PosInf exactly.
func (c Codec) MaxValue() int64 { return c.max }

// MaxValueFor is the one definition of the monitors' value-domain bound:
// the largest observation magnitude admissible for n nodes under the
// given tie-break mode. Every layer that validates observations — the
// public topk boundary, the engines, the wire-facing node hosts — derives
// its bound from here, so the layers cannot silently disagree.
func MaxValueFor(n int, distinct bool) int64 {
	if distinct {
		return MaxDistinctValue
	}
	return NewCodec(n).MaxValue()
}

// Encode maps a raw observation v at node id into its key. It panics if id
// is out of range or |v| exceeds MaxValue; callers are expected to bound
// their value universe (the paper's model also assumes bounded values so
// messages fit in O(log max v) bits).
func (c Codec) Encode(v int64, id int) Key {
	if id < 0 || int64(id) >= c.n {
		panic("order: node id out of range")
	}
	if v > c.MaxValue() || v < -c.MaxValue() {
		panic("order: value magnitude exceeds codec capacity")
	}
	return Key(v*c.n + (c.n - 1 - int64(id)))
}

// Decode recovers the raw value and node id from a key produced by Encode.
func (c Codec) Decode(k Key) (v int64, id int) {
	kk := int64(k)
	q := kk / c.n
	r := kk % c.n
	if r < 0 { // Go truncates toward zero; normalize to floor division.
		q--
		r += c.n
	}
	return q, int(c.n - 1 - r)
}

// Value recovers the raw value from the key Encode produced for node id —
// Decode for a caller that knows the id, without a division: the key less
// the id's tie-break is v·n exactly, and an exact multiple of n = odd·2^s
// divided by n is its arithmetic shift by s times odd's inverse modulo
// 2^64. For a key Encode did not produce for that id the result is
// unspecified.
func (c Codec) Value(k Key, id int) int64 {
	return int64(uint64((int64(k)-(c.n-1-int64(id)))>>c.shift) * c.inv)
}

// Midpoint returns a key between lo and hi, rounded toward lo, without
// overflowing. It panics if lo > hi. Midpoint(lo, hi) == lo exactly when
// hi <= lo+1, which the monitor treats as "the gap is exhausted".
func Midpoint(lo, hi Key) Key {
	if lo > hi {
		panic("order: Midpoint with inverted bounds")
	}
	return lo + Key(uint64(hi-lo)/2)
}

// Less reports whether a orders strictly before b.
func Less(a, b Key) bool { return a < b }

// Max returns the larger of two keys.
func Max(a, b Key) Key {
	if a > b {
		return a
	}
	return b
}

// Min returns the smaller of two keys.
func Min(a, b Key) Key {
	if a < b {
		return a
	}
	return b
}

// Neg returns the order-reversing involution of k, mapping PosInf to NegInf
// and vice versa. MinimumProtocol is MaximumProtocol over negated keys;
// Neg is total on the sentinel range so that trick is safe.
func Neg(k Key) Key {
	switch k {
	case PosInf:
		return NegInf
	case NegInf:
		return PosInf
	default:
		return -k
	}
}
