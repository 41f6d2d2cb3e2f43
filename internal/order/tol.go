package order

import (
	"fmt"
	"math/bits"
)

// TolShift is the fixed-point resolution of a Tol: a tolerance ε is
// stored as floor(ε·2^TolShift), so configured tolerances are quantized
// to multiples of 2^-20 ≈ 1e-6. Integer fixed-point (rather than float)
// keeps the band arithmetic exactly monotone over the whole key domain,
// which the approximation-validity argument relies on.
const TolShift = 20

// MaxDistinctValue is the largest observation magnitude representable in
// DistinctValues mode, where keys are the raw values: ±MaxInt64 and
// MinInt64 collide with the PosInf/NegInf sentinels and are rejected.
const MaxDistinctValue int64 = 1<<63 - 2

// Tol is a relative tolerance ε ∈ [0, 1) over the key domain, in exact
// fixed-point form. The zero value means ε = 0 (exact monitoring) and is
// ready to use.
//
// For a key x with magnitude |x|, Band(x) = floor(ε·|x|) is the absolute
// half-width of the (1±ε) band around x; WidenLo/WidenHi move x to the
// band's ends, saturating at the infinities. Both are non-decreasing in
// x (for ε < 1 the band grows by at most one per key step), which makes
// band membership a threshold predicate the Witness search below can
// binary-search over.
type Tol struct {
	num uint64 // floor(ε·2^TolShift), < 2^TolShift
}

// NewTol validates ε and returns its fixed-point form. NaN, negative and
// ≥ 1 tolerances are rejected.
func NewTol(eps float64) (Tol, error) {
	if !(eps >= 0) || eps >= 1 {
		return Tol{}, fmt.Errorf("order: tolerance must satisfy 0 <= eps < 1, got %v", eps)
	}
	return Tol{num: uint64(eps * (1 << TolShift))}, nil
}

// TolFromNum rebuilds a Tol from its wire form (the fixed-point
// numerator carried in wire.Assign).
func TolFromNum(num uint64) (Tol, error) {
	if num >= 1<<TolShift {
		return Tol{}, fmt.Errorf("order: tolerance numerator %d out of range", num)
	}
	return Tol{num: num}, nil
}

// Num returns the fixed-point numerator (the wire form).
func (t Tol) Num() uint64 { return t.num }

// Eps returns the effective tolerance as a float.
func (t Tol) Eps() float64 { return float64(t.num) / (1 << TolShift) }

// Zero reports whether the tolerance is exactly zero (exact monitoring).
func (t Tol) Zero() bool { return t.num == 0 }

// Band returns floor(ε·|k|), the absolute half-width of the tolerance
// band around k. Sentinels have no band.
func (t Tol) Band(k Key) int64 {
	if t.num == 0 || k == NegInf || k == PosInf {
		return 0
	}
	mag := uint64(k)
	if k < 0 {
		mag = -mag
	}
	hi, lo := bits.Mul64(mag, t.num)
	return int64(hi<<(64-TolShift) | lo>>TolShift)
}

// WidenHi returns the upper end k + Band(k) of the band around k,
// saturating at PosInf. It is non-decreasing in k and the identity at
// ε = 0 and on the sentinels.
func (t Tol) WidenHi(k Key) Key {
	if t.num == 0 || k == NegInf || k == PosInf {
		return k
	}
	b := Key(t.Band(k))
	if k > PosInf-b {
		return PosInf
	}
	return k + b
}

// WidenLo returns the lower end k - Band(k) of the band around k,
// saturating at NegInf. It is non-decreasing in k and the identity at
// ε = 0 and on the sentinels.
func (t Tol) WidenLo(k Key) Key {
	if t.num == 0 || k == NegInf || k == PosInf {
		return k
	}
	b := Key(t.Band(k))
	if k < NegInf+b {
		return NegInf
	}
	return k - b
}

// Witness searches for a threshold θ whose tolerance band covers both
// sides of a split: WidenLo(θ) <= minTop and maxOut <= WidenHi(θ),
// where minTop is the smallest key of the reported top set and maxOut
// the largest key outside it. Such a θ existing is exactly the ε-validity
// condition for a top-k report (the (1±ε)-band generalization of the
// paper's Lemma 2.2 separation); at ε = 0 it degenerates to the exact
// condition maxOut <= minTop. The returned θ is centered in the feasible
// threshold interval so freshly installed bands leave both sides slack.
func (t Tol) Witness(minTop, maxOut Key) (Key, bool) {
	if maxOut <= minTop {
		return Midpoint(maxOut, minTop), true
	}
	// Smallest θ with WidenHi(θ) >= maxOut. WidenHi is non-decreasing, so
	// feasibility is a threshold predicate; maxOut itself is feasible.
	lo, hi := NegInf, maxOut
	for {
		mid := Midpoint(lo, hi)
		if mid == lo {
			break
		}
		if t.WidenHi(mid) >= maxOut {
			hi = mid
		} else {
			lo = mid
		}
	}
	thMin := hi
	if t.WidenLo(thMin) > minTop {
		return 0, false // even the lowest covering threshold overshoots
	}
	// Largest θ with WidenLo(θ) <= minTop; thMin is feasible, PosInf not
	// (minTop is a real key).
	lo, hi = thMin, PosInf
	for {
		mid := Midpoint(lo, hi)
		if mid == lo {
			break
		}
		if t.WidenLo(mid) <= minTop {
			lo = mid
		} else {
			hi = mid
		}
	}
	return Midpoint(thMin, lo), true
}

// Separated reports whether a top set with minimum key minTop is a valid
// ε-approximation against an outside maximum key maxOut: some threshold's
// (1±ε) band covers both.
func (t Tol) Separated(minTop, maxOut Key) bool {
	_, ok := t.Witness(minTop, maxOut)
	return ok
}
