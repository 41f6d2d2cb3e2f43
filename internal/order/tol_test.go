package order

import (
	"math"
	"math/rand"
	"testing"
)

func TestTolValidation(t *testing.T) {
	for _, eps := range []float64{-0.1, 1, 1.5, math.NaN(), math.Inf(1)} {
		if _, err := NewTol(eps); err == nil {
			t.Errorf("NewTol(%v) accepted", eps)
		}
	}
	for _, eps := range []float64{0, 0.01, 0.5, 0.999999} {
		tol, err := NewTol(eps)
		if err != nil {
			t.Fatalf("NewTol(%v): %v", eps, err)
		}
		if got := tol.Eps(); math.Abs(got-eps) > 1.0/(1<<TolShift) {
			t.Errorf("NewTol(%v).Eps() = %v, quantization too coarse", eps, got)
		}
		if _, err := TolFromNum(tol.Num()); err != nil {
			t.Errorf("TolFromNum round trip of %v: %v", eps, err)
		}
	}
	if _, err := TolFromNum(1 << TolShift); err == nil {
		t.Error("TolFromNum accepted an out-of-range numerator")
	}
}

func TestTolZeroIsIdentity(t *testing.T) {
	var tol Tol
	if !tol.Zero() {
		t.Fatal("zero value is not Zero")
	}
	for _, k := range []Key{NegInf, -5, 0, 5, PosInf} {
		if tol.WidenHi(k) != k || tol.WidenLo(k) != k || tol.Band(k) != 0 {
			t.Fatalf("zero tolerance moved key %d", k)
		}
	}
}

func TestTolBandBasics(t *testing.T) {
	tol, _ := NewTol(0.1)
	if b := tol.Band(1000); b < 99 || b > 100 {
		t.Fatalf("Band(1000) at eps=0.1: %d", b)
	}
	if tol.Band(-1000) != tol.Band(1000) {
		t.Fatal("band is not symmetric in |k|")
	}
	if tol.Band(NegInf) != 0 || tol.Band(PosInf) != 0 {
		t.Fatal("sentinels must have no band")
	}
	if tol.WidenHi(NegInf) != NegInf || tol.WidenLo(PosInf) != PosInf {
		t.Fatal("sentinels must be fixed points")
	}
	// Saturation near the domain ends instead of overflow.
	if got := tol.WidenHi(PosInf - 1); got != PosInf {
		t.Fatalf("WidenHi near PosInf = %d, want saturation", got)
	}
	if got := tol.WidenLo(NegInf + 1); got != NegInf {
		t.Fatalf("WidenLo near NegInf = %d, want saturation", got)
	}
}

// TestTolWidenMonotone is the property the Witness binary search relies
// on: both widen maps are non-decreasing, including across sign changes,
// saturation and the float-free fixed-point arithmetic.
func TestTolWidenMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, eps := range []float64{0.001, 0.05, 0.3, 0.999} {
		tol, _ := NewTol(eps)
		for trial := 0; trial < 2000; trial++ {
			a := Key(rng.Uint64())
			var step Key
			switch trial % 3 {
			case 0:
				step = 1
			case 1:
				step = Key(rng.Int63n(1 << 20))
			default:
				step = Key(rng.Int63())
			}
			b := a + step
			if b < a { // wrapped; skip
				continue
			}
			if tol.WidenHi(a) > tol.WidenHi(b) {
				t.Fatalf("eps=%v: WidenHi(%d)=%d > WidenHi(%d)=%d", eps, a, tol.WidenHi(a), b, tol.WidenHi(b))
			}
			if tol.WidenLo(a) > tol.WidenLo(b) {
				t.Fatalf("eps=%v: WidenLo(%d)=%d > WidenLo(%d)=%d", eps, a, tol.WidenLo(a), b, tol.WidenLo(b))
			}
		}
	}
}

// TestTolWitness checks the witness search against the definition: when
// a witness is reported it actually covers both sides, and when none is
// reported no threshold from a dense probe of the gap covers them.
func TestTolWitness(t *testing.T) {
	tol, _ := NewTol(0.1)
	cases := []struct {
		minTop, maxOut Key
		want           bool
	}{
		{100, 50, true},    // exactly separated
		{100, 100, true},   // touching
		{100, 105, true},   // overlap within the band
		{1000, 1099, true}, // ~10% above
		{1000, 1300, false},
		{100, 10000, false},
		{-100, -95, true}, // negative keys: band from |k|
		{-100, -50, false},
		{0, 1, false}, // no band near zero
	}
	for _, tc := range cases {
		th, ok := tol.Witness(tc.minTop, tc.maxOut)
		if ok != tc.want {
			t.Errorf("Witness(%d, %d) ok=%v, want %v", tc.minTop, tc.maxOut, ok, tc.want)
			continue
		}
		if ok && (tol.WidenLo(th) > tc.minTop || tol.WidenHi(th) < tc.maxOut) {
			t.Errorf("Witness(%d, %d) = %d does not cover: band [%d, %d]",
				tc.minTop, tc.maxOut, th, tol.WidenLo(th), tol.WidenHi(th))
		}
	}
}

// TestTolWitnessRandomized cross-checks Separated against brute force on
// a small key range.
func TestTolWitnessRandomized(t *testing.T) {
	tol, _ := NewTol(0.07)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		minTop := Key(rng.Int63n(4000) - 2000)
		maxOut := Key(rng.Int63n(4000) - 2000)
		got := tol.Separated(minTop, maxOut)
		want := false
		for th := Key(-2600); th <= 2600 && !want; th++ {
			if tol.WidenLo(th) <= minTop && maxOut <= tol.WidenHi(th) {
				want = true
			}
		}
		if got != want {
			t.Fatalf("Separated(%d, %d) = %v, brute force %v", minTop, maxOut, got, want)
		}
	}
}

func TestTolZeroWitnessIsExact(t *testing.T) {
	var tol Tol
	if !tol.Separated(5, 5) || !tol.Separated(5, 4) {
		t.Fatal("exact separation rejected at eps=0")
	}
	if tol.Separated(5, 6) {
		t.Fatal("overlap accepted at eps=0")
	}
}
