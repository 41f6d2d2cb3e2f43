package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42, 7)
	b := New(42, 7)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("sequence diverged at %d: %d != %d", i, av, bv)
		}
	}
}

func TestStreamsDiffer(t *testing.T) {
	a := New(42, 1)
	b := New(42, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different ids collide too often: %d/1000", same)
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1, 7)
	b := New(2, 7)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide too often: %d/1000", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(9, 0)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split children collide too often: %d/1000", same)
	}
}

func TestSplitReproducible(t *testing.T) {
	p1 := New(9, 0)
	p2 := New(9, 0)
	c1 := p1.Split(5)
	c2 := p2.Split(5)
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("identical split ids must yield identical children")
		}
	}
}

// TestSplitValueMatchesSplit pins that the by-value split is the same
// split: identical children, identical advance of the parent, so a flat
// arena of generators is stream-for-stream the slice of pointers it
// replaces.
func TestSplitValueMatchesSplit(t *testing.T) {
	p1, p2 := New(9, 3), New(9, 3)
	for child := uint64(0); child < 50; child++ {
		c1, c2 := p1.Split(child), p2.SplitValue(child)
		if *c1 != c2 {
			t.Fatalf("child %d: Split %+v, SplitValue %+v", child, *c1, c2)
		}
	}
	if *p1 != *p2 {
		t.Fatalf("parents diverged: %+v vs %+v", *p1, *p2)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3, 3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1, 1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-squared style sanity check over 10 buckets.
	r := New(11, 4)
	const buckets, samples = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < samples; i++ {
		counts[r.Uint64n(buckets)]++
	}
	expect := float64(samples) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expect
		chi2 += d * d / expect
	}
	// 9 degrees of freedom; 99.9th percentile ≈ 27.9.
	if chi2 > 27.9 {
		t.Fatalf("Uint64n looks non-uniform: chi2=%.2f counts=%v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5, 5)
	sum := 0.0
	const samples = 100000
	for i := 0; i < samples; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	mean := sum / samples
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean suspicious: %v", mean)
	}
}

func TestBernoulliExact(t *testing.T) {
	r := New(6, 6)
	if !r.Bernoulli(5, 5) {
		t.Fatal("Bernoulli(5,5) must always succeed")
	}
	if r.Bernoulli(0, 5) {
		t.Fatal("Bernoulli(0,5) must always fail")
	}
	// Empirical frequency for p = 1/3.
	succ := 0
	const trials = 300000
	for i := 0; i < trials; i++ {
		if r.Bernoulli(1, 3) {
			succ++
		}
	}
	p := float64(succ) / trials
	if math.Abs(p-1.0/3) > 0.005 {
		t.Fatalf("Bernoulli(1,3) frequency off: %v", p)
	}
}

func TestBernoulliPanics(t *testing.T) {
	r := New(1, 1)
	for _, tc := range []struct{ num, den uint64 }{{1, 0}, {3, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for Bernoulli(%d,%d)", tc.num, tc.den)
				}
			}()
			r.Bernoulli(tc.num, tc.den)
		}()
	}
}

func TestBernoulliPow2(t *testing.T) {
	r := New(7, 7)
	// Round large enough that 2^r >= n: always true.
	if !r.BernoulliPow2(10, 1024) {
		t.Fatal("p = 2^10/1024 = 1 must succeed")
	}
	if !r.BernoulliPow2(64, 3) {
		t.Fatal("round >= 64 must saturate to p = 1")
	}
	// p = 2^2/1000 = 1/250: measure frequency.
	succ := 0
	const trials = 500000
	for i := 0; i < trials; i++ {
		if r.BernoulliPow2(2, 1000) {
			succ++
		}
	}
	p := float64(succ) / trials
	if math.Abs(p-4.0/1000) > 0.0008 {
		t.Fatalf("BernoulliPow2(2,1000) frequency off: %v", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(8, 8)
	check := func(n uint8) bool {
		size := int(n%64) + 1
		p := r.Perm(size)
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(12, 3)
	const n, trials = 5, 50000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Perm(n)[0]]++
	}
	for i, c := range counts {
		p := float64(c) / trials
		if math.Abs(p-1.0/n) > 0.01 {
			t.Fatalf("Perm first-element bias at %d: %v", i, p)
		}
	}
}

func TestShuffle(t *testing.T) {
	r := New(4, 9)
	s := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	seen := make(map[int]bool)
	for _, v := range s {
		if seen[v] {
			t.Fatalf("shuffle duplicated element %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Fatalf("shuffle lost elements: %v", s)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13, 13)
	const samples = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < samples; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / samples
	variance := sumsq/samples - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean off: %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance off: %v", variance)
	}
}

func TestUint64nPowerOfTwoFastPath(t *testing.T) {
	r := New(15, 15)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(16); v >= 16 {
			t.Fatalf("power-of-two path out of range: %d", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1, 1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkBernoulliPow2(b *testing.B) {
	r := New(1, 1)
	for i := 0; i < b.N; i++ {
		_ = r.BernoulliPow2(3, 1000)
	}
}
