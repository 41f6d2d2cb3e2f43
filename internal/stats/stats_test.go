package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("unexpected summary: %+v", s)
	}
	if !almostEqual(s.Var, 2.5, 1e-12) {
		t.Fatalf("variance: got %v want 2.5", s.Var)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary should be zero: %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Median != 7 || s.Std != 0 || s.P99 != 7 {
		t.Fatalf("single-sample summary wrong: %+v", s)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEqual(m, 5, 1e-12) {
		t.Fatalf("mean: %v", m)
	}
	// Population variance is 4; unbiased sample variance is 32/7.
	if v := Variance(xs); !almostEqual(v, 32.0/7, 1e-12) {
		t.Fatalf("variance: %v", v)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3, 20},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); !almostEqual(got, c.want, 1e-9) {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, 1.5) },
		func() { Quantile([]float64{1}, -0.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestQuantileMonotone(t *testing.T) {
	r := rng.New(1, 1)
	check := func(seedByte uint8) bool {
		n := int(seedByte%20) + 2
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		slices.Sort(xs)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0001; q += 0.1 {
			v := Quantile(xs, math.Min(q, 1))
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanCI(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	mean, hw := MeanCI(xs, 1.96)
	if !almostEqual(mean, 5.5, 1e-12) {
		t.Fatalf("mean: %v", mean)
	}
	if hw <= 0 {
		t.Fatalf("half width should be positive: %v", hw)
	}
	_, hw1 := MeanCI([]float64{3}, 1.96)
	if hw1 != 0 {
		t.Fatalf("single sample CI should be 0: %v", hw1)
	}
}

func TestGeometricMean(t *testing.T) {
	if g := GeometricMean([]float64{1, 4}); !almostEqual(g, 2, 1e-12) {
		t.Fatalf("geometric mean: %v", g)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-positive sample")
		}
	}()
	GeometricMean([]float64{1, 0})
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	f := LinearFit(xs, ys)
	if !almostEqual(f.Slope, 2, 1e-9) || !almostEqual(f.Intercept, 3, 1e-9) {
		t.Fatalf("fit: %+v", f)
	}
	if !almostEqual(f.R2, 1, 1e-9) {
		t.Fatalf("R2 should be 1 for exact fit: %v", f.R2)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	// Vertical data (all same x) should not blow up.
	f := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3})
	if f.Slope != 0 || !almostEqual(f.Intercept, 2, 1e-9) {
		t.Fatalf("degenerate fit: %+v", f)
	}
	if got := LinearFit([]float64{1}, []float64{1}); got != (Fit{}) {
		t.Fatalf("underdetermined fit should be zero: %+v", got)
	}
}

func TestLinearFitMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LinearFit([]float64{1, 2}, []float64{1})
}

func TestLogXFit(t *testing.T) {
	// y = 3*log2(x) + 1 exactly.
	xs := []float64{2, 4, 8, 16, 32}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*math.Log2(x) + 1
	}
	f := LogXFit(xs, ys)
	if !almostEqual(f.Slope, 3, 1e-9) || !almostEqual(f.Intercept, 1, 1e-9) {
		t.Fatalf("log fit: %+v", f)
	}
}

func TestLogXFitPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LogXFit([]float64{0, 1}, []float64{1, 2})
}

func TestLinearFitNoise(t *testing.T) {
	r := rng.New(2, 2)
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 0.5*xs[i] + 10 + r.NormFloat64()*0.1
	}
	f := LinearFit(xs, ys)
	if !almostEqual(f.Slope, 0.5, 0.01) || !almostEqual(f.Intercept, 10, 0.5) {
		t.Fatalf("noisy fit off: %+v", f)
	}
	if f.R2 < 0.99 {
		t.Fatalf("R2 too low for tight noise: %v", f.R2)
	}
}

func TestGini(t *testing.T) {
	if g := Gini([]float64{1, 1, 1, 1}); !almostEqual(g, 0, 1e-12) {
		t.Fatalf("uniform gini: %v", g)
	}
	// One element takes everything: gini = (n-1)/n.
	if g := Gini([]float64{0, 0, 0, 10}); !almostEqual(g, 0.75, 1e-12) {
		t.Fatalf("concentrated gini: %v", g)
	}
	if g := Gini([]float64{5}); g != 0 {
		t.Fatalf("single-sample gini: %v", g)
	}
	if g := Gini([]float64{0, 0}); g != 0 {
		t.Fatalf("zero-sum gini: %v", g)
	}
	// More skew means higher gini.
	if Gini([]float64{1, 2, 3, 4}) >= Gini([]float64{0, 0, 1, 9}) {
		t.Fatal("gini should grow with skew")
	}
}

func TestGiniPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Gini([]float64{1, -1})
}
