// Package stats implements the small statistics toolkit used by the
// experiment harness: summary statistics, quantiles, histograms, ordinary
// least squares (including logarithmic fits), and bootstrap confidence
// intervals. Everything is stdlib-only and deterministic given an explicit
// random source where resampling is involved.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the usual descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Var    float64 // unbiased sample variance
	Std    float64
	Min    float64
	Max    float64
	Median float64
	P90    float64
	P99    float64
}

// Summarize computes a Summary of xs. It returns a zero Summary for an
// empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Var = ss / float64(s.N-1)
		s.Std = math.Sqrt(s.Var)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.P90 = Quantile(sorted, 0.90)
	s.P99 = Quantile(sorted, 0.99)
	return s
}

// Mean returns the arithmetic mean of xs (0 for an empty sample).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance (0 for n < 2).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-quantile (0 <= q <= 1) of a sorted sample using
// linear interpolation between order statistics. It panics if the sample is
// empty or q is outside [0, 1].
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// QuantileUnsorted sorts a copy of xs and returns the q-quantile.
func QuantileUnsorted(xs []float64, q float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Quantile(sorted, q)
}

// MeanCI returns the mean of xs together with a normal-approximation
// confidence half-width at the given z value (z = 1.96 for 95%).
func MeanCI(xs []float64, z float64) (mean, halfWidth float64) {
	mean = Mean(xs)
	if len(xs) < 2 {
		return mean, 0
	}
	halfWidth = z * StdDev(xs) / math.Sqrt(float64(len(xs)))
	return mean, halfWidth
}

// GeometricMean returns the geometric mean of strictly positive samples.
// Non-positive entries cause a panic because the quantity is undefined.
func GeometricMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic("stats: GeometricMean requires positive samples")
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Gini returns the Gini coefficient of a non-negative sample: 0 for a
// perfectly even distribution, approaching 1 as a single element takes
// everything. It panics on negative entries and returns 0 for samples
// with at most one element or zero sum.
func Gini(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum, weighted float64
	for i, x := range sorted {
		if x < 0 {
			panic("stats: Gini requires non-negative samples")
		}
		sum += x
		weighted += float64(i+1) * x
	}
	if sum == 0 {
		return 0
	}
	n := float64(len(sorted))
	return (2*weighted)/(n*sum) - (n+1)/n
}

// Fit holds the result of a simple linear regression y ≈ Slope*x + Intercept.
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LinearFit performs ordinary least squares of ys against xs. It panics on
// mismatched lengths and returns a zero fit for fewer than two points.
func LinearFit(xs, ys []float64) Fit {
	if len(xs) != len(ys) {
		panic("stats: LinearFit length mismatch")
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return Fit{}
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return Fit{Intercept: sy / n}
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	// Coefficient of determination.
	ssTot := syy - sy*sy/n
	ssRes := 0.0
	for i := range xs {
		r := ys[i] - (slope*xs[i] + intercept)
		ssRes += r * r
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Fit{Slope: slope, Intercept: intercept, R2: r2}
}

// LogXFit fits y ≈ Slope*log2(x) + Intercept. All xs must be positive.
// This is the fit used to verify the paper's O(log n) message bounds.
func LogXFit(xs, ys []float64) Fit {
	lx := make([]float64, len(xs))
	for i, x := range xs {
		if x <= 0 {
			panic("stats: LogXFit requires positive x")
		}
		lx[i] = math.Log2(x)
	}
	return LinearFit(lx, ys)
}

// Bootstrap computes a percentile bootstrap confidence interval for the
// mean of xs using the supplied uniform source (a func returning values in
// [0, n)). resamples controls the bootstrap iteration count.
func Bootstrap(xs []float64, resamples int, intn func(int) int, lo, hi float64) (cilo, cihi float64) {
	if len(xs) == 0 || resamples <= 0 {
		return 0, 0
	}
	means := make([]float64, resamples)
	for r := 0; r < resamples; r++ {
		sum := 0.0
		for i := 0; i < len(xs); i++ {
			sum += xs[intn(len(xs))]
		}
		means[r] = sum / float64(len(xs))
	}
	sort.Float64s(means)
	return Quantile(means, lo), Quantile(means, hi)
}
