package main

import (
	"math"
	"slices"
	"sort"
)

// percentile returns the p-quantile (0 < p <= 1) of xs by nearest rank,
// or 0 for an empty sample. xs is sorted in place.
func percentile(xs []int64, p float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median returns the middle of xs (the mean of the two middle values of
// an even sample), or 0 for an empty one. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// numBlocks is how many equal blocks the timed region is cut into.
const numBlocks = 5

// blockRates cuts the timed entries into numBlocks contiguous blocks of
// equal entry count and returns each block's calls per second of in-call
// time; batch is the number of calls one entry covers. A region shorter
// than numBlocks entries yields one block.
func blockRates(durs []int64, batch int) []float64 {
	blocks := numBlocks
	if len(durs) < blocks {
		blocks = 1
	}
	rates := make([]float64, 0, blocks)
	for b := 0; b < blocks; b++ {
		lo, hi := b*len(durs)/blocks, (b+1)*len(durs)/blocks
		var ns int64
		for _, d := range durs[lo:hi] {
			ns += d
		}
		if ns > 0 {
			rates = append(rates, float64((hi-lo)*batch)/(float64(ns)/1e9))
		}
	}
	return rates
}

// interval is a half-open time range [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

// unionLen returns the total length covered by ivs clipped to [lo, hi).
// ivs is sorted in place.
func unionLen(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total int64
	end := lo
	for _, iv := range ivs {
		a, b := max(iv.lo, end), min(iv.hi, hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its child spans
// cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.hi - parent.lo - unionLen(children, parent.lo, parent.hi)
}
