package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks, the definition numpy and
// statistics.quantiles(method="inclusive") share. xs need not be sorted;
// it is not modified. An empty slice yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentiles are the tail percentiles a latency report may quote, from
// the least to the most extreme.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile returns the highest percentile of tailPercentiles that
// has at least ten of n samples beyond it, and false when even the median
// has fewer than ten beyond it (n < 20). A p90 read from 30 samples rests
// on three of them; the rule keeps a quoted tail backed by enough data.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best, ok = p, true
		}
	}
	return best, ok
}
