// Package stats provides the summary statistics used by the experiment
// harness and the sweep service: means, variances, confidence intervals,
// histograms and their quantiles, and the service's counters and gauges.
// It works on float64 slices and is dependency-free.
package stats

import "math"

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (NaN for n < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// tCrit95 holds the two-sided 95% Student-t critical values for 1..29
// degrees of freedom. Beyond that the normal approximation (1.96) is within
// 2% and CI95 falls back to it.
var tCrit95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
}

// CI95 returns the half-width of the 95% confidence interval of the mean of
// xs. Small samples (n < 30) use the Student-t critical value for n-1
// degrees of freedom — quick-mode experiment sweeps run 2–10 replications,
// where the normal approximation understates the interval by 15–30% — and
// larger samples use the 1.96 asymptote. Returns 0 for n < 2.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	z := 1.96
	if df := n - 1; df <= len(tCrit95) {
		z = tCrit95[df-1]
	}
	return z * StdDev(xs) / math.Sqrt(float64(n))
}

// Histogram is a fixed-width-bin histogram over [Lo, Hi); samples outside
// the range are counted in Under/Over.
type Histogram struct {
	Lo, Hi      float64
	Bins        []int64
	Under, Over int64
	n           int64
}

// NewHistogram creates a histogram with nbins equal bins spanning [lo, hi).
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if nbins <= 0 || hi <= lo {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]int64, nbins)}
}

// Add counts x into the histogram.
func (h *Histogram) Add(x float64) {
	h.n++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Bins)))
		if i >= len(h.Bins) { // guard float rounding at the top edge
			i = len(h.Bins) - 1
		}
		h.Bins[i]++
	}
}

// BinCenter returns the center value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Bins))
	return h.Lo + (float64(i)+0.5)*w
}

// Quantile returns an approximate quantile (0..1) from binned data: the
// center of the bin holding the ceil(q·n)-th smallest sample (at least the
// first, so q=0 names the minimum rather than an arbitrary empty bin).
// Quantiles that fall below Lo return Lo; above Hi return Hi.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	target := int64(math.Ceil(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	if target > h.n {
		target = h.n
	}
	cum := h.Under
	if cum >= target {
		return h.Lo
	}
	for i, c := range h.Bins {
		cum += c
		if cum >= target {
			return h.BinCenter(i)
		}
	}
	return h.Hi
}
