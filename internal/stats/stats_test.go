package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Variance(xs); !approx(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v", got)
	}
	if got := StdDev(xs); !approx(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance(nil)) {
		t.Error("empty inputs should give NaN")
	}
	if CI95(nil) != 0 || CI95([]float64{1}) != 0 {
		t.Error("CI95 of tiny input should be 0")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	h.Add(-1)   // under
	h.Add(10)   // over (hi is exclusive)
	h.Add(12.5) // over
	for i, c := range h.Bins {
		if c != 1 {
			t.Errorf("bin %d = %d", i, c)
		}
	}
	if h.Under != 1 || h.Over != 2 {
		t.Errorf("under=%d over=%d", h.Under, h.Over)
	}
	if h.n != 13 {
		t.Errorf("n = %d", h.n)
	}
	if got := h.BinCenter(0); !approx(got, 0.5, 1e-12) {
		t.Errorf("BinCenter(0) = %v", got)
	}
	q := h.Quantile(0.5)
	if q < 3 || q > 7 {
		t.Errorf("median quantile = %v", q)
	}
}

func TestHistogramEdgeRounding(t *testing.T) {
	h := NewHistogram(0, 0.3, 3)
	// 0.3 - tiny epsilon lands in last bin without indexing out of range.
	h.Add(math.Nextafter(0.3, 0))
	if h.Bins[2] != 1 {
		t.Errorf("edge sample not in last bin: %v", h.Bins)
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on bad bounds")
		}
	}()
	NewHistogram(5, 5, 10)
}

func TestQuantileEmpty(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("quantile of empty histogram should be NaN")
	}
}

func TestQuantileBoundaries(t *testing.T) {
	// One sample in bin 3 of [0,10)x10: every quantile — q=0 included —
	// must name that bin, not the empty first bin.
	h := NewHistogram(0, 10, 10)
	h.Add(3.5)
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); !approx(got, 3.5, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want 3.5", q, got)
		}
	}
	// Samples in bins 1 and 8: q=0 is the minimum's bin, q=1 the maximum's.
	h = NewHistogram(0, 10, 10)
	h.Add(1.5)
	h.Add(8.5)
	if got := h.Quantile(0); !approx(got, 1.5, 1e-12) {
		t.Errorf("Quantile(0) = %v, want 1.5", got)
	}
	if got := h.Quantile(1); !approx(got, 8.5, 1e-12) {
		t.Errorf("Quantile(1) = %v, want 8.5", got)
	}
	// All samples below Lo: the quantile is off the histogram's left edge
	// and reports Lo rather than an arbitrary bin center.
	h = NewHistogram(0, 10, 10)
	h.Add(-1)
	h.Add(-2)
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); !approx(got, 0, 1e-12) {
			t.Errorf("all-Under Quantile(%v) = %v, want Lo=0", q, got)
		}
	}
	// All samples above Hi: Over absorbs everything, quantiles report Hi.
	h = NewHistogram(0, 10, 10)
	h.Add(11)
	if got := h.Quantile(0.5); !approx(got, 10, 1e-12) {
		t.Errorf("all-Over Quantile(0.5) = %v, want Hi=10", got)
	}
}

func TestCI95SmallSampleUsesStudentT(t *testing.T) {
	// n=2, s=sqrt(2)/sqrt(2)... use {0, 2}: mean 1, sd sqrt(2).
	xs := []float64{0, 2}
	want := 12.706 * math.Sqrt2 / math.Sqrt(2) // t(df=1) * s / sqrt(n)
	if got := CI95(xs); !approx(got, want, 1e-9) {
		t.Errorf("CI95(n=2) = %v, want %v (t=12.706)", got, want)
	}
	// n=5 → t(4)=2.776.
	xs = []float64{1, 2, 3, 4, 5}
	want = 2.776 * StdDev(xs) / math.Sqrt(5)
	if got := CI95(xs); !approx(got, want, 1e-9) {
		t.Errorf("CI95(n=5) = %v, want %v (t=2.776)", got, want)
	}
	// Large n keeps the 1.96 asymptote.
	big := make([]float64, 100)
	for i := range big {
		big[i] = float64(i % 7)
	}
	want = 1.96 * StdDev(big) / math.Sqrt(100)
	if got := CI95(big); !approx(got, want, 1e-9) {
		t.Errorf("CI95(n=100) = %v, want %v (z=1.96)", got, want)
	}
}

// Property: mean is bounded by min and max.
func TestQuickMeanBounded(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e100 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		lo, hi := xs[0], xs[0]
		for _, v := range xs {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		m := Mean(xs)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
