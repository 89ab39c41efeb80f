package stats

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric, safe for concurrent use.
// The zero value is ready. cmd/sweepd exposes counters on /metrics in
// Prometheus text format.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down (queue depth, in-flight jobs).
// The zero value is ready.
type Gauge struct{ v atomic.Int64 }

// Add shifts the value by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// LatencyHist is a concurrency-safe latency histogram with quantile
// export. Observations are seconds; internally they are binned on a log10
// axis over [1µs, 1h] so the same instrument resolves sub-millisecond cache
// hits and minute-long full sweeps — a fixed-width axis at that dynamic
// range would pile every fast observation into one bin. Out-of-range
// observations clamp into the histogram's Under/Over buckets, which the
// quantile logic already maps to the range edges.
type LatencyHist struct {
	mu    sync.Mutex
	h     *Histogram
	sum   float64
	count int64
}

// NewLatencyHist creates an empty histogram of 240 logarithmic bins,
// about 25 per decade.
func NewLatencyHist() *LatencyHist {
	return &LatencyHist{h: NewHistogram(math.Log10(1e-6), math.Log10(3600), 240)}
}

// Observe records one latency in seconds. Non-positive and NaN
// observations are dropped — a clock that ran backwards is not data.
func (l *LatencyHist) Observe(seconds float64) {
	if !(seconds > 0) { // rejects NaN too
		return
	}
	l.mu.Lock()
	l.h.Add(math.Log10(seconds))
	l.sum += seconds
	l.count++
	l.mu.Unlock()
}

// Count returns the number of recorded observations.
func (l *LatencyHist) Count() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// Sum returns the total of all recorded observations, in seconds.
func (l *LatencyHist) Sum() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sum
}

// Quantile returns the approximate q-th (0..1) latency quantile in
// seconds: the center of the log-scale bin holding that rank. NaN when
// empty.
func (l *LatencyHist) Quantile(q float64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.count == 0 {
		return math.NaN()
	}
	return math.Pow(10, l.h.Quantile(q))
}

// Mean returns the exact mean latency in seconds (NaN when empty) — exact
// because it comes from the running sum, not the bins.
func (l *LatencyHist) Mean() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.count == 0 {
		return math.NaN()
	}
	return l.sum / float64(l.count)
}
