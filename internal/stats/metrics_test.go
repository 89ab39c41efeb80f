package stats

import (
	"math"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	c.Add(-5)
	if got := c.Value(); got != 8000 {
		t.Errorf("negative Add moved a counter: %d", got)
	}
	c.Add(2)
	if got := c.Value(); got != 8002 {
		t.Errorf("counter = %d, want 8002", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.v.Store(10)
	g.Add(-3)
	g.Add(1)
	if got := g.Value(); got != 8 {
		t.Errorf("gauge = %d, want 8", got)
	}
}

func TestLatencyHistQuantiles(t *testing.T) {
	l := NewLatencyHist()
	// 90 fast observations around 1ms, 10 slow around 1s.
	for i := 0; i < 90; i++ {
		l.Observe(1e-3)
	}
	for i := 0; i < 10; i++ {
		l.Observe(1.0)
	}
	if got := l.Count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	if got, want := l.Sum(), 90*1e-3+10*1.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	if got, want := l.Mean(), (90*1e-3+10*1.0)/100; math.Abs(got-want) > 1e-12 {
		t.Errorf("mean = %v, want %v", got, want)
	}
	// p50 should land within a log bin of 1ms, p99 within a bin of 1s.
	if p50 := l.Quantile(0.5); p50 < 0.5e-3 || p50 > 2e-3 {
		t.Errorf("p50 = %v, want ~1ms", p50)
	}
	if p99 := l.Quantile(0.99); p99 < 0.5 || p99 > 2 {
		t.Errorf("p99 = %v, want ~1s", p99)
	}
}

func TestLatencyHistEmptyAndBadObservations(t *testing.T) {
	l := NewLatencyHist()
	if !math.IsNaN(l.Quantile(0.5)) || !math.IsNaN(l.Mean()) {
		t.Error("empty histogram should yield NaN quantile and mean")
	}
	l.Observe(0)
	l.Observe(-1)
	l.Observe(math.NaN())
	if got := l.Count(); got != 0 {
		t.Errorf("bad observations recorded: count = %d", got)
	}
}

// Out-of-range observations clamp to the edges instead of vanishing.
func TestLatencyHistClamping(t *testing.T) {
	l := NewLatencyHist()
	l.Observe(1e-9) // below 1µs
	l.Observe(1e5)  // above 1h
	if got := l.Count(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	if p0 := l.Quantile(0); math.Abs(p0-1e-6) > 1e-15 {
		t.Errorf("under-range quantile = %v, want 1µs", p0)
	}
	if p1 := l.Quantile(1); math.Abs(p1-3600) > 1e-9 {
		t.Errorf("over-range quantile = %v, want 1h", p1)
	}
}

func TestLatencyHistConcurrent(t *testing.T) {
	l := NewLatencyHist()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Observe(1e-3)
				l.Quantile(0.5)
			}
		}()
	}
	wg.Wait()
	if got := l.Count(); got != 4000 {
		t.Errorf("count = %d, want 4000", got)
	}
}
