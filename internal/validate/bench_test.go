package validate_test

import (
	"runtime"
	"testing"

	"checkpointsim/internal/network"
	"checkpointsim/internal/validate"
)

// BenchmarkCheckerReplay measures the checker alone: it replays the
// recorded coordinated trace through a fresh checker per iteration, via
// Hook as the engine delivers it, and reports time and allocations per
// trace record (checker construction and Finish included).
func BenchmarkCheckerReplay(b *testing.B) {
	events, res := coordinatedScenario(b)
	net := network.DefaultParams()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := validate.New(net)
		hook := c.Hook(nil)
		for i := range events {
			hook(events[i])
		}
		if err := c.Finish(res); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	records := float64(b.N) * float64(len(events))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/records, "ns/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/records, "allocs/record")
}
