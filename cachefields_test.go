package checkpointsim

import (
	"testing"

	"checkpointsim/internal/cache"
)

func facadeKey(cfg RunConfig) string { return cache.Key("test", cfg.CacheFields()) }

func baseCfg() RunConfig {
	return RunConfig{
		Workload:   "stencil2d",
		Ranks:      16,
		Iterations: 20,
		Compute:    Millisecond,
		MsgBytes:   4096,
		Seed:       1,
		Protocol: ProtocolConfig{
			Kind:     ProtoCoordinated,
			Interval: 10 * Millisecond,
			Write:    Millisecond,
		},
	}
}

// Every declarative knob moves the key; the Trace observer does not.
func TestRunConfigCacheFields(t *testing.T) {
	ref := facadeKey(baseCfg())
	mutations := map[string]func(*RunConfig){
		"workload":       func(c *RunConfig) { c.Workload = "ring" },
		"ranks":          func(c *RunConfig) { c.Ranks = 32 },
		"iterations":     func(c *RunConfig) { c.Iterations = 21 },
		"compute":        func(c *RunConfig) { c.Compute = 2 * Millisecond },
		"jitter":         func(c *RunConfig) { c.Jitter = 0.1 },
		"msg bytes":      func(c *RunConfig) { c.MsgBytes = 8192 },
		"seed":           func(c *RunConfig) { c.Seed = 2 },
		"max time":       func(c *RunConfig) { c.MaxTime = Time(Hour) },
		"net":            func(c *RunConfig) { c.Net = DefaultNetwork(); c.Net.Latency *= 2 },
		"storage":        func(c *RunConfig) { c.Storage.AggregateBytesPerSec = 1e9 },
		"protocol kind":  func(c *RunConfig) { c.Protocol.Kind = ProtoUncoordinated },
		"interval":       func(c *RunConfig) { c.Protocol.Interval = 20 * Millisecond },
		"write":          func(c *RunConfig) { c.Protocol.Write = 2 * Millisecond },
		"offset":         func(c *RunConfig) { c.Protocol.Offset = "random" },
		"logging alpha":  func(c *RunConfig) { c.Protocol.Logging.Alpha = Microsecond },
		"logging beta":   func(c *RunConfig) { c.Protocol.Logging.BetaNsPerByte = 0.5 },
		"cluster":        func(c *RunConfig) { c.Protocol.ClusterSize = 8 },
		"incremental":    func(c *RunConfig) { c.Protocol.Incremental = IncrementalParams{FullEvery: 4, Fraction: 0.25} },
		"window":         func(c *RunConfig) { c.Protocol.Window = Millisecond },
		"slowdown":       func(c *RunConfig) { c.Protocol.Slowdown = 1.1 },
		"ckpt bytes":     func(c *RunConfig) { c.Protocol.CkptBytes = 1 << 20 },
		"proto bytes":    func(c *RunConfig) { c.Protocol.Bytes = 1 << 20 },
		"two-level":      func(c *RunConfig) { c.Protocol.TwoLevel.LocalInterval = Millisecond },
		"noise attached": func(c *RunConfig) { c.Noise = &NoiseConfig{Period: Millisecond, Duration: Microsecond} },
		"failures":       func(c *RunConfig) { c.Failures = &FailureConfig{MTBF: Hour} },
		"replica degree": func(c *RunConfig) { c.Protocol.ReplicaDegree = 2 },
		"hb period":      func(c *RunConfig) { c.Protocol.HeartbeatPeriod = 2 * Millisecond },
		"takeover cost":  func(c *RunConfig) { c.Protocol.TakeoverCost = Millisecond },
		"cic lag":        func(c *RunConfig) { c.Protocol.CICLag = 3 },
	}
	for name, mutate := range mutations {
		cfg := baseCfg()
		mutate(&cfg)
		if facadeKey(cfg) == ref {
			t.Errorf("mutating %s did not change the cache key", name)
		}
	}

	traced := baseCfg()
	traced.Trace = func(TraceEvent) {}
	if facadeKey(traced) != ref {
		t.Error("Trace observer leaked into the cache key")
	}
}

// Noise config values are distinguished once noise is attached, and the
// zero Net resolves to the default so both spellings share an entry.
func TestRunConfigCacheFieldsResolution(t *testing.T) {
	a, b := baseCfg(), baseCfg()
	a.Noise = &NoiseConfig{Period: Millisecond, Duration: Microsecond}
	b.Noise = &NoiseConfig{Period: Millisecond, Duration: 2 * Microsecond}
	if facadeKey(a) == facadeKey(b) {
		t.Error("distinct noise configs share a key")
	}

	explicit := baseCfg()
	explicit.Net = DefaultNetwork()
	if facadeKey(baseCfg()) != facadeKey(explicit) {
		t.Error("zero Net and DefaultNetwork() produce different keys")
	}
}
