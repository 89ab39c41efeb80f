package checkpoint

import (
	"math"
	"testing"

	"checkpointsim/internal/simtime"
	"checkpointsim/internal/storage"
)

// The offset policy is parsed for exactly the kinds that use one: a bad
// policy fails those and is ignored by the rest.
func TestConfigNewOffsets(t *testing.T) {
	ms := simtime.Millisecond
	for _, k := range []Kind{KindUncoordinated, KindPartner, KindCIC} {
		cfg := Config{Kind: k, Interval: 5 * ms, Write: ms, CkptBytes: 1 << 20, Offset: "bogus"}
		if _, err := cfg.New(nil); err == nil {
			t.Errorf("%q accepted a bogus offset", k)
		}
		cfg.Offset = "aligned"
		if _, err := cfg.New(nil); err != nil {
			t.Errorf("%q with a valid offset: %v", k, err)
		}
	}
	if _, err := (Config{Kind: KindCoordinated, Interval: 5 * ms, Write: ms, Offset: "bogus"}).New(nil); err != nil {
		t.Errorf("coordinated has no offset policy, yet rejected one: %v", err)
	}
	if _, err := (Config{Kind: "bogus"}).New(nil); err == nil {
		t.Error("unknown kind accepted")
	}
}

// The store reaches the protocols that write through one.
func TestConfigNewRoutesStore(t *testing.T) {
	st := storage.Unlimited()
	p, err := Config{Kind: KindTwoLevel, TwoLevel: TwoLevelParams{LocalInterval: simtime.Millisecond,
		LocalWrite: simtime.Microsecond, GlobalInterval: 4 * simtime.Millisecond,
		GlobalWrite: simtime.Microsecond}}.New(st)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.(*TwoLevel).st; got != st {
		t.Errorf("two-level store = %p, want the run's %p", got, st)
	}
}

// checkConfigs requires New to build every good Config and to reject
// every bad one.
func checkConfigs(t *testing.T, good, bad []Config) {
	t.Helper()
	for _, c := range good {
		if _, err := c.New(nil); err != nil {
			t.Errorf("%s rejected: %v", c.Kind, err)
		}
	}
	for i, c := range bad {
		if _, err := c.New(nil); err == nil {
			t.Errorf("bad config %d (%s) accepted: %+v", i, c.Kind, c)
		}
	}
}

// New rejects every coordinated, two-level and unknown Config it cannot
// run and accepts a valid neighbour of each; the other kinds have a test
// of their own below.
func TestConfigNewValidates(t *testing.T) {
	ms := simtime.Millisecond
	tl := TwoLevelParams{LocalInterval: 2 * ms, LocalWrite: ms / 10, GlobalInterval: 20 * ms, GlobalWrite: 2 * ms}
	twoLevel := func(edit func(*TwoLevelParams)) Config {
		p := tl
		edit(&p)
		return Config{Kind: KindTwoLevel, TwoLevel: p}
	}
	checkConfigs(t, []Config{
		{Kind: KindCoordinated, Interval: 10 * ms, Write: ms},
		{Kind: KindTwoLevel, TwoLevel: tl},
	}, []Config{
		{Kind: KindCoordinated},
		{Kind: KindCoordinated, Interval: 1, Write: -1},
		{Kind: KindCoordinated, Interval: 1, Bytes: -1},
		twoLevel(func(p *TwoLevelParams) { p.LocalInterval = 0 }),
		twoLevel(func(p *TwoLevelParams) { p.GlobalInterval = 0 }),
		twoLevel(func(p *TwoLevelParams) { p.LocalWrite = -1 }),
		twoLevel(func(p *TwoLevelParams) { p.GlobalWrite = -1 }),
		twoLevel(func(p *TwoLevelParams) { p.LocalInterval = 10 * p.GlobalInterval }),
		{Kind: "bogus"},
	})
}

// Uncoordinated and hierarchical reject a zero interval, negative logging
// costs, a bad incremental fraction and a missing cluster size.
func TestConstructorValidation(t *testing.T) {
	ms := simtime.Millisecond
	checkConfigs(t, []Config{
		{Kind: KindUncoordinated, Interval: 10 * ms, Write: ms,
			Incremental: IncrementalParams{FullEvery: 5, Fraction: 0.2}},
		{Kind: KindHierarchical, Interval: 10 * ms, Write: ms, ClusterSize: 4},
	}, []Config{
		{Kind: KindUncoordinated},
		{Kind: KindUncoordinated, Interval: 1, Write: 1, Logging: LogParams{Alpha: -1}},
		{Kind: KindUncoordinated, Interval: 1, Write: 1, Logging: LogParams{BetaNsPerByte: -1}},
		{Kind: KindUncoordinated, Interval: 1, Write: 1, Logging: LogParams{BetaNsPerByte: math.NaN()}},
		{Kind: KindUncoordinated, Interval: 1, Write: 1, Incremental: IncrementalParams{FullEvery: 5}},
		{Kind: KindUncoordinated, Interval: 1, Write: 1,
			Incremental: IncrementalParams{FullEvery: 5, Fraction: 1.5}},
		{Kind: KindHierarchical, Interval: 1, Write: 1},
		{Kind: KindHierarchical, ClusterSize: 4},
		{Kind: KindHierarchical, Interval: 1, Write: 1, ClusterSize: 4, Logging: LogParams{Alpha: -1}},
	})
}

// Non-blocking rejects a zero interval, a window shorter than the write
// and a slowdown below 1.
func TestNonBlockingParamsValidate(t *testing.T) {
	ms := simtime.Millisecond
	checkConfigs(t, []Config{
		{Kind: KindNonBlocking, Interval: 10 * ms, Write: ms, Window: 5 * ms, Slowdown: 1.25},
	}, []Config{
		{Kind: KindNonBlocking, Window: 1, Slowdown: 1},
		{Kind: KindNonBlocking, Interval: 10 * ms, Write: ms, Window: ms / 2, Slowdown: 1.25},
		{Kind: KindNonBlocking, Interval: 10 * ms, Write: ms, Window: 5 * ms, Slowdown: 0.9},
		{Kind: KindNonBlocking, Interval: 10 * ms, Write: ms, Window: 5 * ms, Slowdown: math.NaN()},
	})
}

// Partner rejects a zero interval, a negative serialize time and a
// missing or negative image size.
func TestPartnerParamsValidate(t *testing.T) {
	ms := simtime.Millisecond
	checkConfigs(t, []Config{
		{Kind: KindPartner, Interval: 10 * ms, Write: ms / 10, CkptBytes: 1 << 20},
	}, []Config{
		{Kind: KindPartner, CkptBytes: 1},
		{Kind: KindPartner, Interval: 1, Write: -1, CkptBytes: 1},
		{Kind: KindPartner, Interval: 1},
		{Kind: KindPartner, Interval: 1, CkptBytes: -1},
	})
}

// Replication rejects negative fields and defaults to one replica.
func TestReplicationParamsValidate(t *testing.T) {
	checkConfigs(t, []Config{{Kind: KindReplication}}, []Config{
		{Kind: KindReplication, ReplicaDegree: -1},
		{Kind: KindReplication, HeartbeatPeriod: -1},
		{Kind: KindReplication, TakeoverCost: -1},
	})
	rp := mustNew[*Replication](t, Config{Kind: KindReplication}, nil)
	if rp.Degree() != 1 || rp.Name() != "replication" {
		t.Errorf("default replication: degree %d, name %q", rp.Degree(), rp.Name())
	}
	if d, err := (Config{ReplicaDegree: 3}).Replicas(); err != nil || d != 3 {
		t.Errorf("Replicas() of degree 3 = %d, %v", d, err)
	}
}

// CIC rejects a zero interval and a negative lag, and defaults the lag
// threshold to 1.
func TestCICConstructorValidation(t *testing.T) {
	ms := simtime.Millisecond
	checkConfigs(t, []Config{{Kind: KindCIC, Interval: 10 * ms, Write: ms}}, []Config{
		{Kind: KindCIC},
		{Kind: KindCIC, Interval: 1, Write: 1, CICLag: -1},
	})
	cic := mustNew[*CIC](t, Config{Kind: KindCIC, Interval: 10 * ms, Write: ms}, nil)
	if cic.lag != 1 || cic.Name() != "cic" {
		t.Errorf("default CIC: lag %d, name %q", cic.lag, cic.Name())
	}
}
