package exp

import (
	"strings"
	"testing"

	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/failure"
	"checkpointsim/internal/network"
	"checkpointsim/internal/noise"
	"checkpointsim/internal/report"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/storage"
)

// renderTables flattens tables to one string for byte comparison.
func renderTables(ts []*report.Table) string {
	var sb strings.Builder
	for _, t := range ts {
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// resumeCadence picks a SnapshotEvery from a probed total event count:
// coarse enough that replaying every snapshot's remainder stays a small
// multiple of the base cost, fine enough that the largest simulations take
// several snapshots each.
func resumeCadence(totalEvents int64) int64 {
	c := totalEvents / 40
	if c < 200 {
		c = 200
	}
	return c
}

// TestCrashResumeExperiments is the crash–resume differential harness over
// the full experiment set: every quick experiment runs with SnapshotEvery
// set, which makes each of its simulations snapshot at safe boundaries,
// replay the remainder from every snapshot in a fresh engine, and require
// the resumed result and trace suffix to be byte-identical to the
// uninterrupted run (see verifyResume). On top of that inline proof, the
// rendered tables must be byte-identical to a plain run's — so any state
// the snapshot misses that leaks into table-visible protocol stats fails
// here even if the Result and trace agree.
func TestCrashResumeExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("crash–resume differential suite is not short")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var events int64
			plain := DefaultOptions()
			plain.Quick = true
			plain.Validate = true
			plain.Events = &events
			want, err := e.Run(plain)
			if err != nil {
				t.Fatalf("%s plain run: %v", e.ID, err)
			}
			var snaps int64
			o := DefaultOptions()
			o.Quick = true
			o.Validate = true
			o.SnapshotEvery = resumeCadence(events)
			o.Snapshots = &snaps
			got, err := e.Run(o)
			if err != nil {
				t.Fatalf("%s verified run (cadence %d): %v", e.ID, o.SnapshotEvery, err)
			}
			if snaps == 0 {
				t.Fatalf("%s: no snapshots taken at cadence %d over %d events — nothing was verified",
					e.ID, o.SnapshotEvery, events)
			}
			if g, w := renderTables(got), renderTables(want); g != w {
				t.Errorf("%s: tables diverged between snapshot-verified and plain runs\nverified:\n%s\nplain:\n%s", e.ID, g, w)
			}
			t.Logf("%s: %d snapshots verified (cadence %d over %d events)", e.ID, snaps, o.SnapshotEvery, events)
		})
	}
}

// TestCrashResumeCampaign runs the differential harness over a seeded
// campaign schedule: each scenario self-verifies every snapshot, and its
// rendered table — which, unlike experiment tables, embeds protocol and
// storage counters — must be byte-identical to the plain run's.
func TestCrashResumeCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("crash–resume differential suite is not short")
	}
	sched, err := DefaultCampaignSpace().Schedule(7, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range sched {
		i, sc := i, sc
		t.Run(sc.ID(), func(t *testing.T) {
			t.Parallel()
			var events int64
			plain := DefaultOptions()
			plain.Events = &events
			want, err := sc.Run(plain)
			if err != nil {
				t.Fatalf("point %d plain run: %v", i, err)
			}
			cadence := events / 5
			if cadence < 100 {
				cadence = 100
			}
			var snaps int64
			o := DefaultOptions()
			o.SnapshotEvery = cadence
			o.Snapshots = &snaps
			got, err := sc.Run(o)
			if err != nil {
				t.Fatalf("point %d verified run (cadence %d): %v", i, cadence, err)
			}
			if snaps == 0 {
				t.Fatalf("point %d (%s): no snapshots taken at cadence %d over %d events",
					i, sc.ID(), cadence, events)
			}
			if g, w := renderTables(got), renderTables(want); g != w {
				t.Errorf("point %d: tables diverged between snapshot-verified and plain runs\nverified:\n%s\nplain:\n%s", i, g, w)
			}
			t.Logf("point %d (%s): %d snapshots verified (cadence %d over %d events)",
				i, sc.ID(), snaps, cadence, events)
		})
	}
}

// TestResumeAtEveryEvent is the crash–resume harness at its finest grain:
// one small run per protocol family, with the store both unconstrained and
// bandwidth-limited (plus one run with failures and noise, and one under a
// shared-fabric model), snapshotted after every single event — mid
// coordination round, mid control message, mid storage drain — and every
// remainder replayed byte-identically from its snapshot (verifyResume).
func TestResumeAtEveryEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("crash–resume differential suite is not short")
	}
	const us = simtime.Microsecond
	ck := checkpoint.Config{Interval: 150 * us, Write: 30 * us}
	with := func(f func(*checkpoint.Config)) checkpoint.Config {
		c := ck
		f(&c)
		return c
	}
	families := []struct {
		name  string
		proto checkpoint.Config
	}{
		{"none", checkpoint.Config{Kind: checkpoint.KindNone}},
		{"coordinated", with(func(c *checkpoint.Config) { c.Kind = checkpoint.KindCoordinated })},
		{"uncoordinated", with(func(c *checkpoint.Config) {
			c.Kind = checkpoint.KindUncoordinated
			c.Logging = checkpoint.LogParams{Alpha: us}
		})},
		{"hierarchical", with(func(c *checkpoint.Config) {
			c.Kind = checkpoint.KindHierarchical
			c.ClusterSize = 4
			c.Logging = checkpoint.LogParams{Alpha: us}
		})},
		{"nonblocking", with(func(c *checkpoint.Config) {
			c.Kind = checkpoint.KindNonBlocking
			c.Window = 80 * us
			c.Slowdown = 1.3
		})},
		{"partner", with(func(c *checkpoint.Config) {
			c.Kind = checkpoint.KindPartner
			c.CkptBytes = 64 << 10
		})},
		{"twolevel", checkpoint.Config{Kind: checkpoint.KindTwoLevel, TwoLevel: checkpoint.TwoLevelParams{
			LocalInterval: 100 * us, LocalWrite: 10 * us, GlobalInterval: 250 * us, GlobalWrite: 30 * us}}},
		{"replication", checkpoint.Config{Kind: checkpoint.KindReplication, HeartbeatPeriod: 100 * us}},
		{"cic", with(func(c *checkpoint.Config) { c.Kind = checkpoint.KindCIC })},
	}
	stores := []struct {
		name string
		p    storage.Params
	}{
		{"unlimited", storage.Params{RanksPerNode: 2}},
		{"limited", storage.Params{AggregateBytesPerSec: 2e9, PerWriterBytesPerSec: 1e9,
			NodeBytesPerSec: 1e9, RanksPerNode: 2}},
	}
	base := run.Config{Workload: "stencil2d", Ranks: 8, Iterations: 3,
		Compute: 150 * us, Jitter: 0.1, MsgBytes: 4096, Seed: 7}
	type point struct {
		name string
		cfg  run.Config
	}
	var points []point
	for _, f := range families {
		for _, st := range stores {
			cfg := base
			cfg.Protocol, cfg.Storage = f.proto, st.p
			if f.proto.Kind == checkpoint.KindReplication {
				cfg.Ranks = 4 // widened to 8 simulated nodes
			}
			points = append(points, point{f.name + "/" + st.name, cfg})
		}
	}
	faulty := base
	faulty.Protocol = with(func(c *checkpoint.Config) { c.Kind = checkpoint.KindCoordinated })
	faulty.Storage = stores[1].p
	faulty.Noise = &noise.Config{Period: 200 * us, Duration: 5 * us, Poisson: true}
	faulty.Failures = &failure.Config{MTBF: 8 * 500 * us, Restart: 20 * us, Kind: failure.RollbackGlobal}
	faulty.MaxTime = simtime.Time(simtime.Second)
	points = append(points, point{"coordinated/failures+noise", faulty})
	// A shared fabric is the one model under which the engine keeps, and
	// snapshots, per-channel arrival tables. A fabric faster than one link
	// but queued behind 32KiB halos lets a later, smaller message catch up
	// with one ahead of it on its channel, so the arrival clamp binds in
	// this run and a restore that lost the tables would diverge.
	fabric := base
	fabric.Protocol = with(func(c *checkpoint.Config) { c.Kind = checkpoint.KindCoordinated })
	fabric.MsgBytes = 32 << 10
	fabric.Net = network.DefaultParams()
	fabric.Net.BisectionBytesPerSec = 5e9
	points = append(points, point{"coordinated/fabric", fabric})

	for _, pt := range points {
		pt := pt
		t.Run(pt.name, func(t *testing.T) {
			t.Parallel()
			var events, snaps int64
			o := DefaultOptions()
			o.Validate = true
			o.SnapshotEvery = 1
			o.Events = &events
			o.Snapshots = &snaps
			res, err := execute(o, pt.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if pt.cfg.Failures != nil && len(res.FailureEvents) == 0 {
				t.Error("no failure injected; the run does not cover recovery")
			}
			if pt.cfg.Net.HasFabric() && res.Metrics.FabricBusy == 0 {
				t.Error("no fabric occupancy; the run does not cover the fabric model")
			}
			// One snapshot after every event but the last: no instant is
			// off limits.
			if snaps != events-1 {
				t.Errorf("%d snapshots over %d events, want %d", snaps, events, events-1)
			}
			t.Logf("%d events, every remainder byte-identical", events)
		})
	}
}
