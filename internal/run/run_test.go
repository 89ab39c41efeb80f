package run

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/failure"
	"checkpointsim/internal/goal"
	"checkpointsim/internal/noise"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/storage"
)

// base is a small stencil run with a coordinated protocol.
func base() Config {
	return Config{
		Workload:   "stencil2d",
		Ranks:      8,
		Iterations: 10,
		Compute:    simtime.Millisecond,
		MsgBytes:   4096,
		Protocol: checkpoint.Config{Kind: checkpoint.KindCoordinated,
			Interval: 2 * simtime.Millisecond, Write: 200 * simtime.Microsecond},
		Seed: 1,
	}
}

// Replication runs the configured ranks as the application and widens the
// program so every primary's replicas are simulated nodes.
func TestAssembleWidensReplication(t *testing.T) {
	for _, tc := range []struct{ degree, want int }{{0, 16}, {1, 16}, {2, 24}} {
		cfg := base()
		cfg.Protocol = checkpoint.Config{Kind: checkpoint.KindReplication, ReplicaDegree: tc.degree}
		a, err := cfg.assemble()
		if err != nil {
			t.Fatal(err)
		}
		if got := a.sim.Program.NumRanks; got != tc.want {
			t.Errorf("degree %d: program has %d ranks, want %d", tc.degree, got, tc.want)
		}
	}
	cfg := base()
	cfg.Protocol = checkpoint.Config{Kind: checkpoint.KindReplication, ReplicaDegree: -1}
	if _, err := cfg.assemble(); err == nil || !strings.Contains(err.Error(), "negative replica degree") {
		t.Errorf("degree -1: err %v, want the degree refused before widening", err)
	}
	a, err := base().assemble()
	if err != nil {
		t.Fatal(err)
	}
	if got := a.sim.Program.NumRanks; got != 8 {
		t.Errorf("coordinated: program has %d ranks, want the configured 8", got)
	}
}

// A store exists only for non-zero storage parameters, and the one the
// assembly exposes is the one the protocol writes through.
func TestAssembleStore(t *testing.T) {
	a, err := base().assemble()
	if err != nil {
		t.Fatal(err)
	}
	if a.store != nil {
		t.Error("zero Storage built a store")
	}

	cfg := base()
	cfg.Storage = storage.Params{AggregateBytesPerSec: 1e9, PerWriterBytesPerSec: 1e9}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Store == nil {
		t.Fatal("non-zero Storage built no store")
	}
	ps, ss := r.Protocol.Stats(), r.Store.Stats()
	if ps.Writes == 0 || ss.Writes != ps.Writes {
		t.Errorf("store drained %d writes, protocol made %d: the store did not reach the protocol",
			ss.Writes, ps.Writes)
	}
}

// The checker a validated run attaches watches the run's store: a trace
// that lost its last store-end marker passes every streaming check (the
// write looks in flight at exit) but not the reconciliation with the
// store's drained writes.
func TestCheckerWatchesStore(t *testing.T) {
	cfg := base()
	cfg.Storage = storage.Params{AggregateBytesPerSec: 1e9, PerWriterBytesPerSec: 4e8}
	a, err := cfg.assemble()
	if err != nil {
		t.Fatal(err)
	}
	var trace []sim.TraceEvent
	a.sim.Trace = func(ev sim.TraceEvent) { trace = append(trace, ev) }
	eng, err := sim.New(a.sim)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	last := -1
	for i, ev := range trace {
		if ev.Type == sim.TracePhase && ev.Name == storage.MarkStoreEnd {
			last = i
		}
	}
	if last < 0 {
		t.Fatal("the run drained no store write")
	}
	finish := func(events []sim.TraceEvent) error {
		chk := a.checker()
		feed := chk.Hook(nil)
		for _, ev := range events {
			feed(ev)
		}
		return chk.Finish(res)
	}
	if err := finish(trace); err != nil {
		t.Fatalf("the run's own trace: %v", err)
	}
	err = finish(append(trace[:last:last], trace[last+1:]...))
	if err == nil || !strings.Contains(err.Error(), "completed writes, trace saw") {
		t.Errorf("trace without its last store-end: %v, want the store's writes unreconciled", err)
	}
}

func TestAssembleRejectsInvalidStorage(t *testing.T) {
	for _, st := range []storage.Params{
		{AggregateBytesPerSec: -1},
		{PerWriterBytesPerSec: math.NaN()},
		{NodeBytesPerSec: math.Inf(1)},
	} {
		cfg := base()
		cfg.Storage = st
		if _, err := cfg.assemble(); err == nil {
			t.Errorf("storage %+v: assemble succeeded, want an error", st)
		}
	}
}

// Agents run in the order protocol, noise, failures.
func TestAssembleAgentOrder(t *testing.T) {
	cfg := base()
	cfg.Noise = &noise.Config{Period: simtime.Millisecond, Duration: 10 * simtime.Microsecond}
	cfg.Failures = &failure.Config{MTBF: simtime.Second, Restart: simtime.Millisecond}
	a, err := cfg.assemble()
	if err != nil {
		t.Fatal(err)
	}
	ag := a.sim.Agents
	if len(ag) != 3 {
		t.Fatalf("%d agents, want 3", len(ag))
	}
	if ag[0] != a.protocol {
		t.Errorf("agent 0 is %T, want the protocol", ag[0])
	}
	if _, ok := ag[1].(*noise.Injector); !ok {
		t.Errorf("agent 1 is %T, want the noise injector", ag[1])
	}
	if ag[2] != a.failures {
		t.Errorf("agent 2 is %T, want the failure injector", ag[2])
	}
}

// An explicit Program replaces the workload shape fields, which are then
// not consulted at all (an unknown workload name is no error).
func TestAssembleProgramOverridesWorkload(t *testing.T) {
	b := goal.NewBuilder(2)
	b.Send(0, 1, 0, 64)
	b.Recv(1, 0, 0, 64)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := base()
	cfg.Workload, cfg.Ranks, cfg.Iterations = "no-such-workload", 99, 7
	cfg.Program = prog
	a, err := cfg.assemble()
	if err != nil {
		t.Fatal(err)
	}
	if a.sim.Program != prog {
		t.Error("assemble did not run the given program")
	}
}

// Result reads the failures back from the injector.
func TestRunReportsFailures(t *testing.T) {
	cfg := base()
	cfg.Iterations = 40
	cfg.Failures = &failure.Config{MTBF: 80 * simtime.Millisecond, Restart: simtime.Millisecond}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.FailureEvents) == 0 {
		t.Error("no failure events with a per-node MTBF far below the makespan")
	}
}

// A run aborted by its cap still returns its Result: the engine result is
// nil, but the protocol and the injected failures are readable, so a sweep
// can report a diverged protocol as data.
func TestRunCappedKeepsAgents(t *testing.T) {
	cfg := base()
	cfg.Failures = &failure.Config{MTBF: 80 * simtime.Millisecond, Restart: simtime.Millisecond}
	cfg.MaxTime = simtime.Time(6 * simtime.Millisecond)
	r, err := Run(cfg)
	if !errors.Is(err, sim.ErrCapExceeded) {
		t.Fatalf("err = %v, want ErrCapExceeded", err)
	}
	if r == nil {
		t.Fatal("capped run returned no Result")
	}
	if r.Result != nil {
		t.Error("capped run carries an engine result")
	}
	if r.Protocol == nil || r.Protocol.Stats().Writes == 0 {
		t.Error("capped run lost its protocol's checkpoint writes")
	}
	if len(r.FailureEvents) == 0 {
		t.Error("capped run lost its injected failures")
	}
}

// Validation is unkeyed: a validated run's snapshot resumes under
// Validate, the resumed suffix is not checked, and the completed result is
// the uninterrupted run's byte for byte.
func TestRunValidatedResume(t *testing.T) {
	plain, err := Run(base())
	if err != nil {
		t.Fatal(err)
	}
	var blobs [][]byte
	cfg := base()
	cfg.Validate = true
	cfg.SnapshotEvery = 100
	cfg.OnSnapshot = func(s sim.Snapshot) { blobs = append(blobs, s.Blob) }
	if _, err := Run(cfg); err != nil {
		t.Fatalf("validated snapshotting run: %v", err)
	}
	if len(blobs) < 2 {
		t.Fatalf("%d snapshots, want a mid-run one", len(blobs))
	}
	resumed := base()
	resumed.Validate = true
	resumed.ResumeFrom = blobs[len(blobs)/2]
	got, err := Run(resumed)
	if err != nil {
		t.Fatalf("validated resume: %v", err)
	}
	if !bytes.Equal(got.CanonicalBytes(), plain.CanonicalBytes()) {
		t.Error("validated resume diverged from the uninterrupted run")
	}
}

// Every record of every protocol speaks the engine's typed vocabulary: CPU
// and grant records carry a job kind, seize records an accounted reason,
// message records a message kind, phase records a name, and no kind prints
// as the fallback. Each run adds noise, failures and a contended store, so
// every seize reason the agents use appears.
func TestTraceVocabularyClosed(t *testing.T) {
	tau, delta := 2*simtime.Millisecond, 200*simtime.Microsecond
	logs := checkpoint.LogParams{Alpha: simtime.Microsecond, BetaNsPerByte: 0.05}
	protocols := []checkpoint.Config{
		{Kind: checkpoint.KindNone},
		{Kind: checkpoint.KindCoordinated, Interval: tau, Write: delta},
		{Kind: checkpoint.KindUncoordinated, Interval: tau, Write: delta,
			Offset: "staggered", Logging: logs},
		{Kind: checkpoint.KindHierarchical, Interval: tau, Write: delta,
			ClusterSize: 4, Logging: logs},
		{Kind: checkpoint.KindNonBlocking, Interval: tau, Write: delta,
			Window: 4 * delta, Slowdown: 1.05},
		{Kind: checkpoint.KindPartner, Interval: tau, Write: delta,
			CkptBytes: 256 * 1024, Offset: "staggered"},
		{Kind: checkpoint.KindTwoLevel, TwoLevel: checkpoint.TwoLevelParams{
			LocalInterval: tau / 3, LocalWrite: delta / 10, GlobalInterval: tau, GlobalWrite: delta}},
		{Kind: checkpoint.KindReplication, HeartbeatPeriod: tau / 2},
		{Kind: checkpoint.KindCIC, Interval: tau, Write: delta, CICLag: 1,
			Offset: "staggered"},
	}
	reasons, phaseNames := map[string]bool{}, map[string]bool{}
	for _, p := range protocols {
		t.Run(string(p.Kind), func(t *testing.T) {
			cfg := base()
			cfg.Protocol = p
			cfg.Protocol.Bytes = 200_000
			cfg.Storage = storage.Params{AggregateBytesPerSec: 1e9}
			cfg.Noise = &noise.Config{Period: 700 * simtime.Microsecond, Duration: 20 * simtime.Microsecond}
			cfg.Failures = &failure.Config{MTBF: 40 * simtime.Millisecond, Restart: 100 * simtime.Microsecond}
			cfg.Validate = true
			var seized, phases []sim.TraceEvent
			cfg.Trace = func(ev sim.TraceEvent) {
				switch ev.Type {
				case sim.TraceCPU, sim.TraceGrant:
					if ev.Kind.Class() == sim.ClassOther {
						t.Errorf("CPU record with non-job kind %q", ev.Label())
					}
					if ev.Kind == sim.KindSeize {
						seized = append(seized, ev)
					}
				case sim.TracePhase:
					if ev.Kind != 0 || ev.Name == "" {
						t.Errorf("phase record %+v: want the zero kind and a name", ev)
					}
					phases = append(phases, ev)
				default:
					switch ev.Kind {
					case sim.KindEager, sim.KindRTS, sim.KindCTS, sim.KindData, sim.KindCtl:
					default:
						t.Errorf("message record with non-message kind %q", ev.Label())
					}
				}
				if ev.Type != sim.TracePhase && ev.Kind.String() == "?" {
					t.Errorf("record %+v prints its kind as the fallback", ev)
				}
			}
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(seized) == 0 {
				t.Error("no seize records despite noise")
			}
			for _, ev := range seized {
				if _, ok := r.SeizedTime[ev.Name]; !ok {
					t.Errorf("seize reason %q is not accounted in %v", ev.Name, r.SeizedTime)
				}
			}
			for _, ev := range phases {
				phaseNames[ev.Name] = true
			}
			for _, ev := range seized {
				reasons[ev.Name] = true
			}
		})
	}
	for _, r := range []string{checkpoint.ReasonWrite, checkpoint.ReasonIOWait, noise.Reason, failure.Reason} {
		if !reasons[r] {
			t.Errorf("no run seized the CPU for %q; seen %v", r, reasons)
		}
	}
	for _, name := range []string{sim.MarkHold, checkpoint.MarkRoundCommit, storage.MarkStoreBegin,
		checkpoint.MarkCICBasic, checkpoint.MarkRepTakeover} {
		if !phaseNames[name] {
			t.Errorf("no run marked %q; seen %v", name, phaseNames)
		}
	}
}
