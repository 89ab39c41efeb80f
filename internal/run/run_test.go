package run

import (
	"math"
	"testing"

	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/failure"
	"checkpointsim/internal/goal"
	"checkpointsim/internal/noise"
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
		a, err := cfg.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		if got := a.Sim.Program.NumRanks; got != tc.want {
			t.Errorf("degree %d: program has %d ranks, want %d", tc.degree, got, tc.want)
		}
	}
	a, err := base().Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Sim.Program.NumRanks; got != 8 {
		t.Errorf("coordinated: program has %d ranks, want the configured 8", got)
	}
}

// A store exists only for non-zero storage parameters, and the one the
// assembly exposes is the one the protocol writes through.
func TestAssembleStore(t *testing.T) {
	a, err := base().Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if a.Store != nil {
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

func TestAssembleRejectsInvalidStorage(t *testing.T) {
	for _, st := range []storage.Params{
		{AggregateBytesPerSec: -1},
		{PerWriterBytesPerSec: math.NaN()},
		{NodeBytesPerSec: math.Inf(1)},
	} {
		cfg := base()
		cfg.Storage = st
		if _, err := cfg.Assemble(); err == nil {
			t.Errorf("storage %+v: Assemble succeeded, want an error", st)
		}
	}
}

// Agents run in the order protocol, noise, failures.
func TestAssembleAgentOrder(t *testing.T) {
	cfg := base()
	cfg.Noise = &noise.Config{Period: simtime.Millisecond, Duration: 10 * simtime.Microsecond}
	cfg.Failures = &failure.Config{MTBF: simtime.Second, Restart: simtime.Millisecond}
	a, err := cfg.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	ag := a.Sim.Agents
	if len(ag) != 3 {
		t.Fatalf("%d agents, want 3", len(ag))
	}
	if ag[0] != a.Protocol {
		t.Errorf("agent 0 is %T, want the protocol", ag[0])
	}
	if _, ok := ag[1].(*noise.Injector); !ok {
		t.Errorf("agent 1 is %T, want the noise injector", ag[1])
	}
	if ag[2] != a.Failures {
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
	a, err := cfg.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if a.Sim.Program != prog {
		t.Error("Assemble did not run the given program")
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
