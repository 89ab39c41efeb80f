// Package run turns a declarative study point into a simulation: it owns
// the assembly of a Config into a sim.Config (workload, replication
// widening, store, protocol, noise and failure injectors), the cache
// identity of that Config, and Run, the one executor that validates,
// snapshots and resumes it. The root checkpointsim facade re-exports it,
// and every simulation in internal/exp, cmd/sweepd and cmd/checksim is a
// Config handed to Run, so every entry point executes a run the same way.
package run

import (
	"encoding/hex"
	"errors"

	"checkpointsim/internal/cache"
	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/failure"
	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/noise"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/storage"
	"checkpointsim/internal/validate"
	"checkpointsim/internal/workload"
)

// Config is the one-call configuration for a complete study point.
type Config struct {
	// Workload names a built-in generator: one of workload.Names().
	Workload string
	// Program, when non-nil, is the application to execute directly — an
	// ingested GOAL trace rather than a generated workload. The workload
	// shape fields (Workload, Ranks, Iterations, Compute, Jitter, MsgBytes)
	// are ignored; everything else (protocol, storage, noise, failures,
	// seed) applies unchanged. The cache key covers it through the digest
	// of its canonical serialization, not field by field.
	Program *goal.Program `cache:"-"`
	// Ranks is the number of MPI ranks.
	Ranks int
	// Iterations is the number of outer timesteps.
	Iterations int
	// Compute is the mean per-rank computation per iteration.
	Compute simtime.Duration
	// Jitter is the relative stddev of per-iteration compute (0 = none).
	Jitter float64
	// MsgBytes is the dominant message size of the workload.
	MsgBytes int64
	// Net is the LogGOPS parameter set (zero value = network.DefaultParams()).
	Net network.Params
	// Storage, when non-zero, models the checkpoint storage system: the
	// protocol's writes drain through a fair-share store built from these
	// parameters instead of taking fixed durations. An unconstrained
	// parameter set reproduces the legacy results byte-identically.
	Storage storage.Params
	// Protocol selects and configures checkpointing.
	Protocol checkpoint.Config
	// Noise, if non-nil, injects OS noise.
	Noise *noise.Config
	// Failures, if non-nil, injects failures with the configured recovery.
	Failures *failure.Config
	// Trace, when non-nil, receives every trace record of the run (see
	// sim.Config.Trace). A pure observer, so it is not keyed.
	Trace func(sim.TraceEvent) `cache:"-"`
	// Seed makes the run reproducible; equal configs and seeds give
	// bit-identical results.
	Seed uint64
	// MaxTime aborts runs whose virtual time exceeds this (0 = unlimited);
	// useful with failure rates the machine cannot outrun.
	MaxTime simtime.Time
	// SnapshotEvery, when > 0, captures a snapshot of the complete
	// simulator state after every that many events and delivers each to
	// OnSnapshot. Snapshotting is a pure
	// observer: results are byte-identical with or without it, so it is
	// not keyed.
	SnapshotEvery int64 `cache:"-"`
	// OnSnapshot receives each captured snapshot, synchronously on the
	// simulation loop. Required when SnapshotEvery > 0. Not keyed, like
	// SnapshotEvery.
	OnSnapshot func(sim.Snapshot) `cache:"-"`
	// ResumeFrom, when non-nil, restores the engine from a snapshot blob
	// before running. The run executes only the remainder after the
	// snapshot's boundary, and its result is byte-identical to the
	// uninterrupted run's — provided the rest of this config matches the
	// run that took the snapshot (enforced via a config digest embedded in
	// the blob). It is mechanism, not configuration, so it is not keyed.
	ResumeFrom []byte `cache:"-"`
	// Validate streams the run through a trace-conformance checker
	// (internal/validate) and reconciles it against the result, the store
	// and every agent; any violation fails the run. The checker needs the
	// trace from t=0, so a resumed run (ResumeFrom set) is not checked: it
	// inherits the uninterrupted run's verdict by determinism. Validation
	// never changes a completed result, and a snapshot must resume under
	// either value, so it is not keyed here; the result caches key it
	// themselves (exp.Options.CacheFields, and scenarios always validate).
	Validate bool `cache:"-"`
}

// Result bundles the simulation result with the protocol and injector
// state of a run.
type Result struct {
	*sim.Result
	// Protocol is the protocol instance, exposing Stats and recovery lines.
	Protocol checkpoint.Protocol
	// Store is the shared-storage arbiter of the run (nil unless
	// Config.Storage was set), exposing drain statistics.
	Store *storage.Store
	// FailureEvents holds the injected failures (nil without Failures).
	FailureEvents []failure.Event
}

// assembly is a Config turned into a ready-to-run simulation: the engine
// configuration plus the live protocol, store and failure injector, which
// Run reads back after the run. Its agents are single-simulation.
type assembly struct {
	sim      sim.Config
	protocol checkpoint.Protocol
	store    *storage.Store
	failures *failure.Injector
}

// assemble builds the workload, attaches the protocol and injectors, and
// returns the simulation ready to run. For KindReplication the configured
// ranks are the application: the program is widened so each primary's
// replicas are real simulated nodes. Agents run in the order protocol,
// noise, failures. Trace and the snapshot settings are copied into the
// sim.Config, and its Identity is the config's canonical cache encoding, so
// a snapshot resumes only under this exact config.
func (cfg Config) assemble() (*assembly, error) {
	prog, err := cfg.BuildProgram()
	if err != nil {
		return nil, err
	}
	if cfg.Protocol.Kind == checkpoint.KindReplication {
		d, err := cfg.Protocol.Replicas()
		if err != nil {
			return nil, err
		}
		if prog, err = goal.Widen(prog, prog.NumRanks*(d+1)); err != nil {
			return nil, err
		}
	}
	a := &assembly{}
	if (cfg.Storage != storage.Params{}) {
		if a.store, err = storage.New(cfg.Storage); err != nil {
			return nil, err
		}
	}
	if a.protocol, err = cfg.Protocol.New(a.store); err != nil {
		return nil, err
	}
	agents := []sim.Agent{a.protocol}
	if cfg.Noise != nil {
		inj, err := noise.NewInjector(*cfg.Noise)
		if err != nil {
			return nil, err
		}
		agents = append(agents, inj)
	}
	if cfg.Failures != nil {
		if a.failures, err = failure.NewInjector(*cfg.Failures, a.protocol); err != nil {
			return nil, err
		}
		agents = append(agents, a.failures)
	}
	a.sim = sim.Config{
		Net:           cfg.Net.OrDefault(),
		Program:       prog,
		Agents:        agents,
		Seed:          cfg.Seed,
		MaxTime:       cfg.MaxTime,
		Trace:         cfg.Trace,
		SnapshotEvery: cfg.SnapshotEvery,
		OnSnapshot:    cfg.OnSnapshot,
		Identity:      func() string { return cache.Canonical(cfg.CacheFields()) },
	}
	return a, nil
}

// BuildProgram returns the application the config runs before any
// replication widening: Program when set, else the named workload built
// from the shape fields.
func (cfg Config) BuildProgram() (*goal.Program, error) {
	if cfg.Program != nil {
		return cfg.Program, nil
	}
	return workload.FromName(cfg.Workload, workload.CommonConfig{
		Base: workload.Base{
			Ranks:      cfg.Ranks,
			Iterations: cfg.Iterations,
			Compute:    cfg.Compute,
			Jitter:     cfg.Jitter,
			Seed:       cfg.Seed,
		},
		Bytes: cfg.MsgBytes,
	})
}

// Run executes one study point end to end: assemble, attach the
// trace-conformance checker when Validate is set on a run from t=0,
// restore from ResumeFrom when set, simulate, and reconcile the checker
// against the result, the store and every agent. It is the one executor
// of every simulation the study runs. A run aborted by its cap returns
// sim.ErrCapExceeded together with a Result whose sim.Result is nil but
// whose protocol, store and failures are readable; such a run is not
// validated.
func Run(cfg Config) (*Result, error) {
	a, err := cfg.assemble()
	if err != nil {
		return nil, err
	}
	var chk *validate.Checker
	if cfg.Validate && cfg.ResumeFrom == nil {
		chk = validate.New(a.sim.Net)
		chk.Watch(a.store, a.sim.Agents...)
		a.sim.Trace = chk.Hook(a.sim.Trace)
	}
	eng, err := sim.New(a.sim)
	if err != nil {
		return nil, err
	}
	if cfg.ResumeFrom != nil {
		if err := eng.Restore(cfg.ResumeFrom); err != nil {
			return nil, err
		}
	}
	res, err := eng.Run()
	if err != nil && !errors.Is(err, sim.ErrCapExceeded) {
		return nil, err
	}
	if chk != nil && err == nil {
		if verr := chk.Finish(res); verr != nil {
			return nil, verr
		}
	}
	out := &Result{Result: res, Protocol: a.protocol, Store: a.store}
	if a.failures != nil {
		out.FailureEvents = a.failures.Events()
	}
	return out, err
}

// CacheFields renders the result-determining configuration of this study
// point as a flat field set for content addressing (cache.Key with a code
// version tag): equal field sets guarantee bit-identical Run results. It is
// cache.Fields over the config with Net resolved to its default, plus the
// digest of Program when one is set. Members tagged `cache:"-"` stay out of
// the address for the reason given where they are declared.
func (cfg Config) CacheFields() []cache.Field {
	cfg.Net = cfg.Net.OrDefault()
	fields := cache.Fields(cfg)
	if cfg.Program != nil {
		// The engine's own fingerprint: two programs that simulate
		// identically (byte-different trace files that parse alike, or
		// programs differing only in op labels) share a key.
		sum := cfg.Program.Digest()
		fields = append(fields, cache.F("program.digest", hex.EncodeToString(sum[:])))
	}
	return fields
}
