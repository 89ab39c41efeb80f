// Package run turns a declarative study point into a simulation: it owns
// the assembly of a Config into a sim.Config (workload, replication
// widening, store, protocol, noise and failure injectors) and the cache
// identity of that Config. The root checkpointsim facade re-exports it, and
// every simulation in internal/exp (experiment points and campaign
// scenarios) is a Config, so every entry point builds a run the same way.
package run

import (
	"encoding/hex"

	"checkpointsim/internal/cache"
	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/failure"
	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/noise"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/storage"
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

// Assembly is a Config turned into a ready-to-run simulation: the engine
// configuration plus the live protocol, store and failure injector, which
// the caller reads back after the run. Its agents are single-simulation.
type Assembly struct {
	Sim      sim.Config
	Protocol checkpoint.Protocol
	Store    *storage.Store
	Failures *failure.Injector
}

// Assemble builds the workload, attaches the protocol and injectors, and
// returns the simulation ready to run. For KindReplication the configured
// ranks are the application: the program is widened so each primary's
// replicas are real simulated nodes. Agents run in the order protocol,
// noise, failures. Trace and the snapshot settings are copied into the
// sim.Config, and its Identity is the config's canonical cache encoding, so
// a snapshot resumes only under this exact config; ResumeFrom is left to
// the caller.
func (cfg Config) Assemble() (*Assembly, error) {
	net := cfg.Net
	if (net == network.Params{}) {
		net = network.DefaultParams()
	}
	prog := cfg.Program
	if prog == nil {
		var err error
		prog, err = workload.FromName(cfg.Workload, workload.CommonConfig{
			Base: workload.Base{
				Ranks:      cfg.Ranks,
				Iterations: cfg.Iterations,
				Compute:    cfg.Compute,
				Jitter:     cfg.Jitter,
				Seed:       cfg.Seed,
			},
			Bytes: cfg.MsgBytes,
		})
		if err != nil {
			return nil, err
		}
	}
	if cfg.Protocol.Kind == checkpoint.KindReplication {
		d := cfg.Protocol.ReplicaDegree
		if d <= 0 {
			d = 1
		}
		var err error
		prog, err = goal.Widen(prog, prog.NumRanks*(d+1))
		if err != nil {
			return nil, err
		}
	}
	a := &Assembly{}
	var err error
	if (cfg.Storage != storage.Params{}) {
		if a.Store, err = storage.New(cfg.Storage); err != nil {
			return nil, err
		}
	}
	if a.Protocol, err = cfg.Protocol.New(a.Store); err != nil {
		return nil, err
	}
	agents := []sim.Agent{a.Protocol}
	if cfg.Noise != nil {
		inj, err := noise.NewInjector(*cfg.Noise)
		if err != nil {
			return nil, err
		}
		agents = append(agents, inj)
	}
	if cfg.Failures != nil {
		if a.Failures, err = failure.NewInjector(*cfg.Failures, a.Protocol); err != nil {
			return nil, err
		}
		agents = append(agents, a.Failures)
	}
	a.Sim = sim.Config{
		Net:           net,
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

// Run executes one study point end to end: assemble, restore from
// ResumeFrom when set, simulate, and return the results.
func Run(cfg Config) (*Result, error) {
	a, err := cfg.Assemble()
	if err != nil {
		return nil, err
	}
	eng, err := sim.New(a.Sim)
	if err != nil {
		return nil, err
	}
	if cfg.ResumeFrom != nil {
		if err := eng.Restore(cfg.ResumeFrom); err != nil {
			return nil, err
		}
	}
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	return a.Result(res), nil
}

// Result bundles an engine result with the assembly's protocol, store and
// injected failures. res may be nil (a run aborted by its cap): the agents'
// state stays readable.
func (a *Assembly) Result(res *sim.Result) *Result {
	out := &Result{Result: res, Protocol: a.Protocol, Store: a.Store}
	if a.Failures != nil {
		out.FailureEvents = a.Failures.Events()
	}
	return out
}

// CacheFields renders the result-determining configuration of this study
// point as a flat field set for content addressing (cache.Key with a code
// version tag): equal field sets guarantee bit-identical Run results. It is
// cache.Fields over the config with Net resolved to its default, plus the
// digest of Program when one is set. Members tagged `cache:"-"` stay out of
// the address for the reason given where they are declared. A live store
// injected into Protocol.TwoLevel.Store is runtime state, not configuration,
// so callers caching by these fields must configure storage declaratively.
func (cfg Config) CacheFields() []cache.Field {
	if (cfg.Net == network.Params{}) {
		cfg.Net = network.DefaultParams()
	}
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
