// Package run turns a declarative study point into a simulation: it owns
// the assembly of a Config into a sim.Config (workload, replication
// widening, store, protocol, noise and failure injectors) and the cache
// identity of that Config. The root checkpointsim facade re-exports it, and
// every simulation in internal/exp (experiment points and campaign
// scenarios) is a Config, so every entry point builds a run the same way.
package run

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

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
	// seed) applies unchanged.
	Program *goal.Program
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
	// sim.Config.Trace).
	Trace func(sim.TraceEvent)
	// Seed makes the run reproducible; equal configs and seeds give
	// bit-identical results.
	Seed uint64
	// MaxTime aborts runs whose virtual time exceeds this (0 = unlimited);
	// useful with failure rates the machine cannot outrun.
	MaxTime simtime.Time
	// SnapshotEvery, when > 0, captures a snapshot of the complete
	// simulator state roughly every that many events, at the next safe
	// boundary, and delivers each to OnSnapshot. Snapshotting is a pure
	// observer: results are byte-identical with or without it.
	SnapshotEvery int64
	// OnSnapshot receives each captured snapshot, synchronously on the
	// simulation loop. Required when SnapshotEvery > 0.
	OnSnapshot func(sim.Snapshot)
	// ResumeFrom, when non-nil, restores the engine from a snapshot blob
	// before running. The run executes only the remainder after the
	// snapshot's boundary, and its result is byte-identical to the
	// uninterrupted run's — provided the rest of this config matches the
	// run that took the snapshot (enforced via a config digest embedded in
	// the blob).
	ResumeFrom []byte
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
// sim.Config; ResumeFrom is left to the caller.
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
// version tag): equal field sets guarantee bit-identical Run results. It
// covers the declarative configuration — workload shape, resolved network
// parameters, storage model, protocol knobs including nested
// logging/incremental/two-level parameters, noise, failures, seed, and the
// time cap. Several members are deliberately outside the address space:
// Trace, SnapshotEvery and OnSnapshot (pure observers that cannot change
// results), ResumeFrom (mechanism — a resumed run reproduces the full
// run's result by construction), and a live *Store injected directly into
// Protocol.TwoLevel.Store (runtime state, not configuration — stores built
// from Config.Storage are covered via the storage fields). Callers
// caching by these fields must configure storage declaratively.
func (cfg Config) CacheFields() []cache.Field {
	net := cfg.Net
	if (net == network.Params{}) {
		net = network.DefaultParams()
	}
	f64 := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	dur := func(d simtime.Duration) string { return strconv.FormatInt(int64(d), 10) }
	i64 := func(v int64) string { return strconv.FormatInt(v, 10) }
	fields := []cache.Field{
		cache.F("workload", cfg.Workload),
		cache.F("ranks", strconv.Itoa(cfg.Ranks)),
		cache.F("iterations", strconv.Itoa(cfg.Iterations)),
		cache.F("compute", dur(cfg.Compute)),
		cache.F("jitter", f64(cfg.Jitter)),
		cache.F("msg_bytes", i64(cfg.MsgBytes)),
		cache.F("seed", strconv.FormatUint(cfg.Seed, 10)),
		cache.F("max_time", i64(int64(cfg.MaxTime))),
		cache.F("net.latency", dur(net.Latency)),
		cache.F("net.overhead", dur(net.Overhead)),
		cache.F("net.gap", dur(net.Gap)),
		cache.F("net.gap_per_byte", f64(net.GapPerByte)),
		cache.F("net.overhead_per_byte", f64(net.OverheadPerByte)),
		cache.F("net.rendezvous", i64(net.RendezvousThreshold)),
		cache.F("net.bisection_bps", f64(net.BisectionBytesPerSec)),
		cache.F("storage.aggregate_bps", f64(cfg.Storage.AggregateBytesPerSec)),
		cache.F("storage.per_writer_bps", f64(cfg.Storage.PerWriterBytesPerSec)),
		cache.F("storage.node_bps", f64(cfg.Storage.NodeBytesPerSec)),
		cache.F("storage.ranks_per_node", strconv.Itoa(cfg.Storage.RanksPerNode)),
		cache.F("proto.kind", string(cfg.Protocol.Kind)),
		cache.F("proto.interval", dur(cfg.Protocol.Interval)),
		cache.F("proto.write", dur(cfg.Protocol.Write)),
		cache.F("proto.offset", cfg.Protocol.Offset),
		cache.F("proto.log.alpha", dur(cfg.Protocol.Logging.Alpha)),
		cache.F("proto.log.beta", f64(cfg.Protocol.Logging.BetaNsPerByte)),
		cache.F("proto.cluster", strconv.Itoa(cfg.Protocol.ClusterSize)),
		cache.F("proto.incr.full_every", strconv.Itoa(cfg.Protocol.Incremental.FullEvery)),
		cache.F("proto.incr.fraction", f64(cfg.Protocol.Incremental.Fraction)),
		cache.F("proto.window", dur(cfg.Protocol.Window)),
		cache.F("proto.slowdown", f64(cfg.Protocol.Slowdown)),
		cache.F("proto.ckpt_bytes", i64(cfg.Protocol.CkptBytes)),
		cache.F("proto.bytes", i64(cfg.Protocol.Bytes)),
		cache.F("proto.2l.local_interval", dur(cfg.Protocol.TwoLevel.LocalInterval)),
		cache.F("proto.2l.local_write", dur(cfg.Protocol.TwoLevel.LocalWrite)),
		cache.F("proto.2l.global_interval", dur(cfg.Protocol.TwoLevel.GlobalInterval)),
		cache.F("proto.2l.global_write", dur(cfg.Protocol.TwoLevel.GlobalWrite)),
		cache.F("proto.2l.ctl_bytes", i64(cfg.Protocol.TwoLevel.CtlBytes)),
		cache.F("proto.2l.local_bytes", i64(cfg.Protocol.TwoLevel.LocalBytes)),
		cache.F("proto.2l.global_bytes", i64(cfg.Protocol.TwoLevel.GlobalBytes)),
		cache.F("proto.rep.degree", strconv.Itoa(cfg.Protocol.ReplicaDegree)),
		cache.F("proto.rep.hb_period", dur(cfg.Protocol.HeartbeatPeriod)),
		cache.F("proto.rep.hb_bytes", i64(cfg.Protocol.HeartbeatBytes)),
		cache.F("proto.rep.takeover", dur(cfg.Protocol.TakeoverCost)),
		cache.F("proto.cic.lag", strconv.Itoa(cfg.Protocol.CICLag)),
	}
	if cfg.Program != nil {
		// An ingested trace replaces the workload shape in the address: the
		// digest of the canonical serialization identifies the program, so
		// two byte-different files that parse identically still share a key.
		sum := sha256.Sum256([]byte(goal.WriteString(cfg.Program)))
		fields = append(fields, cache.F("program.digest", hex.EncodeToString(sum[:])))
	}
	if cfg.Noise != nil {
		fields = append(fields,
			cache.F("noise.period", dur(cfg.Noise.Period)),
			cache.F("noise.duration", dur(cfg.Noise.Duration)),
			cache.F("noise.poisson", strconv.FormatBool(cfg.Noise.Poisson)),
		)
	}
	if cfg.Failures != nil {
		fields = append(fields,
			cache.F("fail.mtbf", dur(cfg.Failures.MTBF)),
			cache.F("fail.shape", f64(cfg.Failures.Shape)),
			cache.F("fail.restart", dur(cfg.Failures.Restart)),
			cache.F("fail.replay_speedup", f64(cfg.Failures.ReplaySpeedup)),
			cache.F("fail.kind", strconv.Itoa(int(cfg.Failures.Kind))),
			cache.F("fail.local_coverage", f64(cfg.Failures.LocalCoverage)),
			cache.F("fail.local_restart", dur(cfg.Failures.LocalRestart)),
		)
	}
	return fields
}
