// Package exp defines the reproduction experiments E1–E19: one function
// per table/figure of the study, each returning report tables that
// cmd/sweep prints and bench_test.go exercises. DESIGN.md carries the
// experiment index; EXPERIMENTS.md records measured outputs.
//
// Every experiment enumerates its sweep as a slice of independent points
// fanned across Options.Jobs workers by internal/runner. A point derives
// its RNG stream from the sweep seed, the experiment ID, and its own index
// (pointSeed), and rows merge in submission order, so rendered tables are
// bit-for-bit identical at any worker count — enforced by
// determinism_test.go against committed golden files.
package exp

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"checkpointsim/internal/cache"
	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/report"
	"checkpointsim/internal/rng"
	"checkpointsim/internal/run"
	"checkpointsim/internal/runner"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/storage"
	"checkpointsim/internal/validate"
	"checkpointsim/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// Net is the LogGOPS parameter set (defaults to network.DefaultParams).
	Net network.Params
	// Seed drives all randomness.
	Seed uint64
	// Quick shrinks sweeps (scales, iterations, replications) to keep
	// benches and CI runs short; full runs reproduce the study scales.
	Quick bool
	// Jobs caps the worker pool an experiment fans its sweep points
	// across; 0 (the default) uses runtime.GOMAXPROCS. Results are
	// bit-for-bit identical for every value: each point derives its RNG
	// stream from the sweep seed and its own index, never from worker
	// identity or completion order, so it is not keyed.
	Jobs int `cache:"-"`
	// Storage configures the shared-storage model the checkpoint protocols
	// write through. The zero value keeps the legacy fixed-duration write
	// path (no store); any non-zero parameter set routes protocol writes
	// through a store built per simulation. An unconstrained parameter set
	// (all bandwidths zero) is byte-identical to the legacy path. E17 sweeps
	// AggregateBytesPerSec itself and treats this field as the template for
	// the remaining knobs.
	Storage storage.Params
	// Validate attaches a trace-conformance checker (internal/validate) to
	// every simulation the experiments run: causality, resource
	// exclusivity, conservation, and protocol invariants are verified
	// against the full event stream, and any violation fails the
	// experiment. Runs aborted by an event/time cap carry no result and
	// are not validated (E8 treats capped cells as data). Costs extra per
	// run; meant for CI and debugging, not timing studies. It is keyed
	// although it adds no rows: a validated run can fail where an
	// unvalidated one succeeds, and a cache must not launder a result
	// across that distinction.
	Validate bool
	// Events, when non-nil, accumulates the simulation events processed by
	// every run the experiment performs (atomically — sweep points run on
	// parallel workers). cmd/bench uses it to report events/sec. Telemetry,
	// so it is not keyed.
	Events *int64 `cache:"-"`
	// Ctx, when non-nil, cancels the experiment cooperatively: once it is
	// done, the sweep worker pool stops dequeuing points and the experiment
	// returns Ctx.Err(). Points already in flight run to completion, so
	// cancellation never yields a half-executed point — it yields no result
	// at all. cmd/sweepd threads per-request timeouts and client
	// disconnects through here. Like Jobs and Events, Ctx can never change
	// the rows of a completed run, only whether the run completes, so it is
	// not keyed: a re-request at a different timeout still hits.
	Ctx context.Context `cache:"-"`
	// SnapshotEvery, when > 0, snapshots the complete state of every
	// simulation after every SnapshotEvery-th event. For experiment sweeps
	// (and for scenarios without OnSnapshot) this turns every run into its
	// own crash–resume differential harness: each snapshot is restored into
	// a fresh engine, the remainder of the run re-executes from the blob,
	// and its result and trace suffix must be byte-identical to the
	// uninterrupted run's — any divergence or decode failure fails the
	// run. Verification multiplies work by roughly the
	// snapshot count; meant for CI and debugging, not timing studies. Keyed
	// for the same reason as Validate: a self-verifying run can fail.
	SnapshotEvery int64
	// Snapshots, when non-nil, accumulates the snapshots taken (atomically —
	// sweep points run on parallel workers). Telemetry, so it is not keyed.
	Snapshots *int64 `cache:"-"`
	// OnSnapshot, with SnapshotEvery > 0, switches single-simulation runs
	// (Scenario.Run) from self-verification to streaming: each snapshot blob
	// is handed to the callback for persistence, and the run is not
	// re-executed. cmd/sweepd uses this to checkpoint long scenario jobs so
	// a killed worker resumes instead of recomputing. Experiment sweeps
	// ignore it and always self-verify. Mechanism, so it is not keyed.
	OnSnapshot func(sim.Snapshot) `cache:"-"`
	// ResumeFrom, when non-nil, starts a Scenario.Run from a snapshot blob
	// instead of from scratch: the engine restores the blob and executes
	// only the remainder. Determinism makes the completed result
	// byte-identical to a never-interrupted run's (CI proves this over all
	// experiments and campaign scenarios), so the resumed run inherits the
	// full run's trace-conformance verdict; the suffix alone cannot be
	// re-validated, since the checker needs the stream from t=0.
	// Experiment sweeps (many simulations per run) reject it. Mechanism,
	// so it is not keyed.
	ResumeFrom []byte `cache:"-"`
}

// ctx returns the run's context, defaulting to Background.
func (o Options) ctx() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// DefaultOptions returns the options the full reproduction uses.
func DefaultOptions() Options {
	return Options{Net: network.DefaultParams(), Seed: 42}
}

func (o Options) net() network.Params {
	if (o.Net == network.Params{}) {
		return network.DefaultParams()
	}
	return o.Net
}

// Experiment couples an experiment ID to its runner. Bench names the
// bench_test.go benchmark that exercises the experiment (cmd/sweep -list
// prints it so `go test -bench` targets are discoverable from the CLI).
type Experiment struct {
	ID    string
	Title string
	Desc  string
	Bench string
	Run   func(Options) ([]*report.Table, error)
}

// All returns the experiments in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Simulator validation", "simulated vs closed-form LogGOPS costs for point-to-point and collectives", "BenchmarkE1Validation", E1Validation},
		{"E2", "Checkpoint-as-noise propagation", "slowdown vs duty cycle of local interruptions across communication patterns", "BenchmarkE2Propagation", E2Propagation},
		{"E3", "Coordination cost", "per-round coordination latency vs scale, against the tree closed form", "BenchmarkE3Coordination", E3Coordination},
		{"E4", "Weak-scaling overhead", "checkpointing overhead vs node count for coordinated and uncoordinated protocols", "BenchmarkE4WeakScaling", E4WeakScaling},
		{"E5", "Logging sensitivity", "slowdown vs per-message logging cost across workload classes", "BenchmarkE5Logging", E5Logging},
		{"E6", "Interval optimization", "simulated runtime across checkpoint intervals vs the Young/Daly optimum", "BenchmarkE6Interval", E6Interval},
		{"E7", "Failures and recovery", "expected runtime vs per-node MTBF: global rollback vs local replay", "BenchmarkE7Recovery", E7Recovery},
		{"E8", "Protocol crossover", "who wins on the (scale x logging overhead) grid, simulation and model", "BenchmarkE8Crossover", E8Crossover},
		{"E9", "Stagger ablation", "aligned vs staggered vs random uncoordinated checkpoint offsets", "BenchmarkE9Stagger", E9Stagger},
		{"E10", "Hierarchical protocol", "cluster-size sweep for coordinate-inside/log-across checkpointing", "BenchmarkE10Hierarchical", E10Hierarchical},
		{"E11", "Non-blocking checkpointing", "blocking vs asynchronous copy-on-write coordinated checkpointing", "BenchmarkE11NonBlocking", E11NonBlocking},
		{"E12", "Partner checkpointing", "local filesystem writes vs diskless buddy transfers over the interconnect", "BenchmarkE12Partner", E12Partner},
		{"E13", "Straggler interaction", "protocol cost under static load imbalance (one slow rank)", "BenchmarkE13Straggler", E13Straggler},
		{"E14", "Fabric contention", "partner checkpointing vs local writes under finite bisection bandwidth", "BenchmarkE14Fabric", E14Fabric},
		{"E15", "Noise-shape resonance", "fixed duty cycle, swept interruption granularity (why checkpoints are the worst noise)", "BenchmarkE15Resonance", E15Resonance},
		{"E16", "Two-level checkpointing", "single-level vs multilevel (SCR/FTI-class) under failures, swept local coverage", "BenchmarkE16TwoLevel", E16TwoLevel},
		{"E17", "Storage contention map", "overhead vs (scale x aggregate PFS bandwidth): coordinated vs staggered writes through a shared store", "BenchmarkE17Contention", E17Contention},
		{"E18", "Replication crossover", "three-way coordinated vs uncoordinated vs replication over (scale x MTBF): 2x resources but no rollback", "BenchmarkE18Replication", E18Replication},
		{"E19", "CIC forced-checkpoint amplification", "index-based communication-induced checkpointing: forced writes vs communication intensity and lag threshold", "BenchmarkE19CIC", E19CIC},
	}
}

// ByID finds an experiment by its ID (e.g. "E4").
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// buildProg constructs a named workload.
func buildProg(name string, ranks, iters int, compute simtime.Duration, bytes int64, seed uint64) (*goal.Program, error) {
	return workload.FromName(name, workload.CommonConfig{
		Base: workload.Base{
			Ranks:      ranks,
			Iterations: iters,
			Compute:    compute,
			Seed:       seed,
		},
		Bytes: bytes,
	})
}

// execute is the one executor behind every simulation this package runs:
// it assembles cfg and runs it in the mode cfg and o select.
//
//   - cfg.ResumeFrom set: restore the blob and run only the remainder. The
//     conformance checker needs the trace from t=0, so the suffix is not
//     validated; determinism (proven by the crash–resume harness) transfers
//     the uninterrupted run's verdict. Snapshots keep streaming when
//     configured, so a second interruption resumes from even later.
//   - cfg.OnSnapshot set: stream every snapshot to it.
//   - o.SnapshotEvery alone: self-verify — record the trace and every
//     snapshot, then replay the remainder from each (verifyResume).
//
// Only Scenario.Run sets cfg's snapshot and resume fields. An experiment
// sweep runs many simulations, so it cannot resume from one blob: its
// points reject o.ResumeFrom, ignore o.OnSnapshot and always self-verify.
//
// With o.Validate set the run streams through a trace-conformance checker
// and FinishRun reconciles it against the result, the assembled store and
// every agent; any violation is returned as an error. A capped run
// (sim.ErrCapExceeded) is not validated: its error comes back with a
// Result whose sim.Result is nil but whose protocol and failures are
// readable.
func execute(o Options, cfg run.Config) (*run.Result, error) {
	if o.ResumeFrom != nil && cfg.ResumeFrom == nil {
		return nil, fmt.Errorf("exp: ResumeFrom applies to single-simulation scenario runs, not experiment sweeps")
	}
	a, err := cfg.Assemble()
	if err != nil {
		return nil, err
	}
	scfg := a.Sim
	var chk *validate.Checker
	if o.Validate && cfg.ResumeFrom == nil {
		chk = validate.New(scfg.Net)
		scfg.Trace = chk.Hook(scfg.Trace)
	}
	var full []sim.TraceEvent
	var snaps []sim.Snapshot
	replay := o.SnapshotEvery > 0 && scfg.OnSnapshot == nil && cfg.ResumeFrom == nil
	switch {
	case scfg.OnSnapshot != nil && o.Snapshots != nil:
		stream := scfg.OnSnapshot
		scfg.OnSnapshot = func(s sim.Snapshot) {
			atomic.AddInt64(o.Snapshots, 1)
			stream(s)
		}
	case replay:
		inner := scfg.Trace
		scfg.Trace = func(ev sim.TraceEvent) {
			full = append(full, ev)
			if inner != nil {
				inner(ev)
			}
		}
		scfg.SnapshotEvery = o.SnapshotEvery
		scfg.OnSnapshot = func(s sim.Snapshot) { snaps = append(snaps, s) }
	}
	eng, err := sim.New(scfg)
	if err != nil {
		return nil, err
	}
	if cfg.ResumeFrom != nil {
		if err := eng.Restore(cfg.ResumeFrom); err != nil {
			return nil, fmt.Errorf("resume: %w", err)
		}
	}
	res, runErr := eng.Run()
	if res != nil && o.Events != nil {
		atomic.AddInt64(o.Events, res.Events)
	}
	if runErr == nil && chk != nil {
		if err := chk.FinishRun(res, a.Store, scfg.Agents...); err != nil {
			return nil, err
		}
	}
	if replay {
		if err := verifyResume(scfg, snaps, full, res, runErr, o.Snapshots); err != nil {
			return nil, err
		}
	}
	return a.Result(res), runErr
}

// executeCapped runs cfg through execute, treating a run aborted by its
// cfg.MaxTime cap as data (a protocol that diverged under its failure
// regime): the makespan is reported as the cap, with capped set.
func executeCapped(o Options, cfg run.Config) (makespan simtime.Time, capped bool, r *run.Result, err error) {
	r, err = execute(o, cfg)
	if errors.Is(err, sim.ErrCapExceeded) {
		return cfg.MaxTime, true, r, nil
	}
	if err != nil {
		return 0, false, nil, err
	}
	return r.Makespan, false, r, nil
}

// cappedCell renders a makespan from executeCapped, marking capped runs.
func cappedCell(makespan simtime.Time, capped bool) string {
	if capped {
		return ">" + simtime.Duration(makespan).String() + " (capped)"
	}
	return simtime.Duration(makespan).String()
}

// overheadPct computes the relative makespan increase in percent.
func overheadPct(r, base *run.Result) float64 {
	return r.OverheadPercent(base.Result)
}

// pick returns quick when o.Quick, else full.
func pick[T any](o Options, full, quick T) T {
	if o.Quick {
		return quick
	}
	return full
}

// row is one table row produced by a sweep point; cells feed Table.AddRow.
type row []any

// rows collects a point's output in the order it should appear.
type rows []row

// add appends a row built from cells.
func (rs *rows) add(cells ...any) { *rs = append(*rs, row(cells)) }

// sweep fans the points of one experiment across o.Jobs workers and merges
// each point's rows into t in submission order, so the rendered table is
// identical at any parallelism. fn must be self-contained: anything random
// it does should key off pointSeed(o, id, i).
func sweep[P any](t *report.Table, o Options, id string, points []P, fn func(i int, p P) (rows, error)) error {
	out, err := runner.MapCtx(o.ctx(), o.Jobs, points, fn)
	if err != nil {
		return errf(id, err)
	}
	for _, rs := range out {
		for _, r := range rs {
			t.AddRow(r...)
		}
	}
	return nil
}

// pointSeed derives the RNG seed for sweep point i of experiment id. Keying
// by experiment and index decorrelates every point from its siblings and
// from other experiments while keeping the whole sweep a pure function of
// Options.Seed.
func pointSeed(o Options, id string, i int) uint64 {
	var h uint64 = 14695981039346656037 // FNV-1a 64-bit
	for _, c := range []byte(id) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return rng.Derive(o.Seed, h, uint64(i))
}

// CacheFields renders the result-determining configuration of experiment
// id under these options as a flat field set for content addressing
// (cache.Key): the experiment id plus cache.Fields over the options with
// Net resolved through the same default the run itself uses. Two option
// values that produce different rows produce different fields; the members
// tagged `cache:"-"` provably cannot change a completed run's rows, so a
// re-request at different parallelism or timeout still hits.
func (o Options) CacheFields(id string) []cache.Field {
	o.Net = o.net()
	return append(cache.Fields(o), cache.F("exp", id))
}

// ms is a shorthand constructor.
func ms(n int) simtime.Duration { return simtime.Duration(n) * simtime.Millisecond }

// errf wraps an error with experiment context.
func errf(id string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", id, err)
}
