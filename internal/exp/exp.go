// Package exp defines the reproduction experiments E1–E19: one function
// per table/figure of the study, each returning report tables that
// cmd/sweep prints and bench_test.go exercises. DESIGN.md carries the
// experiment index; EXPERIMENTS.md records measured outputs.
//
// Every experiment enumerates its sweep as a slice of independent points
// fanned across Options.Jobs workers by internal/runner (points). Each
// point is handed its own seed, derived from the sweep seed, the
// experiment ID and its index, and rows merge in submission order, so
// rendered tables are bit-for-bit identical at any worker count — enforced
// by determinism_test.go against committed golden files. A point measures
// each protocol variant against its twin, the same program run on the
// same network and seed without checkpointing.
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
	// parallel workers). sweepd exports it as sweepd_sim_events_total, and
	// perfbench derives events/sec from it. Telemetry, so it is not keyed.
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
	// SnapshotEvery, when > 0, turns every simulation into its own
	// crash–resume differential harness: the run snapshots its complete
	// state after every SnapshotEvery-th event, each snapshot is restored
	// into a freshly assembled run, the remainder re-executes from the
	// blob, and its result and trace suffix must be byte-identical to the
	// uninterrupted run's — any divergence or decode failure fails the run.
	// Verification multiplies work by roughly the snapshot count; meant for
	// CI and debugging, not timing studies. Keyed for the same reason as
	// Validate: a self-verifying run can fail. (To stream snapshots or
	// resume one simulation, set the run.Config fields of the same names.)
	SnapshotEvery int64
	// Snapshots, when non-nil, accumulates the snapshots taken (atomically —
	// sweep points run on parallel workers). Telemetry, so it is not keyed.
	Snapshots *int64 `cache:"-"`
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

func (o Options) net() network.Params { return o.Net.OrDefault() }

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

// execute runs one simulation of a sweep through run.Run, validated when
// o.Validate is set, and adds its events to o.Events. With o.SnapshotEvery
// set it is the self-verify harness: it records the run's trace and every
// snapshot, then replays the remainder from each (verifyResume). A capped
// run (sim.ErrCapExceeded) is not validated: its error comes back with a
// Result whose sim.Result is nil but whose protocol and failures are
// readable.
func execute(o Options, cfg run.Config) (*run.Result, error) {
	cfg.Validate = cfg.Validate || o.Validate
	if o.SnapshotEvery <= 0 {
		r, err := run.Run(cfg)
		o.count(r)
		return r, err
	}
	var full []sim.TraceEvent
	var snaps []sim.Snapshot
	mono := cfg
	mono.Trace = func(ev sim.TraceEvent) {
		full = append(full, ev)
		if cfg.Trace != nil {
			cfg.Trace(ev)
		}
	}
	mono.SnapshotEvery = o.SnapshotEvery
	mono.OnSnapshot = func(s sim.Snapshot) { snaps = append(snaps, s) }
	r, err := run.Run(mono)
	o.count(r)
	if err != nil && !errors.Is(err, sim.ErrCapExceeded) {
		return nil, err
	}
	if verr := verifyResume(cfg, snaps, full, r.Result, err, o.Snapshots); verr != nil {
		return nil, verr
	}
	return r, err
}

// count adds a completed run's events to o.Events.
func (o Options) count(r *run.Result) {
	if o.Events != nil && r != nil && r.Result != nil {
		atomic.AddInt64(o.Events, r.Events)
	}
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

// twin is a sweep point's protocol-free baseline: the program run on the
// point's network and seed with no protocol, noise or failures. Every
// variant of the point runs through it, so the (variant, twin) pair the
// overhead compares is formed in one place.
type twin struct {
	o    Options
	cfg  run.Config
	base *run.Result
}

// newTwin runs the protocol-free baseline of prog once.
func newTwin(o Options, net network.Params, prog *goal.Program, seed uint64) (twin, error) {
	cfg := run.Config{Net: net, Program: prog, Seed: seed}
	base, err := execute(o, cfg)
	if err != nil {
		return twin{}, err
	}
	return twin{o, cfg, base}, nil
}

// at returns the twin with its variants run at seed. The baseline draws
// nothing random, so it is seed-free and shared: E6, E7, E16 and the
// trace suite run it once for every point.
func (tw twin) at(seed uint64) twin {
	tw.cfg.Seed = seed
	return tw
}

// run executes variant v on the twin's network, program and seed, and
// returns its result and its makespan increase over the baseline in
// percent.
func (tw twin) run(v run.Config) (*run.Result, float64, error) {
	v.Net, v.Program, v.Seed = tw.cfg.Net, tw.cfg.Program, tw.cfg.Seed
	r, err := execute(tw.o, v)
	if err != nil {
		return nil, 0, err
	}
	return r, r.OverheadPercent(tw.base.Result), nil
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

// points fans ps across o.Jobs workers and returns fn's results in
// submission order. fn must be self-contained: anything random it does
// keys off sd, the point's own seed (pointSeed).
func points[P, R any](o Options, id string, ps []P, fn func(sd uint64, p P) (R, error)) ([]R, error) {
	return runner.MapCtx(o.ctx(), o.Jobs, ps, func(i int, p P) (R, error) {
		return fn(pointSeed(o, id, i), p)
	})
}

// sweep runs the points of one experiment and merges each point's rows
// into t in submission order, so the rendered table is identical at any
// parallelism.
func sweep[P any](t *report.Table, o Options, id string, ps []P, fn func(sd uint64, p P) (rows, error)) error {
	out, err := points(o, id, ps, fn)
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
