// Package checkpointsim is a simulation framework for studying the effects
// of communication and coordination on checkpointing at scale.
//
// It reproduces the system behind Ferreira, Widener, Levy, Arnold and
// Hoefler's SC 2014 study: a LogGOPS discrete-event simulator that executes
// message-passing applications expressed as GOAL dependency graphs, with
// eight resilience protocols (coordinated, uncoordinated with message
// logging, hierarchical, non-blocking, partner, two-level, replication and
// communication-induced checkpointing), OS-noise injection, node-failure
// injection with rollback, replay and takeover recovery, and the Young/Daly
// analytic models as baselines.
//
// # Quick start
//
//	res, err := checkpointsim.Run(checkpointsim.RunConfig{
//	    Workload:   "stencil2d",
//	    Ranks:      64,
//	    Iterations: 100,
//	    Compute:    checkpointsim.Millisecond,
//	    MsgBytes:   4096,
//	    Protocol: checkpointsim.ProtocolConfig{
//	        Kind:     checkpointsim.ProtoCoordinated,
//	        Interval: 10 * checkpointsim.Millisecond,
//	        Write:    checkpointsim.Millisecond,
//	    },
//	})
//
// The lower-level pieces — goal.Builder graphs, collective generators, the
// sim engine, protocol agents — are exposed through type aliases below for
// users who need full control; see the examples in example_test.go.
package checkpointsim

import (
	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/failure"
	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/noise"
	"checkpointsim/internal/run"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/storage"
	"checkpointsim/internal/workload"
)

// Re-exported time types and units.
type (
	// Time is an absolute simulated time in integer nanoseconds.
	Time = simtime.Time
	// Duration is a simulated time span in integer nanoseconds.
	Duration = simtime.Duration
)

// Common durations.
const (
	Nanosecond  = simtime.Nanosecond
	Microsecond = simtime.Microsecond
	Millisecond = simtime.Millisecond
	Second      = simtime.Second
	Minute      = simtime.Minute
	Hour        = simtime.Hour
	Day         = simtime.Day
	Year        = simtime.Year
)

// Core building blocks, aliased from their implementation packages.
type (
	// NetworkParams is the LogGOPS parameter set (L, o, g, G, O, S).
	NetworkParams = network.Params
	// Program is an immutable GOAL dependency graph.
	Program = goal.Program
	// Builder constructs Programs operation by operation.
	Builder = goal.Builder
	// Engine executes one simulation.
	Engine = sim.Engine
	// SimConfig configures an Engine.
	SimConfig = sim.Config
	// Result summarizes a completed simulation.
	Result = sim.Result
	// Agent is a protocol component attached to a simulation.
	Agent = sim.Agent
	// Protocol is a checkpointing strategy; ProtocolConfig.New builds one.
	Protocol = checkpoint.Protocol
	// LogParams configure sender-based message logging.
	LogParams = checkpoint.LogParams
	// NoiseConfig configures OS-noise injection.
	NoiseConfig = noise.Config
	// FailureConfig configures failure injection and the recovery costs;
	// the protocol picks the recovery discipline (global rollback,
	// single-rank replay, cluster rollback, level dispatch or replica
	// takeover; see failure.NewInjector).
	FailureConfig = failure.Config
	// IncrementalParams configure incremental writes.
	IncrementalParams = checkpoint.IncrementalParams
	// TwoLevelParams configure multilevel (SCR/FTI-class) checkpointing.
	TwoLevelParams = checkpoint.TwoLevelParams
	// StorageParams configure the shared-storage model: aggregate parallel
	// filesystem bandwidth, a per-writer cap, and per-node burst-buffer
	// bandwidth. The zero value means no storage modelling (legacy
	// fixed-duration writes).
	StorageParams = storage.Params
	// Store arbitrates concurrent checkpoint writers with fair-share
	// semantics; a protocol writes through the one ProtocolConfig.New is
	// given.
	Store = storage.Store
	// TraceEvent is one record on the engine's trace channel (CPU
	// occupancies plus grant/message/phase events; see sim.TraceEvent).
	TraceEvent = sim.TraceEvent
	// Snapshot is one captured simulator state: a versioned, digest-tagged
	// blob restorable into a fresh Engine (see sim.Snapshot and
	// Engine.Restore for the determinism contract).
	Snapshot = sim.Snapshot
	// TraceType discriminates trace records; consumers that only want CPU
	// occupancies filter on TraceCPU.
	TraceType = sim.TraceType
	// FailureEvent records one injected failure.
	FailureEvent = failure.Event
)

// TraceCPU is the trace-record type for completed CPU occupancies — the
// only type the timeline/Gantt consumers use (see sim.TraceType for the
// full set).
const TraceCPU = sim.TraceCPU

// DefaultNetwork returns the InfiniBand-class LogGOPS parameters used
// throughout the experiments.
func DefaultNetwork() NetworkParams { return network.DefaultParams() }

// NewStore builds a shared-storage arbiter from the given parameters. A
// store serves exactly one simulation: build a fresh one per Engine.
func NewStore(p StorageParams) (*Store, error) { return storage.New(p) }

// UnlimitedStore returns a store with no bandwidth constraints — writes
// through it are byte-identical to the legacy fixed-duration path.
func UnlimitedStore() *Store { return storage.Unlimited() }

// CriticalPath computes the contention-free longest path through a program
// under the given network parameters — a lower bound on any simulated
// makespan, with the binding dependency chain.
func CriticalPath(p *Program, net NetworkParams) (Duration, []OpID) {
	return goal.CriticalPath(p, net)
}

// NewBuilder starts a program graph over the given number of ranks.
func NewBuilder(numRanks int) *Builder { return goal.NewBuilder(numRanks) }

// NewEngine validates a configuration and builds a simulation engine.
func NewEngine(cfg SimConfig) (*Engine, error) { return sim.New(cfg) }

// The one-call study-point API, aliased from internal/run and
// internal/checkpoint, which own run assembly and protocol construction.
type (
	// RunConfig is the one-call configuration for a complete study point
	// (see run.Config for every field).
	RunConfig = run.Config
	// RunResult bundles the simulation result with the protocol and
	// injector state of a Run.
	RunResult = run.Result
	// ProtocolConfig describes the checkpointing strategy of a Run. Its
	// New method is the one way to build a protocol agent outside Run:
	// ProtocolConfig{Kind: ProtoCoordinated, ...}.New(store), with a nil
	// store for fixed-duration writes.
	ProtocolConfig = checkpoint.Config
	// ProtoKind selects a checkpointing protocol in ProtocolConfig.
	ProtoKind = checkpoint.Kind
)

// Protocol kinds.
const (
	ProtoNone          = checkpoint.KindNone
	ProtoCoordinated   = checkpoint.KindCoordinated
	ProtoUncoordinated = checkpoint.KindUncoordinated
	ProtoHierarchical  = checkpoint.KindHierarchical
	ProtoNonBlocking   = checkpoint.KindNonBlocking
	ProtoPartner       = checkpoint.KindPartner
	ProtoTwoLevel      = checkpoint.KindTwoLevel
	// ProtoReplication runs replication-based resilience: the Ranks
	// application ranks are embedded in a machine of
	// Ranks·(ReplicaDegree+1) simulated nodes whose extra ranks mirror the
	// primaries (Run widens the program automatically). Its failures
	// recover by replica takeover.
	ProtoReplication = checkpoint.KindReplication
	// ProtoCIC runs index-based communication-induced checkpointing.
	ProtoCIC = checkpoint.KindCIC
)

// Workloads returns the names accepted by RunConfig.Workload.
func Workloads() []string { return workload.Names() }

// DescribeWorkload returns a one-line description of a workload name.
func DescribeWorkload(name string) string { return workload.Describe(name) }

// Run executes one study point end to end: build the workload, attach the
// protocol and injectors, restore ResumeFrom or check the trace when
// Validate is set, simulate, and return the results.
func Run(cfg RunConfig) (*RunResult, error) { return run.Run(cfg) }
