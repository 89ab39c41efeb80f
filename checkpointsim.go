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
	// Protocol is a checkpointing strategy.
	Protocol = checkpoint.Protocol
	// CheckpointParams are the protocol knobs (interval, write cost).
	CheckpointParams = checkpoint.Params
	// LogParams configure sender-based message logging.
	LogParams = checkpoint.LogParams
	// NoiseConfig configures OS-noise injection.
	NoiseConfig = noise.Config
	// FailureConfig configures failure injection and recovery.
	FailureConfig = failure.Config
	// NonBlockingParams extend CheckpointParams for asynchronous writes.
	NonBlockingParams = checkpoint.NonBlockingParams
	// PartnerParams configure diskless buddy checkpointing.
	PartnerParams = checkpoint.PartnerParams
	// IncrementalParams configure incremental writes.
	IncrementalParams = checkpoint.IncrementalParams
	// TwoLevelParams configure multilevel (SCR/FTI-class) checkpointing.
	TwoLevelParams = checkpoint.TwoLevelParams
	// ReplicationParams configure replication-based resilience.
	ReplicationParams = checkpoint.ReplicationParams
	// StorageParams configure the shared-storage model: aggregate parallel
	// filesystem bandwidth, a per-writer cap, and per-node burst-buffer
	// bandwidth. The zero value means no storage modelling (legacy
	// fixed-duration writes).
	StorageParams = storage.Params
	// Store arbitrates concurrent checkpoint writers with fair-share
	// semantics; protocols reference one through CheckpointParams.Store.
	Store = storage.Store
	// StorageTier selects which tier of a Store a write drains through.
	StorageTier = storage.Tier
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
	// RecoveryKind selects the failure-recovery discipline.
	RecoveryKind = failure.RecoveryKind
	// FailureEvent records one injected failure.
	FailureEvent = failure.Event
)

// TraceCPU is the trace-record type for completed CPU occupancies — the
// only type the timeline/Gantt consumers use (see sim.TraceType for the
// full set).
const TraceCPU = sim.TraceCPU

// Recovery disciplines for FailureConfig.Kind.
const (
	// RecoverGlobal rolls the whole machine back to the last global line.
	RecoverGlobal = failure.RollbackGlobal
	// RecoverLocal replays only the failed rank from message logs.
	RecoverLocal = failure.ReplayLocal
	// RecoverCluster rolls back the failed rank's cluster (hierarchical).
	RecoverCluster = failure.RollbackCluster
	// RecoverTwoLevel dispatches on failure severity between the local and
	// global levels of a two-level protocol.
	RecoverTwoLevel = failure.RecoverTwoLevel
	// RecoverTakeover absorbs failures by replica takeover (replication
	// protocol): detection plus promotion, never lost work.
	RecoverTakeover = failure.TakeoverReplica
)

// Storage tiers for StorageTier fields.
const (
	// TierGlobal is the shared parallel filesystem (the default tier).
	TierGlobal = storage.TierGlobal
	// TierNode is the node-local burst buffer, shared by co-located ranks.
	TierNode = storage.TierNode
)

// DefaultNetwork returns the InfiniBand-class LogGOPS parameters used
// throughout the experiments.
func DefaultNetwork() NetworkParams { return network.DefaultParams() }

// NewStore builds a shared-storage arbiter from the given parameters. A
// store serves exactly one simulation: build a fresh one per Engine.
func NewStore(p StorageParams) (*Store, error) { return storage.New(p) }

// UnlimitedStore returns a store with no bandwidth constraints — writes
// through it are byte-identical to the legacy fixed-duration path.
func UnlimitedStore() *Store { return storage.Unlimited() }

// NewCoordinated builds the globally coordinated protocol.
func NewCoordinated(p CheckpointParams) (Protocol, error) {
	return checkpoint.NewCoordinated(p)
}

// NewUncoordinated builds the uncoordinated protocol with the named offset
// policy ("aligned", "staggered", or "random") and logging tax.
func NewUncoordinated(p CheckpointParams, offset string, log LogParams) (Protocol, error) {
	pol, err := checkpoint.ParseOffsetPolicy(offset)
	if err != nil {
		return nil, err
	}
	return checkpoint.NewUncoordinated(p, pol, log)
}

// NewHierarchical builds the hybrid protocol with the given cluster size.
func NewHierarchical(p CheckpointParams, clusterSize int, log LogParams) (Protocol, error) {
	return checkpoint.NewHierarchical(p, clusterSize, log)
}

// NewNonBlockingCoordinated builds the asynchronous (copy-on-write)
// coordinated protocol.
func NewNonBlockingCoordinated(p NonBlockingParams) (Protocol, error) {
	return checkpoint.NewNonBlockingCoordinated(p)
}

// NewPartnerProtocol builds diskless partner (buddy) checkpointing.
func NewPartnerProtocol(p PartnerParams) (Protocol, error) {
	return checkpoint.NewPartner(p)
}

// NewTwoLevelProtocol builds multilevel (SCR/FTI-class) checkpointing.
func NewTwoLevelProtocol(p TwoLevelParams) (Protocol, error) {
	return checkpoint.NewTwoLevel(p)
}

// NewReplicationProtocol builds replication-based resilience. The program
// must span (degree+1)× the application's ranks (see goal.Widen); Run does
// this automatically for ProtoReplication.
func NewReplicationProtocol(p ReplicationParams) (Protocol, error) {
	return checkpoint.NewReplication(p)
}

// NewCICProtocol builds index-based communication-induced checkpointing
// with the given index-lag threshold and offset policy ("aligned",
// "staggered", or "random").
func NewCICProtocol(p CheckpointParams, lag int, offset string) (Protocol, error) {
	pol, err := checkpoint.ParseOffsetPolicy(offset)
	if err != nil {
		return nil, err
	}
	return checkpoint.NewCIC(p, lag, pol)
}

// NewUncoordinatedIncremental builds the uncoordinated protocol with
// incremental writes.
func NewUncoordinatedIncremental(p CheckpointParams, offset string, log LogParams,
	inc IncrementalParams) (Protocol, error) {
	pol, err := checkpoint.ParseOffsetPolicy(offset)
	if err != nil {
		return nil, err
	}
	return checkpoint.NewUncoordinatedIncremental(p, pol, log, inc)
}

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
	// ProtocolConfig describes the checkpointing strategy of a Run.
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
	// primaries (Run widens the program automatically). Pair with
	// RecoverTakeover failures.
	ProtoReplication = checkpoint.KindReplication
	// ProtoCIC runs index-based communication-induced checkpointing.
	ProtoCIC = checkpoint.KindCIC
)

// Workloads returns the names accepted by RunConfig.Workload.
func Workloads() []string { return workload.Names() }

// DescribeWorkload returns a one-line description of a workload name.
func DescribeWorkload(name string) string { return workload.Describe(name) }

// Run executes one study point end to end: build the workload, attach the
// protocol and injectors, simulate, and return the results.
func Run(cfg RunConfig) (*RunResult, error) { return run.Run(cfg) }
