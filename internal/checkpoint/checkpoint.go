// Package checkpoint implements the resilience protocols under study:
//
//   - Coordinated: a two-phase, binomial-tree coordination protocol. The
//     coordinator quiesces every rank (request/ack sweep down and up the
//     tree, gating application progress), then commits; every rank writes
//     its checkpoint and reports completion up the tree. All coordination
//     traffic consists of real control messages that traverse the simulated
//     network and contend with the application for CPUs — coordination cost
//     is measured, not assumed.
//
//   - Uncoordinated: every rank checkpoints on an independent local timer
//     (aligned, staggered, or randomly offset), with sender-based message
//     logging charged on every application send so that a failed rank can
//     be replayed without a global rollback.
//
//   - Hierarchical: ranks are partitioned into clusters; each cluster runs
//     the coordinated protocol internally while only inter-cluster messages
//     pay the logging tax — the standard hybrid design point between the
//     two extremes.
//
//   - Non-blocking: the coordinated protocol without the quiesce phase; the
//     shared coordinator's COMMIT sweep starts a background write on every
//     rank, which slows the application for the write's window instead of
//     stopping it, and the DONE sweep commits the round's line.
//
//   - Partner: diskless checkpointing on independent local timers; each
//     rank serializes its state and ships the image to a partner rank's
//     memory as a real network transfer.
//
//   - Two-level: frequent local checkpoints on aligned independent timers
//     plus rare coordinated rounds to the parallel filesystem (SCR/FTI).
//
//   - Replication: every application rank is shadowed by dedicated replica
//     ranks; sends are duplicated to the destination's replicas, primaries
//     heartbeat their replicas, and a failed primary is absorbed by replica
//     takeover instead of rollback — no checkpoints at all, at the price of
//     a 1/(degree+1) effective machine.
//
//   - CIC: index-based communication-induced checkpointing; basic local
//     checkpoints advance a Lamport-style index piggybacked on every
//     message, and a receiver lagging a message's index takes a forced
//     checkpoint before processing it (the Z-path-free rule).
//
// A Config describes any of them, and Config.New builds it: that is the one
// place a protocol kind becomes an agent. The independent per-rank timers
// (rankTimer) and the coordination round over a binomial tree
// (coordinator) each exist once and are shared by the protocols that use
// them: one coordinator round serves Coordinated, NonBlockingCoordinated,
// each Hierarchical cluster and TwoLevel's global level. A protocol keeps
// only the state its rounds and its recovery read — per rank, the progress
// its last line saved, and when that line was taken — and snapshots all of
// it.
//
// All protocols implement Protocol: a sim.Agent plus introspection used by
// the failure/recovery machinery and the experiment harness.
package checkpoint

import (
	"fmt"

	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/storage"
)

// Reason keys used for engine-side accounting (Result.SeizedTime etc.).
const (
	// ReasonWrite accounts checkpoint-write CPU seizures.
	ReasonWrite = "checkpoint"
	// ReasonCoord accounts application-gate time during coordination.
	ReasonCoord = "coordination"
	// ReasonIOWait accounts the contention-induced excess of a shared-storage
	// checkpoint write over its lone-writer duration (see internal/storage).
	ReasonIOWait = "io-wait"
)

// ControlBytes is the size of one control message: every request, ack,
// commit and done of a coordinated, non-blocking or two-level round, every
// primary→replica heartbeat of replication, and the message
// model.CoordinationDelay prices.
const ControlBytes = 64

// Params is the interval, write and store of a checkpointing protocol.
// Config.New derives it from a Config for every kind that writes
// checkpoints; NewCoordinated takes one directly.
type Params struct {
	// Interval is the target time between checkpoints (τ). For coordinated
	// protocols it is the time between round starts; rounds never overlap.
	Interval simtime.Duration
	// Write is the time to write one rank's checkpoint (δ), modeled as an
	// exclusive CPU seizure. With a bandwidth-limited Store this is the
	// *contention-free* write time: the image size defaults to the bytes a
	// lone writer moves in Write, and contention stretches the actual
	// occupancy beyond it.
	Write simtime.Duration
	// Bytes is the checkpoint image size written through the Store. Zero
	// derives it from Write at the target tier's lone-writer rate, so
	// uncontended store writes keep the legacy duration. Ignored without a
	// bandwidth-limited Store.
	Bytes int64
	// Store, when non-nil and bandwidth-limited on the global tier,
	// arbitrates checkpoint writes against every other concurrent writer
	// (fair-share); nil or unlimited reproduces the legacy fixed-duration
	// path byte-identically.
	Store *storage.Store
}

// Validate checks the parameter set.
func (p Params) Validate() error {
	if p.Interval <= 0 {
		return fmt.Errorf("checkpoint: non-positive interval %v", p.Interval)
	}
	if p.Write < 0 {
		return fmt.Errorf("checkpoint: negative write time %v", p.Write)
	}
	if p.Bytes < 0 {
		return fmt.Errorf("checkpoint: negative checkpoint size %d", p.Bytes)
	}
	return nil
}

// storeWrite performs one rank's checkpoint write, routed through the shared
// storage model when one is configured, and runs done when it completes.
// Without a store — or when the target tier is unconstrained — it issues the
// exact legacy fixed-duration seizure, so pre-storage results reproduce
// byte-identically. With a bandwidth-limited tier, the rank's CPU is seized
// open-endedly while the image drains under fair-share arbitration
// (storage.Store.Write): the lone-writer portion of the occupancy is
// accounted as ReasonWrite, the contention-induced excess as ReasonIOWait.
func storeWrite(ctx *sim.Context, st *storage.Store, tier storage.Tier, rank int,
	fixed simtime.Duration, bytes int64, done sim.Call) {
	if st == nil || !st.TierLimited(tier) {
		ctx.SeizeCPU(rank, fixed, ReasonWrite, done)
		return
	}
	if bytes <= 0 {
		bytes = st.BytesFor(tier, fixed)
	}
	st.Write(ctx, rank, tier, bytes, ReasonWrite, ReasonIOWait, done)
}

// write routes one checkpoint write through p's store to the global tier.
func (p Params) write(ctx *sim.Context, rank int, done sim.Call) {
	storeWrite(ctx, p.Store, storage.TierGlobal, rank, p.Write, p.Bytes, done)
}

// Stats accumulates protocol-level counters during a run.
type Stats struct {
	// Rounds counts completed coordinated rounds (coordinated and
	// hierarchical protocols; zero for uncoordinated).
	Rounds int64
	// Writes counts individual checkpoint writes across all ranks.
	Writes int64
	// CoordDelay sums, over rounds, the time from round start to commit —
	// the pure coordination latency before any byte is written.
	CoordDelay simtime.Duration
	// RoundSpan sums, over rounds, the time from round start until the
	// last rank finished writing and reported done.
	RoundSpan simtime.Duration
	// LoggedMessages counts application sends taxed by message logging.
	LoggedMessages int64
	// LoggedBytes sums the payload bytes logged.
	LoggedBytes int64
	// LogPenalty sums the CPU time charged for logging.
	LogPenalty simtime.Duration
	// Forced counts forced (communication-induced) checkpoint writes, a
	// subset of Writes (CIC protocol).
	Forced int64
	// MirroredMessages counts application sends duplicated to replica
	// ranks (replication protocol); MirroredBytes sums their payloads.
	MirroredMessages int64
	MirroredBytes    int64
	// Heartbeats counts heartbeat control messages sent to replicas.
	Heartbeats int64
	// Takeovers counts primary failures absorbed by replica promotion
	// instead of rollback.
	Takeovers int64
}

// Protocol is the interface all checkpointing strategies implement.
type Protocol interface {
	sim.Agent
	// Name identifies the protocol for reports ("coordinated", ...).
	Name() string
	// Stats returns the accumulated protocol counters.
	Stats() Stats
	// ProgressAtCheckpoint returns the rank's application progress
	// (cumulative busy time, see sim.Context.RankBusy) captured when its
	// last covering checkpoint completed. Recovery rework for a failure of
	// that rank is RankBusy(rank) − ProgressAtCheckpoint(rank): only real
	// application work is re-executed, never checkpoint or recovery time.
	ProgressAtCheckpoint(rank int) simtime.Duration
}

// None is the no-checkpointing baseline protocol.
type None struct{}

// Init implements sim.Agent.
func (None) Init(*sim.Context) {}

// Name implements Protocol.
func (None) Name() string { return "none" }

// Stats implements Protocol.
func (None) Stats() Stats { return Stats{} }

// ProgressAtCheckpoint implements Protocol; with no checkpoints, all
// progress is lost on failure.
func (None) ProgressAtCheckpoint(int) simtime.Duration { return 0 }

var _ Protocol = None{}
