package checkpoint

import (
	"fmt"

	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
	"checkpointsim/internal/storage"
)

// TwoLevelParams configure the multilevel (SCR/FTI-class) protocol.
type TwoLevelParams struct {
	// LocalInterval and LocalWrite configure the frequent, cheap level:
	// node-local (SSD/partner-memory) checkpoints. Timers are aligned
	// across ranks so the local checkpoints form an (approximately)
	// consistent set, as SCR's cached checkpoints do — and alignment is
	// also the cheapest offset policy for coupled codes (experiment E9).
	LocalInterval simtime.Duration
	LocalWrite    simtime.Duration
	// GlobalInterval and GlobalWrite configure the rare, expensive level:
	// coordinated parallel-filesystem checkpoints (full two-phase rounds).
	GlobalInterval simtime.Duration
	GlobalWrite    simtime.Duration
	// CtlBytes sizes the coordination control messages (default 64).
	CtlBytes int64
	// Store, when non-nil, routes both levels through the shared-storage
	// model: local writes drain through the node-local burst buffer
	// (TierNode), global rounds through the parallel filesystem
	// (TierGlobal). Nil — or an unconstrained tier — keeps the legacy fixed
	// durations for that level. It is runtime state, not configuration, so
	// cache keys leave it out: key the storage parameters the store was
	// built from instead.
	Store *storage.Store `cache:"-"`
	// LocalBytes and GlobalBytes size the per-level images; zero derives
	// each from the level's write duration at the tier's lone-writer rate.
	LocalBytes  int64
	GlobalBytes int64
}

// Validate checks the parameter set.
func (p TwoLevelParams) Validate() error {
	if p.LocalInterval <= 0 || p.GlobalInterval <= 0 {
		return fmt.Errorf("checkpoint: two-level intervals must be positive")
	}
	if p.LocalWrite < 0 || p.GlobalWrite < 0 {
		return fmt.Errorf("checkpoint: negative write time")
	}
	if p.LocalInterval > p.GlobalInterval {
		return fmt.Errorf("checkpoint: local interval %v > global interval %v (levels inverted)",
			p.LocalInterval, p.GlobalInterval)
	}
	if p.CtlBytes < 0 {
		return fmt.Errorf("checkpoint: negative control size")
	}
	if p.LocalBytes < 0 || p.GlobalBytes < 0 {
		return fmt.Errorf("checkpoint: negative checkpoint size")
	}
	return nil
}

// TwoLevel is multilevel checkpointing in the SCR/FTI mold: each rank takes
// frequent, cheap local checkpoints on an aligned timer, while a
// coordinated round writes a rare, expensive global checkpoint to stable
// storage. Most failures (a process crash whose node survives, or whose
// partner copy is intact) recover from the local level; only severe
// failures fall through to the global line. The failure package's
// RecoverTwoLevel discipline draws the severity and asks this protocol for
// the matching recovery line.
type TwoLevel struct {
	p     TwoLevelParams
	stats Stats
	ctx   *sim.Context

	coord *coordinator // the global level

	// local level
	localFired  []simtime.Time // when each rank's in-flight local write fired
	localLast   []simtime.Time
	localBusyAt []simtime.Duration
	// global level (committed lines)
	globalLast   simtime.Time
	globalBusyAt []simtime.Duration
	localWrites  int64
	globalWrites int64
}

// NewTwoLevel builds the protocol.
func NewTwoLevel(p TwoLevelParams) (*TwoLevel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &TwoLevel{p: p}, nil
}

// Work kinds of the local level (arg = rank); kinds below coordKinds are
// the global level's coordinator.
const (
	tlTimerLocal   = coordKinds + iota // the rank's local checkpoint is due
	tlLocalWritten                     // the rank's local write completed
)

// Init implements sim.Agent.
func (tl *TwoLevel) Init(ctx *sim.Context) {
	tl.setup(ctx)
	n := ctx.NumRanks()
	// Local level: aligned independent timers (consistent-set semantics).
	for r := 0; r < n; r++ {
		ctx.AtOwned(simtime.Time(0).Add(tl.p.LocalInterval), tl, tlTimerLocal, int64(r))
	}
	tl.coord.schedule(simtime.Time(0).Add(tl.p.GlobalInterval))
}

// setup allocates the per-rank state and wires the global coordinator
// without scheduling anything, for both Init and a restoring SnapshotState.
func (tl *TwoLevel) setup(ctx *sim.Context) {
	tl.ctx = ctx
	n := ctx.NumRanks()
	tl.localFired = make([]simtime.Time, n)
	tl.localLast = make([]simtime.Time, n)
	tl.localBusyAt = make([]simtime.Duration, n)
	tl.globalBusyAt = make([]simtime.Duration, n)

	// Global level: a full coordinated round.
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	gp := Params{Interval: tl.p.GlobalInterval, Write: tl.p.GlobalWrite, CtlBytes: tl.p.CtlBytes,
		Store: tl.p.Store, Tier: storage.TierGlobal, Bytes: tl.p.GlobalBytes}
	tl.coord = newCoordinator(ctx, gp, tl, 0, members, &tl.stats,
		func(tick, end simtime.Time) {
			tl.globalLast = end
			copy(tl.globalBusyAt, tl.coord.committedBusy)
			tl.globalWrites += int64(n)
		})
}

// OnTimer implements sim.TimerOwner.
func (tl *TwoLevel) OnTimer(kind uint8, arg int64) {
	switch kind {
	case tlTimerLocal:
		rank := int(arg)
		tl.localFired[rank] = tl.ctx.Now()
		storeWrite(tl.ctx, tl.p.Store, storage.TierNode, rank, tl.p.LocalWrite, tl.p.LocalBytes,
			sim.Call{Owner: tl, Kind: tlLocalWritten, Arg: arg})
	case tlLocalWritten:
		rank, end := int(arg), tl.ctx.Now()
		tl.stats.Writes++
		tl.localWrites++
		tl.localLast[rank] = end
		tl.localBusyAt[rank] = tl.ctx.RankBusy(rank)
		next := simtime.Max(tl.localFired[rank].Add(tl.p.LocalInterval), end)
		tl.ctx.AtOwned(next, tl, tlTimerLocal, arg)
	default:
		_, i := coordArg(arg)
		tl.coord.onTimer(kind, i)
	}
}

// SnapshotState implements sim.Resumable.
func (tl *TwoLevel) SnapshotState(ctx *sim.Context, c *snapshot.Codec) {
	if c.Decoding() {
		tl.setup(ctx)
	}
	n := ctx.NumRanks()
	codeStats(c, &tl.stats)
	snapshot.Slice(c, &tl.localFired, n)
	snapshot.Slice(c, &tl.localLast, n)
	snapshot.Slice(c, &tl.localBusyAt, n)
	snapshot.Int(c, &tl.globalLast)
	snapshot.Slice(c, &tl.globalBusyAt, n)
	snapshot.Int(c, &tl.localWrites)
	snapshot.Int(c, &tl.globalWrites)
	tl.coord.snapshotState(c)
	codeStore(ctx, c, tl.p.Store)
}

// Name implements Protocol.
func (tl *TwoLevel) Name() string { return "twolevel" }

// Stats implements Protocol. Writes counts both levels; Rounds counts
// global rounds.
func (tl *TwoLevel) Stats() Stats { return tl.stats }

// LastCheckpoint implements Protocol: the freshest line covering the rank
// (normally the local one).
func (tl *TwoLevel) LastCheckpoint(rank int) simtime.Time {
	return simtime.Max(tl.localLast[rank], tl.globalLast)
}

// ProgressAtCheckpoint implements Protocol, matching LastCheckpoint.
func (tl *TwoLevel) ProgressAtCheckpoint(rank int) simtime.Duration {
	if tl.localLast[rank] >= tl.globalLast {
		return tl.localBusyAt[rank]
	}
	return tl.globalBusyAt[rank]
}

// GlobalCheckpoint returns the last committed global line time.
func (tl *TwoLevel) GlobalCheckpoint() simtime.Time { return tl.globalLast }

// GlobalProgressAt returns the rank's progress saved by the global line.
func (tl *TwoLevel) GlobalProgressAt(rank int) simtime.Duration {
	return tl.globalBusyAt[rank]
}

// LevelWrites returns the per-level write counts (local, global).
func (tl *TwoLevel) LevelWrites() (local, global int64) {
	return tl.localWrites, tl.globalWrites
}

var (
	_ Protocol      = (*TwoLevel)(nil)
	_ sim.Resumable = (*TwoLevel)(nil)
)
