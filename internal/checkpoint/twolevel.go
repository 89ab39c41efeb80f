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
	return nil
}

// TwoLevel is multilevel checkpointing in the SCR/FTI mold: each rank takes
// frequent, cheap local checkpoints on an aligned timer, while a
// coordinated round writes a rare, expensive global checkpoint to stable
// storage. Most failures (a process crash whose node survives, or whose
// partner copy is intact) recover from the local level; only severe
// failures fall through to the global line. The failure package's level
// dispatch draws the severity and asks this protocol for the matching
// recovery line.
//
// With a store, both levels write through the shared-storage model: local
// writes drain through the node-local burst buffer (TierNode), global
// rounds through the parallel filesystem (TierGlobal). An unconstrained
// tier keeps the legacy fixed durations for that level.
type TwoLevel struct {
	p     TwoLevelParams
	st    *storage.Store
	stats Stats
	ctx   *sim.Context

	coord       *coordinator // the global level
	local       rankTimer    // the local level, on aligned timers
	localWrites int64
}

// newTwoLevel builds KindTwoLevel from c.TwoLevel.
func newTwoLevel(c Config, st *storage.Store) (*TwoLevel, error) {
	if err := c.TwoLevel.Validate(); err != nil {
		return nil, err
	}
	tl := &TwoLevel{p: c.TwoLevel, st: st}
	tl.local = rankTimer{interval: tl.p.LocalInterval, offset: "aligned", owner: tl, due: tlTimerLocal}
	return tl, nil
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
	tl.local.start(ctx)
	tl.coord.schedule(simtime.Time(0).Add(tl.p.GlobalInterval))
}

// setup allocates the per-rank state and wires the global coordinator
// without scheduling anything, for both Init and a restoring SnapshotState.
func (tl *TwoLevel) setup(ctx *sim.Context) {
	tl.ctx = ctx
	// Global level: a full coordinated round.
	gp := Params{Interval: tl.p.GlobalInterval, Write: tl.p.GlobalWrite, Store: tl.st}
	tl.coord = newCoordinator(ctx, gp, tl, 0, 0, ctx.NumRanks(), &tl.stats)
}

// OnTimer implements sim.TimerOwner.
func (tl *TwoLevel) OnTimer(kind uint8, arg int64) {
	switch kind {
	case tlTimerLocal:
		rank := int(arg)
		tl.local.fire(tl.ctx, rank)
		storeWrite(tl.ctx, tl.st, storage.TierNode, rank, tl.p.LocalWrite, 0,
			sim.Call{Owner: tl, Kind: tlLocalWritten, Arg: arg})
	case tlLocalWritten:
		rank := int(arg)
		tl.stats.Writes++
		tl.localWrites++
		tl.local.commit(tl.ctx, rank, tl.ctx.RankBusy(rank))
		tl.local.rearm(tl.ctx, rank)
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
	codeStats(c, &tl.stats)
	tl.local.snapshotState(c, ctx.NumRanks())
	snapshot.Int(c, &tl.localWrites)
	tl.coord.snapshotState(c)
	codeStore(ctx, c, tl.st)
}

// Name implements Protocol.
func (tl *TwoLevel) Name() string { return "twolevel" }

// Stats implements Protocol. Writes counts both levels; Rounds counts
// global rounds.
func (tl *TwoLevel) Stats() Stats { return tl.stats }

// ProgressAtCheckpoint implements Protocol: the progress saved by the
// freshest line covering the rank (normally the local one).
func (tl *TwoLevel) ProgressAtCheckpoint(rank int) simtime.Duration {
	if tl.local.last[rank] >= tl.coord.lineAt {
		return tl.local.busyAt[rank]
	}
	return tl.GlobalProgressAt(rank)
}

// GlobalProgressAt returns the rank's progress saved by the global line.
func (tl *TwoLevel) GlobalProgressAt(rank int) simtime.Duration {
	return tl.coord.committedBusy[rank]
}

// LevelWrites returns the per-level write counts (local, global); the
// global count covers completed rounds only.
func (tl *TwoLevel) LevelWrites() (local, global int64) {
	return tl.localWrites, tl.stats.Rounds * int64(tl.coord.n)
}

var (
	_ Protocol      = (*TwoLevel)(nil)
	_ sim.Resumable = (*TwoLevel)(nil)
)
