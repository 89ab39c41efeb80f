package checkpoint

import (
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
)

// Coordinated is the classic globally-coordinated, blocking checkpointing
// protocol: every Interval, a coordinator quiesces all ranks over a
// binomial tree, all ranks write their checkpoints, and the round completes
// when every write has been acknowledged. The set of checkpoints from one
// round forms a consistent global recovery line, so no message logging is
// needed — but every round costs two tree sweeps of latency plus the
// synchronization idling it forces on early-arriving ranks.
type Coordinated struct {
	p     Params
	stats Stats
	coord *coordinator
	// lastLine is the completion time of the most recent full round — the
	// global recovery line.
	lastLine simtime.Time
	// lineStart is the start time of that round: on rollback, work since
	// lineStart is lost (the conservative bound used by recovery).
	lineStart simtime.Time
	rounds    []RoundRecord
}

// RoundRecord describes one completed coordinated round.
type RoundRecord struct {
	Start, End simtime.Time
}

// NewCoordinated builds the protocol. The first round starts one Interval
// into the run.
func NewCoordinated(p Params) (*Coordinated, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Coordinated{p: p}, nil
}

// Init implements sim.Agent.
func (c *Coordinated) Init(ctx *sim.Context) {
	c.setup(ctx)
	c.coord.schedule(simtime.Time(0).Add(c.p.Interval))
}

// setup wires the coordinator without scheduling its first round, so that
// a restoring SnapshotState can rebuild it while the pending tick is
// restored from the snapshotted event queue.
func (c *Coordinated) setup(ctx *sim.Context) {
	members := make([]int, ctx.NumRanks())
	for i := range members {
		members[i] = i
	}
	c.coord = newCoordinator(ctx, c.p, c, 0, members, &c.stats,
		func(tick, end simtime.Time) {
			c.lastLine = end
			c.lineStart = tick
			c.rounds = append(c.rounds, RoundRecord{Start: tick, End: end})
		})
}

// OnTimer implements sim.TimerOwner: all pending work is the coordinator's.
func (c *Coordinated) OnTimer(kind uint8, arg int64) {
	_, i := coordArg(arg)
	c.coord.onTimer(kind, i)
}

// SnapshotState implements sim.Resumable.
func (c *Coordinated) SnapshotState(ctx *sim.Context, sc *snapshot.Codec) {
	if sc.Decoding() {
		c.setup(ctx)
	}
	codeStats(sc, &c.stats)
	snapshot.Int(sc, &c.lastLine)
	snapshot.Int(sc, &c.lineStart)
	codeRounds(sc, &c.rounds)
	c.coord.snapshotState(sc)
	codeStore(ctx, sc, c.p.Store)
}

// Name implements Protocol.
func (c *Coordinated) Name() string { return "coordinated" }

// Stats implements Protocol.
func (c *Coordinated) Stats() Stats { return c.stats }

// LastCheckpoint implements Protocol: every rank is covered by the last
// completed global line.
func (c *Coordinated) LastCheckpoint(int) simtime.Time { return c.lastLine }

// ProgressAtCheckpoint implements Protocol: the rank's application progress
// saved by the last completed global line.
func (c *Coordinated) ProgressAtCheckpoint(rank int) simtime.Duration {
	if c.coord == nil {
		return 0
	}
	return c.coord.committedBusy[rank]
}

// LastLineStart returns the start time of the last completed round; on a
// rollback, all work after this instant is lost.
func (c *Coordinated) LastLineStart() simtime.Time { return c.lineStart }

// Rounds returns the completed round records.
func (c *Coordinated) Rounds() []RoundRecord { return c.rounds }

var (
	_ Protocol      = (*Coordinated)(nil)
	_ sim.Resumable = (*Coordinated)(nil)
)
