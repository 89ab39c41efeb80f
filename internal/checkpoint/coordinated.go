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
}

// NewCoordinated builds the protocol. The first round starts one Interval
// into the run. It is Config.New for KindCoordinated, kept exported for
// callers that hold a Params rather than a Config.
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
	c.coord = newCoordinator(ctx, c.p, c, 0, 0, ctx.NumRanks(), &c.stats)
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
	c.coord.snapshotState(sc)
	codeStore(ctx, sc, c.p.Store)
}

// Name implements Protocol.
func (c *Coordinated) Name() string { return "coordinated" }

// Stats implements Protocol.
func (c *Coordinated) Stats() Stats { return c.stats }

// ProgressAtCheckpoint implements Protocol: the rank's application progress
// saved by the last completed global line.
func (c *Coordinated) ProgressAtCheckpoint(rank int) simtime.Duration {
	if c.coord == nil {
		return 0
	}
	return c.coord.committedBusy[rank]
}

var (
	_ Protocol      = (*Coordinated)(nil)
	_ sim.Resumable = (*Coordinated)(nil)
)
