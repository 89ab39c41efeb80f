package checkpoint

import (
	"cmp"
	"fmt"

	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
)

// Replication is replication-based resilience (the TeaMPI design point):
// application rank r < A is shadowed by Degree dedicated replica ranks at
// r + k·A, where A = NumRanks/(Degree+1). There are no checkpoints and no
// rollback. Every application send between primaries is duplicated to the
// destination's replicas as a real control message — the duplication
// overhead contends for the sender's CPU and NIC and the replicas' CPUs on
// the LogGOPS network. Primaries heartbeat their replicas; when a primary
// fails, a replica takes over after heartbeat detection plus a promotion
// cost, and the application loses no work. The price is the 1/(Degree+1)
// effective machine: callers embed the application in a machine
// (Degree+1)× its size (goal.Widen), so equal-work comparisons against
// checkpointing protocols are honest about the spare resources.
type Replication struct {
	degree int // replica ranks per application rank
	// period is the interval between primary→replica heartbeats, control
	// messages the size of a coordination round's. A replica declares its
	// primary dead when the heartbeat after the next scheduled one misses
	// its slot, so the period bounds failure-detection latency.
	period simtime.Duration
	// takeover is the promotion cost a replica pays after detection —
	// rewiring communicators and resuming from its live mirrored state.
	takeover simtime.Duration
	stats    Stats
	ctx      *sim.Context
	app      int            // application (primary) ranks; replicas are >= app
	nextBeat []simtime.Time // per-primary next scheduled heartbeat fire
}

// MarkRepTakeover is the phase marker of a replica taking over its failed
// primary; detail is the primary's rank.
const MarkRepTakeover = "rep-takeover"

// newReplication builds KindReplication, resolving the defaults of the
// heartbeat period (1ms) and takeover cost (500µs).
func newReplication(c Config) (*Replication, error) {
	degree, err := c.Replicas()
	if err != nil {
		return nil, err
	}
	if c.HeartbeatPeriod < 0 {
		return nil, fmt.Errorf("checkpoint: negative heartbeat period %v", c.HeartbeatPeriod)
	}
	if c.TakeoverCost < 0 {
		return nil, fmt.Errorf("checkpoint: negative takeover cost %v", c.TakeoverCost)
	}
	return &Replication{degree: degree, period: cmp.Or(c.HeartbeatPeriod, simtime.Millisecond),
		takeover: cmp.Or(c.TakeoverCost, 500*simtime.Microsecond)}, nil
}

// CheckRanks implements sim.RankChecker: the machine must hold degree+1
// copies of every application rank, as run.Config widens it.
func (rp *Replication) CheckRanks(n int) error {
	if g := rp.degree + 1; n%g != 0 {
		return fmt.Errorf("checkpoint: replication degree %d needs a machine divisible by %d ranks, have %d (widen the program first)",
			rp.degree, g, n)
	}
	return nil
}

// Init implements sim.Agent: lay out the primary/replica pairing and start
// the staggered heartbeat timers.
func (rp *Replication) Init(ctx *sim.Context) {
	rp.ctx = ctx
	rp.app = ctx.NumRanks() / (rp.degree + 1)
	rp.nextBeat = make([]simtime.Time, rp.app)
	for r := 0; r < rp.app; r++ {
		off := simtime.Duration(int64(rp.period) * int64(r) / int64(rp.app))
		first := simtime.Time(0).Add(rp.period + off)
		rp.nextBeat[r] = first
		ctx.AtOwned(first, rp, 0, int64(r))
	}
}

// OnTimer implements sim.TimerOwner: arg is the primary whose heartbeat
// timer fired.
func (rp *Replication) OnTimer(_ uint8, arg int64) { rp.beat(int(arg)) }

// beat sends one heartbeat from a primary to each of its replicas and
// re-arms the timer.
func (rp *Replication) beat(rank int) {
	if rp.ctx.OpsRemaining() == 0 {
		return
	}
	for k := 1; k <= rp.degree; k++ {
		rp.stats.Heartbeats++
		rp.ctx.SendControl(rank, rank+k*rp.app, ControlBytes, sim.Call{})
	}
	next := rp.ctx.Now().Add(rp.period)
	rp.nextBeat[rank] = next
	rp.ctx.AtOwned(next, rp, 0, int64(rank))
}

// SnapshotState implements sim.Resumable. The primary/replica layout is a
// pure function of the configuration, so it is recomputed, not walked.
func (rp *Replication) SnapshotState(ctx *sim.Context, c *snapshot.Codec) {
	rp.ctx = ctx
	n := ctx.NumRanks()
	g := rp.degree + 1
	if n%g != 0 {
		c.Failf("replication degree %d with %d ranks", rp.degree, n)
		return
	}
	rp.app = n / g
	codeStats(c, &rp.stats)
	snapshot.Slice(c, &rp.nextBeat, rp.app)
}

// SendPenalty implements sim.SendHook: every application send between
// primaries is duplicated to the destination's replicas as real control
// messages. The hook itself charges no extra CPU — the duplicates' costs
// (sender o per copy, NIC serialization, replica recv o) are paid by the
// control path they traverse.
func (rp *Replication) SendPenalty(src, dst int, bytes int64) simtime.Duration {
	if src >= rp.app || dst >= rp.app {
		return 0
	}
	for k := 1; k <= rp.degree; k++ {
		rp.stats.MirroredMessages++
		rp.stats.MirroredBytes += bytes
		rp.ctx.SendControl(src, dst+k*rp.app, bytes, sim.Call{})
	}
	return 0
}

// Takeover implements failure.ReplicaProtocol: absorb the failure of victim
// at time now. A failed primary stalls its logical rank for the heartbeat
// detection delay plus the promotion cost, then continues from the
// replica's live state — no work is lost. A failed spare replica does not
// stall the application at all (the pair resynchronizes in the background),
// and the repaired pair remains eligible for later failures.
func (rp *Replication) Takeover(victim int, now simtime.Time) (rank int, cost simtime.Duration, stalls bool) {
	if victim >= rp.app {
		return victim, 0, false
	}
	// The replica declares the primary dead when the heartbeat after the
	// next scheduled one misses its slot.
	detect := rp.nextBeat[victim].Add(rp.period).Sub(now)
	if detect < 0 {
		detect = rp.period
	}
	rp.stats.Takeovers++
	rp.ctx.Mark(victim, MarkRepTakeover, int64(victim))
	return victim, detect + rp.takeover, true
}

// Degree returns the configured replica degree, which the trace checker
// (internal/validate) multiplies the traced primary sends by.
func (rp *Replication) Degree() int { return rp.degree }

// AppRanks returns the number of application (primary) ranks; valid after
// Init.
func (rp *Replication) AppRanks() int { return rp.app }

// Name implements Protocol.
func (rp *Replication) Name() string { return "replication" }

// Stats implements Protocol.
func (rp *Replication) Stats() Stats { return rp.stats }

// ProgressAtCheckpoint implements Protocol: the replica mirrors all
// progress, so nothing is ever lost.
func (rp *Replication) ProgressAtCheckpoint(rank int) simtime.Duration {
	if rp.ctx == nil {
		return 0
	}
	return rp.ctx.RankBusy(rank)
}

var (
	_ Protocol      = (*Replication)(nil)
	_ sim.SendHook  = (*Replication)(nil)
	_ sim.Resumable = (*Replication)(nil)
)
