package checkpoint

import (
	"fmt"

	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
)

// ReplicationParams configures replication-based resilience.
type ReplicationParams struct {
	// Degree is the number of replica ranks shadowing each application rank
	// (default 1). A machine of N ranks runs N/(Degree+1) application
	// ranks; the rest are replicas.
	Degree int
	// HeartbeatPeriod is the interval between primary→replica heartbeat
	// control messages (default 1ms). A replica declares its primary dead
	// when the heartbeat after the next scheduled one misses its slot, so
	// the period bounds failure-detection latency.
	HeartbeatPeriod simtime.Duration
	// HeartbeatBytes is the heartbeat message size (default 64).
	HeartbeatBytes int64
	// TakeoverCost is the promotion cost a replica pays after detection —
	// rewiring communicators and resuming from its live mirrored state
	// (default 500µs).
	TakeoverCost simtime.Duration
}

// Validate checks the parameter set.
func (p ReplicationParams) Validate() error {
	if p.Degree < 0 {
		return fmt.Errorf("checkpoint: negative replica degree %d", p.Degree)
	}
	if p.HeartbeatPeriod < 0 {
		return fmt.Errorf("checkpoint: negative heartbeat period %v", p.HeartbeatPeriod)
	}
	if p.HeartbeatBytes < 0 {
		return fmt.Errorf("checkpoint: negative heartbeat size %d", p.HeartbeatBytes)
	}
	if p.TakeoverCost < 0 {
		return fmt.Errorf("checkpoint: negative takeover cost %v", p.TakeoverCost)
	}
	return nil
}

func (p ReplicationParams) degree() int {
	if p.Degree == 0 {
		return 1
	}
	return p.Degree
}

func (p ReplicationParams) period() simtime.Duration {
	if p.HeartbeatPeriod == 0 {
		return simtime.Millisecond
	}
	return p.HeartbeatPeriod
}

func (p ReplicationParams) hbBytes() int64 {
	if p.HeartbeatBytes == 0 {
		return 64
	}
	return p.HeartbeatBytes
}

func (p ReplicationParams) takeover() simtime.Duration {
	if p.TakeoverCost == 0 {
		return 500 * simtime.Microsecond
	}
	return p.TakeoverCost
}

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
	p        ReplicationParams
	stats    Stats
	ctx      *sim.Context
	app      int            // application (primary) ranks; replicas are >= app
	nextBeat []simtime.Time // per-primary next scheduled heartbeat fire
}

// NewReplication builds the protocol.
func NewReplication(p ReplicationParams) (*Replication, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Replication{p: p}, nil
}

// Init implements sim.Agent: lay out the primary/replica pairing and start
// the staggered heartbeat timers.
func (rp *Replication) Init(ctx *sim.Context) {
	rp.ctx = ctx
	n := ctx.NumRanks()
	g := rp.p.degree() + 1
	if n%g != 0 {
		panic(fmt.Sprintf("checkpoint: replication degree %d needs a machine divisible by %d ranks, have %d (widen the program first)",
			rp.p.degree(), g, n))
	}
	rp.app = n / g
	rp.nextBeat = make([]simtime.Time, rp.app)
	period := rp.p.period()
	for r := 0; r < rp.app; r++ {
		off := simtime.Duration(int64(period) * int64(r) / int64(rp.app))
		first := simtime.Time(0).Add(period + off)
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
	for k := 1; k <= rp.p.degree(); k++ {
		rp.stats.Heartbeats++
		rp.ctx.SendControl(rank, rank+k*rp.app, rp.p.hbBytes(), sim.Call{})
	}
	next := rp.ctx.Now().Add(rp.p.period())
	rp.nextBeat[rank] = next
	rp.ctx.AtOwned(next, rp, 0, int64(rank))
}

// SnapshotState implements sim.Resumable. The primary/replica layout is a
// pure function of the configuration, so it is recomputed, not walked.
func (rp *Replication) SnapshotState(ctx *sim.Context, c *snapshot.Codec) {
	rp.ctx = ctx
	n := ctx.NumRanks()
	g := rp.p.degree() + 1
	if n%g != 0 {
		c.Failf("replication degree %d with %d ranks", rp.p.degree(), n)
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
	for k := 1; k <= rp.p.degree(); k++ {
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
	detect := rp.nextBeat[victim].Add(rp.p.period()).Sub(now)
	if detect < 0 {
		detect = rp.p.period()
	}
	rp.stats.Takeovers++
	rp.ctx.Mark(victim, "rep-takeover", int64(victim))
	return victim, detect + rp.p.takeover(), true
}

// Degree returns the configured replica degree (see validate.ReplicaMirror).
func (rp *Replication) Degree() int { return rp.p.degree() }

// AppRanks returns the number of application (primary) ranks; valid after
// Init.
func (rp *Replication) AppRanks() int { return rp.app }

// Name implements Protocol.
func (rp *Replication) Name() string { return "replication" }

// Stats implements Protocol.
func (rp *Replication) Stats() Stats { return rp.stats }

// LastCheckpoint implements Protocol: replication keeps no checkpoints —
// the replica's live state is always current.
func (rp *Replication) LastCheckpoint(int) simtime.Time { return 0 }

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
