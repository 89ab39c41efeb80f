package checkpoint

import (
	"fmt"
	"math"

	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
)

// OffsetPolicy selects how uncoordinated per-rank checkpoint timers are
// offset relative to each other.
type OffsetPolicy uint8

const (
	// Aligned starts every rank's timer at the same phase — all ranks
	// checkpoint (nearly) simultaneously, like a coordinated protocol
	// without the coordination messages.
	Aligned OffsetPolicy = iota
	// Staggered spreads offsets evenly across the interval: rank r fires
	// at phase r/P·Interval. At most ~1/P of the machine checkpoints at a
	// time.
	Staggered
	// Random draws each rank's offset uniformly from [0, Interval).
	Random
)

// String returns the lowercase policy name.
func (o OffsetPolicy) String() string {
	switch o {
	case Aligned:
		return "aligned"
	case Staggered:
		return "staggered"
	case Random:
		return "random"
	}
	return fmt.Sprintf("offset(%d)", uint8(o))
}

// ParseOffsetPolicy parses a policy name.
func ParseOffsetPolicy(s string) (OffsetPolicy, error) {
	switch s {
	case "aligned":
		return Aligned, nil
	case "staggered":
		return Staggered, nil
	case "random":
		return Random, nil
	}
	return 0, fmt.Errorf("checkpoint: unknown offset policy %q", s)
}

// LogParams configures sender-based message logging.
type LogParams struct {
	// Alpha is the fixed CPU cost charged per logged message.
	Alpha simtime.Duration
	// BetaNsPerByte is the per-byte CPU cost (the memcpy into the payload
	// log), in nanoseconds per byte.
	BetaNsPerByte float64
}

// Validate checks the logging parameters.
func (l LogParams) Validate() error {
	if l.Alpha < 0 {
		return fmt.Errorf("checkpoint: negative logging alpha")
	}
	if l.BetaNsPerByte < 0 || math.IsNaN(l.BetaNsPerByte) {
		return fmt.Errorf("checkpoint: bad logging beta %v", l.BetaNsPerByte)
	}
	return nil
}

// penalty returns the CPU cost of logging one message.
func (l LogParams) penalty(bytes int64) simtime.Duration {
	return l.Alpha + simtime.Duration(math.Round(l.BetaNsPerByte*float64(bytes)))
}

// Uncoordinated is independent local checkpointing with sender-based
// message logging. Each rank seizes its own CPU for Write every Interval,
// phase-shifted according to the offset policy; no control messages are
// exchanged. Every application send is taxed with the logging penalty so
// that, on failure, the failed rank alone can roll back and be replayed
// from its partners' logs.
type Uncoordinated struct {
	p      Params
	policy OffsetPolicy
	log    LogParams
	// inc, when FullEvery > 1, switches to incremental writes (see
	// NewUncoordinatedIncremental).
	inc     IncrementalParams
	stats   Stats
	fired   []simtime.Time // when each rank's in-flight write fired
	last    []simtime.Time
	busyAt  []simtime.Duration
	nwrites []int64
	ctx     *sim.Context
}

// Work kinds; arg is the rank.
const (
	ucFire    uint8 = iota // the rank's checkpoint is due
	ucWritten              // the rank's write completed
)

// NewUncoordinated builds the protocol.
func NewUncoordinated(p Params, policy OffsetPolicy, log LogParams) (*Uncoordinated, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := log.Validate(); err != nil {
		return nil, err
	}
	if policy > Random {
		return nil, fmt.Errorf("checkpoint: bad offset policy %d", policy)
	}
	return &Uncoordinated{p: p, policy: policy, log: log}, nil
}

// Init implements sim.Agent.
func (u *Uncoordinated) Init(ctx *sim.Context) {
	u.ctx = ctx
	n := ctx.NumRanks()
	u.fired = make([]simtime.Time, n)
	u.last = make([]simtime.Time, n)
	u.busyAt = make([]simtime.Duration, n)
	u.nwrites = make([]int64, n)
	for r := 0; r < n; r++ {
		var off simtime.Duration
		switch u.policy {
		case Aligned:
			off = 0
		case Staggered:
			off = simtime.Duration(int64(u.p.Interval) * int64(r) / int64(n))
		case Random:
			off = simtime.Duration(ctx.Rand().Intn(int(u.p.Interval)))
		}
		ctx.AtOwned(simtime.Time(0).Add(u.p.Interval+off), u, ucFire, int64(r))
	}
}

// OnTimer implements sim.TimerOwner.
func (u *Uncoordinated) OnTimer(kind uint8, arg int64) {
	rank := int(arg)
	switch kind {
	case ucFire:
		u.fired[rank] = u.ctx.Now()
		u.nwrites[rank]++
		n := u.nwrites[rank]
		storeWrite(u.ctx, u.p.Store, u.p.Tier, rank, u.writeDuration(n), u.writeBytes(n),
			sim.Call{Owner: u, Kind: ucWritten, Arg: arg})
	case ucWritten:
		end := u.ctx.Now()
		u.stats.Writes++
		u.last[rank] = end
		u.busyAt[rank] = u.ctx.RankBusy(rank)
		next := simtime.Max(u.fired[rank].Add(u.p.Interval), end)
		u.ctx.AtOwned(next, u, ucFire, arg)
	}
}

// SnapshotState implements sim.Resumable. The pending per-rank timers and
// writes live in the engine, so restoring reschedules nothing.
func (u *Uncoordinated) SnapshotState(ctx *sim.Context, c *snapshot.Codec) {
	u.ctx = ctx
	n := ctx.NumRanks()
	codeStats(c, &u.stats)
	snapshot.Slice(c, &u.fired, n)
	snapshot.Slice(c, &u.last, n)
	snapshot.Slice(c, &u.busyAt, n)
	snapshot.Slice(c, &u.nwrites, n)
	codeStore(ctx, c, u.p.Store)
}

// SendPenalty implements sim.SendHook: the sender-based logging tax.
func (u *Uncoordinated) SendPenalty(src, dst int, bytes int64) simtime.Duration {
	d := u.log.penalty(bytes)
	u.stats.LoggedMessages++
	u.stats.LoggedBytes += bytes
	u.stats.LogPenalty += d
	return d
}

// LogConfig returns the logging parameter set (see validate.TaxedLogger).
func (u *Uncoordinated) LogConfig() LogParams { return u.log }

// Taxed reports whether a src→dst application send pays the logging tax:
// under uncoordinated checkpointing, every send does.
func (u *Uncoordinated) Taxed(src, dst int) bool { return true }

// Name implements Protocol.
func (u *Uncoordinated) Name() string {
	name := "uncoordinated-" + u.policy.String()
	if u.inc.FullEvery > 1 {
		name += "-incremental"
	}
	return name
}

// Stats implements Protocol.
func (u *Uncoordinated) Stats() Stats { return u.stats }

// LastCheckpoint implements Protocol: each rank recovers from its own most
// recent local checkpoint (message logs cover the rest).
func (u *Uncoordinated) LastCheckpoint(rank int) simtime.Time { return u.last[rank] }

// ProgressAtCheckpoint implements Protocol: the progress saved by the
// rank's last local checkpoint.
func (u *Uncoordinated) ProgressAtCheckpoint(rank int) simtime.Duration {
	return u.busyAt[rank]
}

var (
	_ Protocol      = (*Uncoordinated)(nil)
	_ sim.SendHook  = (*Uncoordinated)(nil)
	_ sim.Resumable = (*Uncoordinated)(nil)
)
