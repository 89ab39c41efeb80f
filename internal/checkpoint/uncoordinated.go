package checkpoint

import (
	"fmt"
	"math"

	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
	"checkpointsim/internal/storage"
)

// rankTimer is the independent per-rank checkpoint timer of the protocols
// without coordination — Uncoordinated, Partner, CIC's basic checkpoints
// and TwoLevel's local level — with each rank's local recovery line. Rank
// r's first checkpoint is due one interval plus its offset into the run;
// each later one is due an interval after the previous one fired, or when
// that one commits if it commits later, so a rank never has two
// checkpoints in flight.
type rankTimer struct {
	interval simtime.Duration
	// offset is the timer policy. "aligned" starts every rank at the same
	// phase, so all ranks checkpoint (nearly) together, like a coordinated
	// protocol without the coordination messages. "staggered" fires rank r
	// at phase r/P of the interval, so about 1/P of the machine
	// checkpoints at a time. "random" draws each rank's phase uniformly
	// from [0, interval).
	offset string
	owner  sim.TimerOwner
	due    uint8              // owner's work kind for "rank arg's checkpoint is due"
	fired  []simtime.Time     // when each rank's checkpoint in flight fired
	last   []simtime.Time     // when each rank's last checkpoint committed
	busyAt []simtime.Duration // each rank's progress that checkpoint saved
}

// start allocates the per-rank state and arms every rank's first
// checkpoint.
func (t *rankTimer) start(ctx *sim.Context) {
	n := ctx.NumRanks()
	t.fired = make([]simtime.Time, n)
	t.last = make([]simtime.Time, n)
	t.busyAt = make([]simtime.Duration, n)
	for r := 0; r < n; r++ {
		var off simtime.Duration
		switch t.offset {
		case "staggered":
			off = simtime.Duration(int64(t.interval) * int64(r) / int64(n))
		case "random":
			off = simtime.Duration(ctx.Rand().Intn(int(t.interval)))
		}
		ctx.AtOwned(simtime.Time(0).Add(t.interval+off), t.owner, t.due, int64(r))
	}
}

// fire records that rank's checkpoint, due now, has begun.
func (t *rankTimer) fire(ctx *sim.Context, rank int) { t.fired[rank] = ctx.Now() }

// commit makes rank's checkpoint, which saved progress busy, its recovery
// line as of now.
func (t *rankTimer) commit(ctx *sim.Context, rank int, busy simtime.Duration) {
	t.last[rank] = ctx.Now()
	t.busyAt[rank] = busy
}

// rearm arms rank's next checkpoint once the last one fired has committed.
func (t *rankTimer) rearm(ctx *sim.Context, rank int) {
	ctx.AtOwned(simtime.Max(t.fired[rank].Add(t.interval), ctx.Now()), t.owner, t.due, int64(rank))
}

// snapshotState walks the n ranks' fire times and recovery lines.
func (t *rankTimer) snapshotState(c *snapshot.Codec, n int) {
	snapshot.Slice(c, &t.fired, n)
	snapshot.Slice(c, &t.last, n)
	snapshot.Slice(c, &t.busyAt, n)
}

// ProgressAtCheckpoint implements Protocol: the progress saved by the
// rank's last local checkpoint.
func (t *rankTimer) ProgressAtCheckpoint(rank int) simtime.Duration { return t.busyAt[rank] }

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
// from its partners' logs. Each rank recovers from its own most recent
// local checkpoint; message logs cover the rest.
type Uncoordinated struct {
	rankTimer
	p   Params
	log LogParams
	// inc, when FullEvery > 1, switches to incremental writes (see
	// writeDuration).
	inc     IncrementalParams
	stats   Stats
	nwrites []int64
	ctx     *sim.Context
}

// Work kinds; arg is the rank.
const (
	ucFire    uint8 = iota // the rank's checkpoint is due
	ucWritten              // the rank's write completed
)

// newUncoordinated builds KindUncoordinated.
func newUncoordinated(c Config, st *storage.Store) (*Uncoordinated, error) {
	off, err := c.offset()
	if err != nil {
		return nil, err
	}
	p := c.params(st)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := c.Logging.Validate(); err != nil {
		return nil, err
	}
	if c.Incremental.FullEvery > 1 {
		if err := c.Incremental.Validate(); err != nil {
			return nil, err
		}
	}
	u := &Uncoordinated{p: p, log: c.Logging, inc: c.Incremental}
	u.rankTimer = rankTimer{interval: p.Interval, offset: off, owner: u, due: ucFire}
	return u, nil
}

// Init implements sim.Agent.
func (u *Uncoordinated) Init(ctx *sim.Context) {
	u.ctx = ctx
	u.nwrites = make([]int64, ctx.NumRanks())
	u.start(ctx)
}

// OnTimer implements sim.TimerOwner.
func (u *Uncoordinated) OnTimer(kind uint8, arg int64) {
	rank := int(arg)
	switch kind {
	case ucFire:
		u.fire(u.ctx, rank)
		u.nwrites[rank]++
		n := u.nwrites[rank]
		storeWrite(u.ctx, u.p.Store, storage.TierGlobal, rank, u.writeDuration(n), u.writeBytes(n),
			sim.Call{Owner: u, Kind: ucWritten, Arg: arg})
	case ucWritten:
		u.stats.Writes++
		u.commit(u.ctx, rank, u.ctx.RankBusy(rank))
		u.rearm(u.ctx, rank)
	}
}

// SnapshotState implements sim.Resumable. The pending per-rank timers and
// writes live in the engine, so restoring reschedules nothing.
func (u *Uncoordinated) SnapshotState(ctx *sim.Context, c *snapshot.Codec) {
	u.ctx = ctx
	n := ctx.NumRanks()
	codeStats(c, &u.stats)
	u.rankTimer.snapshotState(c, n)
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

// LogConfig returns the logging parameter set, which the trace checker
// (internal/validate) recomputes the logging charge with.
func (u *Uncoordinated) LogConfig() LogParams { return u.log }

// Taxed reports whether a src→dst application send pays the logging tax:
// under uncoordinated checkpointing, every send does.
func (u *Uncoordinated) Taxed(src, dst int) bool { return true }

// Name implements Protocol.
func (u *Uncoordinated) Name() string {
	name := "uncoordinated-" + u.offset
	if u.inc.FullEvery > 1 {
		name += "-incremental"
	}
	return name
}

// Stats implements Protocol.
func (u *Uncoordinated) Stats() Stats { return u.stats }

var (
	_ Protocol      = (*Uncoordinated)(nil)
	_ sim.SendHook  = (*Uncoordinated)(nil)
	_ sim.Resumable = (*Uncoordinated)(nil)
)
