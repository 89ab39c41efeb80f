package checkpoint

import (
	"fmt"
	"sort"

	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
)

// cicChan keys the per-channel queue of piggybacked checkpoint indices.
type cicChan struct {
	src, dst int32
}

// CIC is index-based communication-induced checkpointing (the
// Briatico–Ciuffoletti–Simoncini family in Garcia et al.'s survey). Each
// rank keeps a Lamport-style checkpoint index, incremented by basic
// checkpoints on an independent local timer and piggybacked on every
// application message. When a receiver's index lags a message's piggybacked
// index by at least LagThreshold, it takes a forced checkpoint — before the
// message is processed — and adopts the sender's index. Threshold 1 is the
// classic Z-path-free rule: no sequence of messages can thread checkpoints
// into a useless (Z-cycle) recovery line, so a consistent global state
// always exists without any coordination messages. Larger thresholds trade
// forced-checkpoint load for a weaker guarantee.
//
// Indices ride in message headers, so the piggyback itself is free; the
// protocol's cost is entirely the forced writes, which go through the same
// storage path as every other checkpoint. Index pairing uses per-channel
// FIFO queues: with single-threaded ranks and non-overtaking channels,
// match order equals send order per channel (tag-reordered wildcard
// matching could mispair two in-flight indices on one channel, which at
// worst shifts a forced checkpoint by one message).
type CIC struct {
	p      Params
	lag    int64
	policy OffsetPolicy
	stats  Stats
	ctx    *sim.Context
	idx    []int64
	fired  []simtime.Time // when each rank's in-flight basic checkpoint fired
	last   []simtime.Time
	busyAt []simtime.Duration
	queues map[cicChan][]int64
}

// Work kinds. A write's argument packs the checkpoint index into the high
// half and the rank into the low half (cicArg).
const (
	cicFire          uint8 = iota // the rank's basic checkpoint is due; arg = rank
	cicBasicWritten               // a basic write completed
	cicForcedWritten              // a forced write completed
)

// cicArg packs a checkpoint index and a rank into one work argument.
func cicArg(v int64, rank int) int64 { return v<<32 | int64(rank) }

// NewCIC builds the protocol. lag is the index-lag threshold (default 1);
// policy staggers the basic-checkpoint timers.
func NewCIC(p Params, lag int, policy OffsetPolicy) (*CIC, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if lag < 0 {
		return nil, fmt.Errorf("checkpoint: negative CIC lag threshold %d", lag)
	}
	if lag == 0 {
		lag = 1
	}
	if policy > Random {
		return nil, fmt.Errorf("checkpoint: bad offset policy %d", policy)
	}
	return &CIC{p: p, lag: int64(lag), policy: policy, queues: make(map[cicChan][]int64)}, nil
}

// Init implements sim.Agent: start the basic-checkpoint timers.
func (c *CIC) Init(ctx *sim.Context) {
	c.ctx = ctx
	n := ctx.NumRanks()
	c.idx = make([]int64, n)
	c.fired = make([]simtime.Time, n)
	c.last = make([]simtime.Time, n)
	c.busyAt = make([]simtime.Duration, n)
	for r := 0; r < n; r++ {
		var off simtime.Duration
		switch c.policy {
		case Aligned:
			off = 0
		case Staggered:
			off = simtime.Duration(int64(c.p.Interval) * int64(r) / int64(n))
		case Random:
			off = simtime.Duration(ctx.Rand().Intn(int(c.p.Interval)))
		}
		ctx.AtOwned(simtime.Time(0).Add(c.p.Interval+off), c, cicFire, int64(r))
	}
}

// OnTimer implements sim.TimerOwner.
func (c *CIC) OnTimer(kind uint8, arg int64) {
	switch kind {
	case cicFire:
		// One basic checkpoint: increment the rank's index and write.
		rank := int(arg)
		c.fired[rank] = c.ctx.Now()
		c.idx[rank]++
		c.p.write(c.ctx, rank, sim.Call{Owner: c, Kind: cicBasicWritten, Arg: cicArg(c.idx[rank], rank)})
	case cicBasicWritten:
		v, rank := arg>>32, int(uint32(arg))
		end := c.ctx.Now()
		c.stats.Writes++
		c.last[rank] = end
		c.busyAt[rank] = c.ctx.RankBusy(rank)
		c.ctx.Mark(rank, "cic-basic", v)
		next := simtime.Max(c.fired[rank].Add(c.p.Interval), end)
		c.ctx.AtOwned(next, c, cicFire, int64(rank))
	case cicForcedWritten:
		m, dst := arg>>32, int(uint32(arg))
		c.stats.Writes++
		c.stats.Forced++
		c.last[dst] = c.ctx.Now()
		c.busyAt[dst] = c.ctx.RankBusy(dst)
		c.ctx.Mark(dst, "cic-forced", m)
	}
}

// SnapshotState implements sim.Resumable. The per-channel piggyback queues
// can be non-empty at any event (indices of sent-but-unmatched messages);
// they are walked in (src,dst) order for determinism.
func (c *CIC) SnapshotState(ctx *sim.Context, sc *snapshot.Codec) {
	c.ctx = ctx
	n := ctx.NumRanks()
	codeStats(sc, &c.stats)
	snapshot.Slice(sc, &c.idx, n)
	snapshot.Slice(sc, &c.fired, n)
	snapshot.Slice(sc, &c.last, n)
	snapshot.Slice(sc, &c.busyAt, n)
	keys := make([]cicChan, 0, len(c.queues))
	for k := range c.queues {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].src != keys[j].src {
			return keys[i].src < keys[j].src
		}
		return keys[i].dst < keys[j].dst
	})
	if nq := sc.Len(len(keys)); sc.Decoding() {
		keys = make([]cicChan, nq)
		c.queues = make(map[cicChan][]int64, nq)
	}
	for _, k := range keys {
		q := c.queues[k]
		snapshot.Int(sc, &k.src)
		snapshot.Int(sc, &k.dst)
		snapshot.Slice(sc, &q, -1)
		if k.src < 0 || int(k.src) >= n || k.dst < 0 || int(k.dst) >= n {
			sc.Failf("cic channel %d->%d out of range", k.src, k.dst)
		}
		c.queues[k] = q
	}
	codeStore(ctx, sc, c.p.Store)
}

// SendPenalty implements sim.SendHook: record the sender's index for the
// in-flight message (the piggyback). No CPU is charged — indices ride in
// the header.
func (c *CIC) SendPenalty(src, dst int, bytes int64) simtime.Duration {
	key := cicChan{int32(src), int32(dst)}
	c.queues[key] = append(c.queues[key], c.idx[src])
	return 0
}

// MessageMatched implements sim.MatchHook: compare the message's
// piggybacked index against the receiver's. On lag ≥ threshold the receiver
// adopts the sender's index and takes a forced checkpoint, scheduled before
// the receive is processed (the engine grants seized work ahead of
// application jobs).
func (c *CIC) MessageMatched(src, dst int, bytes int64) {
	key := cicChan{int32(src), int32(dst)}
	q := c.queues[key]
	if len(q) == 0 {
		return
	}
	m := q[0]
	if len(q) == 1 {
		// Rewind an emptied queue to its array's start, so the channel's
		// next send appends in place instead of reallocating.
		c.queues[key] = q[:0]
	} else {
		c.queues[key] = q[1:]
	}
	if m-c.idx[dst] < c.lag {
		return
	}
	c.idx[dst] = m
	c.ctx.Mark(dst, "cic-force-due", m)
	c.p.write(c.ctx, dst, sim.Call{Owner: c, Kind: cicForcedWritten, Arg: cicArg(m, dst)})
}

// LagThreshold returns the configured index-lag threshold (see
// validate.CICIntrospect).
func (c *CIC) LagThreshold() int { return int(c.lag) }

// Name implements Protocol.
func (c *CIC) Name() string { return "cic" }

// Stats implements Protocol.
func (c *CIC) Stats() Stats { return c.stats }

// LastCheckpoint implements Protocol: each rank recovers from its most
// recent local checkpoint, basic or forced.
func (c *CIC) LastCheckpoint(rank int) simtime.Time { return c.last[rank] }

// ProgressAtCheckpoint implements Protocol.
func (c *CIC) ProgressAtCheckpoint(rank int) simtime.Duration { return c.busyAt[rank] }

var (
	_ Protocol      = (*CIC)(nil)
	_ sim.SendHook  = (*CIC)(nil)
	_ sim.MatchHook = (*CIC)(nil)
	_ sim.Resumable = (*CIC)(nil)
)
