package checkpoint

import (
	"fmt"
	"sort"

	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
	"checkpointsim/internal/storage"
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
// index by at least the lag threshold (Config.CICLag), it takes a forced
// checkpoint — before the message is processed — and adopts the sender's
// index. Threshold 1 is the
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
//
// Each rank recovers from its most recent local checkpoint, basic or
// forced: the rankTimer paces the basic ones, and forced ones commit to the
// same recovery line.
type CIC struct {
	rankTimer
	p      Params
	lag    int64
	stats  Stats
	ctx    *sim.Context
	idx    []int64
	queues map[cicChan][]int64
}

// Work kinds. A write's argument packs the checkpoint index into the high
// half and the rank into the low half (cicArg).
const (
	cicFire          uint8 = iota // the rank's basic checkpoint is due; arg = rank
	cicBasicWritten               // a basic write completed
	cicForcedWritten              // a forced write completed
)

// Phase markers of CIC, each with the checkpoint index as detail. A write's
// marker is emitted when the write completes.
const (
	MarkCICBasic    = "cic-basic"     // a basic checkpoint was written
	MarkCICForced   = "cic-forced"    // a forced checkpoint was written
	MarkCICForceDue = "cic-force-due" // a receive forced a checkpoint
)

// cicArg packs a checkpoint index and a rank into one work argument.
func cicArg(v int64, rank int) int64 { return v<<32 | int64(rank) }

// newCIC builds KindCIC: CICLag is the index-lag threshold (default 1) and
// Offset staggers the basic-checkpoint timers.
func newCIC(cfg Config, st *storage.Store) (*CIC, error) {
	off, err := cfg.offset()
	if err != nil {
		return nil, err
	}
	p := cfg.params(st)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cfg.CICLag < 0 {
		return nil, fmt.Errorf("checkpoint: negative CIC lag threshold %d", cfg.CICLag)
	}
	c := &CIC{p: p, lag: int64(max(cfg.CICLag, 1)), queues: make(map[cicChan][]int64)}
	c.rankTimer = rankTimer{interval: p.Interval, offset: off, owner: c, due: cicFire}
	return c, nil
}

// Init implements sim.Agent: start the basic-checkpoint timers.
func (c *CIC) Init(ctx *sim.Context) {
	c.ctx = ctx
	c.idx = make([]int64, ctx.NumRanks())
	c.start(ctx)
}

// OnTimer implements sim.TimerOwner.
func (c *CIC) OnTimer(kind uint8, arg int64) {
	switch kind {
	case cicFire:
		// One basic checkpoint: increment the rank's index and write.
		rank := int(arg)
		c.fire(c.ctx, rank)
		c.idx[rank]++
		c.p.write(c.ctx, rank, sim.Call{Owner: c, Kind: cicBasicWritten, Arg: cicArg(c.idx[rank], rank)})
	case cicBasicWritten:
		v, rank := arg>>32, int(uint32(arg))
		c.stats.Writes++
		c.commit(c.ctx, rank, c.ctx.RankBusy(rank))
		c.ctx.Mark(rank, MarkCICBasic, v)
		c.rearm(c.ctx, rank)
	case cicForcedWritten:
		m, dst := arg>>32, int(uint32(arg))
		c.stats.Writes++
		c.stats.Forced++
		c.commit(c.ctx, dst, c.ctx.RankBusy(dst))
		c.ctx.Mark(dst, MarkCICForced, m)
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
	c.rankTimer.snapshotState(sc, n)
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
	c.ctx.Mark(dst, MarkCICForceDue, m)
	c.p.write(c.ctx, dst, sim.Call{Owner: c, Kind: cicForcedWritten, Arg: cicArg(m, dst)})
}

// Name implements Protocol.
func (c *CIC) Name() string { return "cic" }

// Stats implements Protocol.
func (c *CIC) Stats() Stats { return c.stats }

var (
	_ Protocol      = (*CIC)(nil)
	_ sim.SendHook  = (*CIC)(nil)
	_ sim.MatchHook = (*CIC)(nil)
	_ sim.Resumable = (*CIC)(nil)
)
