package checkpoint

import (
	"fmt"

	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
	"checkpointsim/internal/storage"
)

// PartnerParams configure diskless partner (buddy) checkpointing.
type PartnerParams struct {
	// Interval is the per-rank checkpoint interval.
	Interval simtime.Duration
	// SerializeTime is the local CPU seizure to snapshot the rank's state
	// into a send buffer (the "write" analogue; no filesystem involved).
	SerializeTime simtime.Duration
	// CkptBytes is the checkpoint image size shipped to the partner. The
	// transfer is a real message on the simulated network: it contends
	// with application traffic for the sender's NIC and the partner's CPU.
	CkptBytes int64
	// Stride selects the partner: rank ^pairs with (rank + Stride) mod P.
	// Zero defaults to P/2 (cross-machine pairing, the usual choice so
	// that a cabinet-level failure does not take out both copies).
	Stride int
	// Offsets selects the timer policy, as for Uncoordinated.
	Offsets OffsetPolicy
	// Store, when non-nil and limited on the node tier, arbitrates the
	// serialize step against co-located writers: the snapshot streams through
	// the node-local burst buffer at its fair share of the node bandwidth.
	// Nil (or an unconstrained node tier) keeps the legacy fixed
	// SerializeTime seizure.
	Store *storage.Store
}

// Validate checks the parameter set.
func (p PartnerParams) Validate() error {
	if p.Interval <= 0 {
		return fmt.Errorf("checkpoint: non-positive interval %v", p.Interval)
	}
	if p.SerializeTime < 0 {
		return fmt.Errorf("checkpoint: negative serialize time")
	}
	if p.CkptBytes <= 0 {
		return fmt.Errorf("checkpoint: partner checkpoint needs a positive size")
	}
	if p.Stride < 0 {
		return fmt.Errorf("checkpoint: negative partner stride")
	}
	if p.Offsets > Random {
		return fmt.Errorf("checkpoint: bad offset policy %d", p.Offsets)
	}
	return nil
}

// Partner is uncoordinated diskless checkpointing to a partner node's
// memory: each rank periodically serializes its state (a CPU seizure) and
// ships the image to its partner as a real network transfer. There is no
// parallel filesystem in the loop — the cost is CPU, NIC, and the partner's
// receive processing, all of which contend with the application. A rank's
// recovery line commits when its partner has fully received the image.
//
// Message logging is deliberately not bundled in (compose with the logging
// tax of Uncoordinated if the recovery protocol needs it); Partner isolates
// the checkpoint-commit path that experiment E12 compares against
// local-write protocols.
type Partner struct {
	p     PartnerParams
	stats Stats
	ctx   *sim.Context

	// fired and progress hold each rank's checkpoint in flight: when its
	// timer fired, and its application progress when serialized.
	fired     []simtime.Time
	progress  []simtime.Duration
	last      []simtime.Time
	busyAt    []simtime.Duration
	shipped   int64 // total checkpoint bytes shipped
	transfers int64
}

// Work kinds; arg is the rank.
const (
	ptFire       uint8 = iota // the rank's checkpoint is due
	ptSerialized              // the rank's state is serialized
	ptShipped                 // the partner has received the rank's image
)

// NewPartner builds the protocol.
func NewPartner(p PartnerParams) (*Partner, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Partner{p: p}, nil
}

// partner returns rank's buddy.
func (pt *Partner) partner(rank int) int {
	n := pt.ctx.NumRanks()
	stride := pt.p.Stride
	if stride == 0 {
		stride = n / 2
	}
	if stride == 0 { // n == 1
		return rank
	}
	return (rank + stride) % n
}

// Init implements sim.Agent.
func (pt *Partner) Init(ctx *sim.Context) {
	pt.ctx = ctx
	n := ctx.NumRanks()
	pt.fired = make([]simtime.Time, n)
	pt.progress = make([]simtime.Duration, n)
	pt.last = make([]simtime.Time, n)
	pt.busyAt = make([]simtime.Duration, n)
	for r := 0; r < n; r++ {
		var off simtime.Duration
		switch pt.p.Offsets {
		case Aligned:
			off = 0
		case Staggered:
			off = simtime.Duration(int64(pt.p.Interval) * int64(r) / int64(n))
		case Random:
			off = simtime.Duration(ctx.Rand().Intn(int(pt.p.Interval)))
		}
		ctx.AtOwned(simtime.Time(0).Add(pt.p.Interval+off), pt, ptFire, int64(r))
	}
}

// OnTimer implements sim.TimerOwner.
func (pt *Partner) OnTimer(kind uint8, arg int64) {
	rank := int(arg)
	switch kind {
	case ptFire:
		pt.fired[rank] = pt.ctx.Now()
		storeWrite(pt.ctx, pt.p.Store, storage.TierNode, rank, pt.p.SerializeTime, pt.p.CkptBytes,
			sim.Call{Owner: pt, Kind: ptSerialized, Arg: arg})
	case ptSerialized:
		pt.progress[rank] = pt.ctx.RankBusy(rank)
		buddy := pt.partner(rank)
		if buddy == rank {
			// Degenerate single-rank case: the local copy is the line.
			pt.commit(rank)
			return
		}
		pt.ctx.SendControl(rank, buddy, pt.p.CkptBytes, sim.Call{Owner: pt, Kind: ptShipped, Arg: arg})
	case ptShipped:
		pt.shipped += pt.p.CkptBytes
		pt.transfers++
		pt.commit(rank)
	}
}

// commit finalizes the rank's checkpoint in flight and arms the next timer.
func (pt *Partner) commit(rank int) {
	at := pt.ctx.Now()
	pt.stats.Writes++
	pt.last[rank] = at
	pt.busyAt[rank] = pt.progress[rank]
	next := simtime.Max(pt.fired[rank].Add(pt.p.Interval), at)
	pt.ctx.AtOwned(next, pt, ptFire, int64(rank))
}

// SnapshotState implements sim.Resumable.
func (pt *Partner) SnapshotState(ctx *sim.Context, c *snapshot.Codec) {
	pt.ctx = ctx
	n := ctx.NumRanks()
	codeStats(c, &pt.stats)
	snapshot.Slice(c, &pt.fired, n)
	snapshot.Slice(c, &pt.progress, n)
	snapshot.Slice(c, &pt.last, n)
	snapshot.Slice(c, &pt.busyAt, n)
	snapshot.Int(c, &pt.shipped)
	snapshot.Int(c, &pt.transfers)
	codeStore(ctx, c, pt.p.Store)
}

// Name implements Protocol.
func (pt *Partner) Name() string { return "partner" }

// Stats implements Protocol.
func (pt *Partner) Stats() Stats { return pt.stats }

// LastCheckpoint implements Protocol: the time the partner finished
// receiving the rank's latest image.
func (pt *Partner) LastCheckpoint(rank int) simtime.Time { return pt.last[rank] }

// ProgressAtCheckpoint implements Protocol.
func (pt *Partner) ProgressAtCheckpoint(rank int) simtime.Duration {
	return pt.busyAt[rank]
}

// Shipped returns the total bytes transferred to partners and the number of
// completed transfers.
func (pt *Partner) Shipped() (bytes int64, transfers int64) {
	return pt.shipped, pt.transfers
}

var (
	_ Protocol      = (*Partner)(nil)
	_ sim.Resumable = (*Partner)(nil)
)
