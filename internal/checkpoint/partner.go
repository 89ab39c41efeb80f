package checkpoint

import (
	"fmt"

	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
	"checkpointsim/internal/storage"
)

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
	// p holds the per-rank interval, the serialize time as Write (the
	// "write" analogue; no filesystem involved), and the image size as
	// Bytes. The image is a real message on the simulated network: it
	// contends with application traffic for the sender's NIC and the
	// partner's CPU. With a store limited on the node tier, the serialize
	// step streams through the node-local burst buffer at its fair share.
	p     Params
	stats Stats
	ctx   *sim.Context
	// rankTimer paces each rank's checkpoints; its line commits when the
	// partner has fully received the image.
	rankTimer
	// progress holds each in-flight checkpoint's application progress,
	// taken when the rank's state was serialized.
	progress  []simtime.Duration
	transfers int64 // completed image transfers
}

// Work kinds; arg is the rank.
const (
	ptFire       uint8 = iota // the rank's checkpoint is due
	ptSerialized              // the rank's state is serialized
	ptShipped                 // the partner has received the rank's image
)

// newPartner builds KindPartner: Write is the serialize time and CkptBytes
// the image size.
func newPartner(c Config, st *storage.Store) (*Partner, error) {
	off, err := c.offset()
	if err != nil {
		return nil, err
	}
	p := Params{Interval: c.Interval, Write: c.Write, Bytes: c.CkptBytes, Store: st}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Bytes == 0 {
		return nil, fmt.Errorf("checkpoint: partner checkpoint needs a positive size")
	}
	pt := &Partner{p: p}
	pt.rankTimer = rankTimer{interval: p.Interval, offset: off, owner: pt, due: ptFire}
	return pt, nil
}

// partner returns rank's buddy, half the machine away, so that a
// cabinet-level failure does not take out both copies.
func (pt *Partner) partner(rank int) int {
	n := pt.ctx.NumRanks()
	return (rank + n/2) % n
}

// Init implements sim.Agent.
func (pt *Partner) Init(ctx *sim.Context) {
	pt.ctx = ctx
	pt.progress = make([]simtime.Duration, ctx.NumRanks())
	pt.start(ctx)
}

// OnTimer implements sim.TimerOwner.
func (pt *Partner) OnTimer(kind uint8, arg int64) {
	rank := int(arg)
	switch kind {
	case ptFire:
		pt.fire(pt.ctx, rank)
		storeWrite(pt.ctx, pt.p.Store, storage.TierNode, rank, pt.p.Write, pt.p.Bytes,
			sim.Call{Owner: pt, Kind: ptSerialized, Arg: arg})
	case ptSerialized:
		pt.progress[rank] = pt.ctx.RankBusy(rank)
		buddy := pt.partner(rank)
		if buddy == rank {
			// Degenerate single-rank case: the local copy is the line.
			pt.finish(rank)
			return
		}
		pt.ctx.SendControl(rank, buddy, pt.p.Bytes, sim.Call{Owner: pt, Kind: ptShipped, Arg: arg})
	case ptShipped:
		pt.transfers++
		pt.finish(rank)
	}
}

// finish commits the rank's checkpoint in flight and arms the next one.
func (pt *Partner) finish(rank int) {
	pt.stats.Writes++
	pt.commit(pt.ctx, rank, pt.progress[rank])
	pt.rearm(pt.ctx, rank)
}

// SnapshotState implements sim.Resumable.
func (pt *Partner) SnapshotState(ctx *sim.Context, c *snapshot.Codec) {
	pt.ctx = ctx
	n := ctx.NumRanks()
	codeStats(c, &pt.stats)
	pt.rankTimer.snapshotState(c, n)
	snapshot.Slice(c, &pt.progress, n)
	snapshot.Int(c, &pt.transfers)
	codeStore(ctx, c, pt.p.Store)
}

// Name implements Protocol.
func (pt *Partner) Name() string { return "partner" }

// Stats implements Protocol.
func (pt *Partner) Stats() Stats { return pt.stats }

// Shipped returns the total bytes transferred to partners and the number of
// completed transfers.
func (pt *Partner) Shipped() (bytes int64, transfers int64) {
	return pt.transfers * pt.p.Bytes, pt.transfers
}

var (
	_ Protocol      = (*Partner)(nil)
	_ sim.Resumable = (*Partner)(nil)
)
