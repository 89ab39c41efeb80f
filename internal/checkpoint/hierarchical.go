package checkpoint

import (
	"fmt"

	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
)

// Hierarchical is the hybrid protocol: ranks are partitioned into
// fixed-size clusters; each cluster runs the two-phase coordinated protocol
// internally (on its own staggered schedule), and only messages that cross
// cluster boundaries pay the message-logging tax. Cluster size 1 degrades
// to uncoordinated-staggered with full logging; cluster size P degrades to
// the fully coordinated protocol with no logging.
type Hierarchical struct {
	p           Params
	clusterSize int
	log         LogParams
	stats       Stats
	numRanks    int
	coords      []*coordinator
	// lastLine[k] is the completion time of cluster k's last round;
	// lineStart[k] its start.
	lastLine  []simtime.Time
	lineStart []simtime.Time
}

// NewHierarchical builds the protocol with the given cluster size.
func NewHierarchical(p Params, clusterSize int, log LogParams) (*Hierarchical, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := log.Validate(); err != nil {
		return nil, err
	}
	if clusterSize <= 0 {
		return nil, fmt.Errorf("checkpoint: cluster size %d", clusterSize)
	}
	return &Hierarchical{p: p, clusterSize: clusterSize, log: log}, nil
}

// cluster returns the cluster index of a rank.
func (h *Hierarchical) cluster(rank int) int { return rank / h.clusterSize }

// Init implements sim.Agent.
func (h *Hierarchical) Init(ctx *sim.Context) {
	h.setup(ctx)
	numClusters := len(h.coords)
	for k := 0; k < numClusters; k++ {
		// Stagger cluster schedules across the interval.
		off := simtime.Duration(int64(h.p.Interval) * int64(k) / int64(numClusters))
		h.coords[k].schedule(simtime.Time(0).Add(h.p.Interval + off))
	}
}

// setup builds the per-cluster coordinators without scheduling their rounds,
// for both Init and a restoring SnapshotState.
func (h *Hierarchical) setup(ctx *sim.Context) {
	h.numRanks = ctx.NumRanks()
	numClusters := (h.numRanks + h.clusterSize - 1) / h.clusterSize
	h.lastLine = make([]simtime.Time, numClusters)
	h.lineStart = make([]simtime.Time, numClusters)
	h.coords = make([]*coordinator, numClusters)
	for k := 0; k < numClusters; k++ {
		lo := k * h.clusterSize
		hi := lo + h.clusterSize
		if hi > h.numRanks {
			hi = h.numRanks
		}
		members := make([]int, hi-lo)
		for i := range members {
			members[i] = lo + i
		}
		h.coords[k] = newCoordinator(ctx, h.p, h, k, members, &h.stats,
			func(tick, end simtime.Time) {
				h.lastLine[k] = end
				h.lineStart[k] = tick
			})
	}
}

// OnTimer implements sim.TimerOwner: all pending work belongs to the
// coordinator of the cluster named in the argument.
func (h *Hierarchical) OnTimer(kind uint8, arg int64) {
	k, i := coordArg(arg)
	h.coords[k].onTimer(kind, i)
}

// SnapshotState implements sim.Resumable.
func (h *Hierarchical) SnapshotState(ctx *sim.Context, c *snapshot.Codec) {
	if c.Decoding() {
		h.setup(ctx)
	}
	codeStats(c, &h.stats)
	snapshot.Slice(c, &h.lastLine, len(h.coords))
	snapshot.Slice(c, &h.lineStart, len(h.coords))
	for _, k := range h.coords {
		k.snapshotState(c)
	}
	codeStore(ctx, c, h.p.Store)
}

// SendPenalty implements sim.SendHook: only inter-cluster messages are
// logged.
func (h *Hierarchical) SendPenalty(src, dst int, bytes int64) simtime.Duration {
	if h.cluster(src) == h.cluster(dst) {
		return 0
	}
	d := h.log.penalty(bytes)
	h.stats.LoggedMessages++
	h.stats.LoggedBytes += bytes
	h.stats.LogPenalty += d
	return d
}

// LogConfig returns the logging parameter set (see validate.TaxedLogger).
func (h *Hierarchical) LogConfig() LogParams { return h.log }

// Taxed reports whether a src→dst application send pays the logging tax:
// only inter-cluster sends do.
func (h *Hierarchical) Taxed(src, dst int) bool {
	return h.cluster(src) != h.cluster(dst)
}

// Name implements Protocol.
func (h *Hierarchical) Name() string {
	return fmt.Sprintf("hierarchical-%d", h.clusterSize)
}

// Stats implements Protocol.
func (h *Hierarchical) Stats() Stats { return h.stats }

// LastCheckpoint implements Protocol: a rank recovers from its cluster's
// last completed round.
func (h *Hierarchical) LastCheckpoint(rank int) simtime.Time {
	return h.lastLine[h.cluster(rank)]
}

// ProgressAtCheckpoint implements Protocol: the progress saved by the
// rank's cluster's last completed round.
func (h *Hierarchical) ProgressAtCheckpoint(rank int) simtime.Duration {
	k := h.cluster(rank)
	return h.coords[k].committedBusy[rank-k*h.clusterSize]
}

// LastLineStart returns the start of the last completed round of rank's
// cluster.
func (h *Hierarchical) LastLineStart(rank int) simtime.Time {
	return h.lineStart[h.cluster(rank)]
}

// ClusterSize returns the configured cluster size.
func (h *Hierarchical) ClusterSize() int { return h.clusterSize }

// ClusterMembers returns the ranks sharing rank's cluster (including rank
// itself) — the rollback unit for cluster-level recovery.
func (h *Hierarchical) ClusterMembers(rank int) []int {
	k := h.cluster(rank)
	lo := k * h.clusterSize
	hi := lo + h.clusterSize
	if hi > h.numRanks {
		hi = h.numRanks
	}
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

var (
	_ Protocol      = (*Hierarchical)(nil)
	_ sim.SendHook  = (*Hierarchical)(nil)
	_ sim.Resumable = (*Hierarchical)(nil)
)
