package checkpoint

import (
	"fmt"

	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
	"checkpointsim/internal/storage"
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
	coords      []*coordinator
}

// newHierarchical builds KindHierarchical.
func newHierarchical(c Config, st *storage.Store) (*Hierarchical, error) {
	p := c.params(st)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := c.Logging.Validate(); err != nil {
		return nil, err
	}
	if c.ClusterSize <= 0 {
		return nil, fmt.Errorf("checkpoint: cluster size %d", c.ClusterSize)
	}
	return &Hierarchical{p: p, clusterSize: c.ClusterSize, log: c.Logging}, nil
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
	n := ctx.NumRanks()
	numClusters := (n + h.clusterSize - 1) / h.clusterSize
	h.coords = make([]*coordinator, numClusters)
	for k := 0; k < numClusters; k++ {
		lo := k * h.clusterSize
		h.coords[k] = newCoordinator(ctx, h.p, h, k, lo, min(h.clusterSize, n-lo), &h.stats)
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

// LogConfig returns the logging parameter set, which the trace checker
// (internal/validate) recomputes the logging charge with.
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

// ProgressAtCheckpoint implements Protocol: the progress saved by the
// rank's cluster's last completed round.
func (h *Hierarchical) ProgressAtCheckpoint(rank int) simtime.Duration {
	c := h.coords[h.cluster(rank)]
	return c.committedBusy[rank-c.lo]
}

// ClusterMembers returns the ranks sharing rank's cluster (including rank
// itself) — the rollback unit for cluster-level recovery.
func (h *Hierarchical) ClusterMembers(rank int) []int {
	c := h.coords[h.cluster(rank)]
	out := make([]int, c.n)
	for i := range out {
		out[i] = c.lo + i
	}
	return out
}

var (
	_ Protocol      = (*Hierarchical)(nil)
	_ sim.SendHook  = (*Hierarchical)(nil)
	_ sim.Resumable = (*Hierarchical)(nil)
)
