package checkpoint

import (
	"fmt"

	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
	"checkpointsim/internal/storage"
)

// NonBlockingCoordinated is the asynchronous variant of the coordinated
// protocol: the shared coordinator with the quiesce skipped. A single
// COMMIT sweep down the binomial tree starts a background checkpoint write
// on every rank — no application gate. Each rank's application runs
// throughout, slowed by the configured interference factor for the
// duration of the write window, and reports completion up the tree. The
// round's recovery line commits when the root has every report.
//
// This models copy-on-write / diskless asynchronous checkpointing. Real
// implementations must also capture in-flight messages to make the line
// consistent (e.g. Chandy–Lamport markers or logging during the window);
// we charge no extra cost for that, so the measured overhead is a lower
// bound that isolates the coordination-and-interference component the
// study cares about.
type NonBlockingCoordinated struct {
	p Params
	// window is the wall-clock span of the background write: the bytes a
	// blocking write would move in p.Write stream out over this longer
	// window while the application keeps running.
	window simtime.Duration
	// slowdown is the CPU interference factor the application suffers
	// during the window: copy-on-write faults, cache pollution, and I/O
	// contention from the background writer. 1.0 = free writes.
	slowdown float64
	stats    Stats
	ctx      *sim.Context
	coord    *coordinator

	// arrivals holds, per rank, the outstanding completions of its
	// background write in flight: the window, plus the drain when a store
	// is limited.
	arrivals []int
}

// nbArrive is one completion of member arg's background write; kinds below
// coordKinds are the coordinator's.
const nbArrive = coordKinds

// newNonBlocking builds KindNonBlocking: Window must be at least Write and
// Slowdown at least 1.
func newNonBlocking(c Config, st *storage.Store) (*NonBlockingCoordinated, error) {
	p := c.params(st)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if c.Window < p.Write {
		return nil, fmt.Errorf("checkpoint: non-blocking window %v < write time %v", c.Window, p.Write)
	}
	if !(c.Slowdown >= 1) {
		return nil, fmt.Errorf("checkpoint: non-blocking slowdown %v < 1", c.Slowdown)
	}
	return &NonBlockingCoordinated{p: p, window: c.Window, slowdown: c.Slowdown}, nil
}

// Init implements sim.Agent.
func (n *NonBlockingCoordinated) Init(ctx *sim.Context) {
	n.setup(ctx)
	n.coord.schedule(simtime.Time(0).Add(n.p.Interval))
}

// setup allocates run state without scheduling, for Init and a restoring
// SnapshotState.
func (n *NonBlockingCoordinated) setup(ctx *sim.Context) {
	n.ctx = ctx
	p := ctx.NumRanks()
	n.coord = newCoordinator(ctx, n.p, n, 0, 0, p, &n.stats)
	n.coord.async = n.begin
	n.arrivals = make([]int, p)
}

// OnTimer implements sim.TimerOwner.
func (n *NonBlockingCoordinated) OnTimer(kind uint8, arg int64) {
	_, i := coordArg(arg)
	if kind != nbArrive {
		n.coord.onTimer(kind, i)
		return
	}
	n.arrivals[i]--
	if n.arrivals[i] == 0 {
		// The write is complete: lift its interference and report.
		n.ctx.ReleaseScale(i)
		n.coord.written(i)
	}
}

// begin starts rank i's background write at its COMMIT.
func (n *NonBlockingCoordinated) begin(i int) {
	if n.slowdown > 1 {
		n.ctx.ScaleCPU(i, n.slowdown)
	}
	arrive := n.coord.call(nbArrive, i)
	n.arrivals[i] = 1
	if st := n.p.Store; st != nil && st.TierLimited(storage.TierGlobal) {
		// Bandwidth-limited store: the background writer drains the same
		// bytes a blocking write would move in p.Write, concurrently with
		// every other writer in the machine. The write (and its
		// interference window) ends when both the nominal window has
		// elapsed and the drain completes — contention stretches the
		// window, it never shrinks it.
		st.Bind(n.ctx)
		b := n.p.Bytes
		if b <= 0 {
			b = st.BytesFor(storage.TierGlobal, n.p.Write)
		}
		n.arrivals[i] = 2
		st.Begin(i, storage.TierGlobal, b, arrive)
	}
	n.ctx.AfterOwned(n.window, n, arrive.Kind, arrive.Arg)
}

// Name implements Protocol.
func (n *NonBlockingCoordinated) Name() string { return "nonblocking-coordinated" }

// Stats implements Protocol.
func (n *NonBlockingCoordinated) Stats() Stats { return n.stats }

// ProgressAtCheckpoint implements Protocol.
//
// The background write captures the rank's state as of the *start* of the
// window (copy-on-write semantics), but committedBusy is sampled at window
// end; the difference only makes recovery estimates slightly optimistic
// about saved progress, bounded by one window of work.
func (n *NonBlockingCoordinated) ProgressAtCheckpoint(rank int) simtime.Duration {
	return n.coord.committedBusy[rank]
}

// SnapshotState implements sim.Resumable, round in flight included.
func (n *NonBlockingCoordinated) SnapshotState(ctx *sim.Context, c *snapshot.Codec) {
	if c.Decoding() {
		n.setup(ctx)
	}
	p := ctx.NumRanks()
	codeStats(c, &n.stats)
	n.coord.snapshotState(c)
	snapshot.Slice(c, &n.arrivals, p)
	codeStore(ctx, c, n.p.Store)
}

var (
	_ Protocol      = (*NonBlockingCoordinated)(nil)
	_ sim.Resumable = (*NonBlockingCoordinated)(nil)
)
