package checkpoint

import (
	"fmt"

	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
	"checkpointsim/internal/storage"
)

// NonBlockingCoordinated is the asynchronous variant of the coordinated
// protocol: a single trigger sweep down the binomial tree starts a
// background checkpoint write on every rank — no quiesce phase, no
// application gate. Each rank's application runs throughout, slowed by the
// configured interference factor for the duration of the write window, and
// reports completion up the tree. The round's recovery line commits when
// the root has every report.
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

	// The round in flight, all plain data so a snapshot can be taken at
	// any event: per rank, the outstanding completions of its background
	// write (the window, plus the drain when a store is limited) and the
	// CPU scale it imposes.
	active    bool
	tickTime  simtime.Time
	tree      tree
	donesLeft []int
	arrivals  []int
	scales    []sim.Handle
	// pendingBusy/committedBusy mirror coordinator's line bookkeeping.
	pendingBusy   []simtime.Duration
	committedBusy []simtime.Duration
	lastLine      simtime.Time
}

// Work kinds; arg is a rank except for the tick.
const (
	nbTick    uint8 = iota // the next round starts
	nbTrigger              // the start marker reached rank arg
	nbArrive               // one completion of rank arg's background write
	nbDone                 // a completion report reached rank arg
)

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
	ctx.AtOwned(simtime.Time(0).Add(n.p.Interval), n, nbTick, 0)
}

// setup allocates run state without scheduling, for Init and a restoring
// SnapshotState.
func (n *NonBlockingCoordinated) setup(ctx *sim.Context) {
	n.ctx = ctx
	p := ctx.NumRanks()
	n.tree = tree{n: p}
	n.donesLeft = make([]int, p)
	n.arrivals = make([]int, p)
	n.scales = make([]sim.Handle, p)
	n.pendingBusy = make([]simtime.Duration, p)
	n.committedBusy = make([]simtime.Duration, p)
}

// OnTimer implements sim.TimerOwner.
func (n *NonBlockingCoordinated) OnTimer(kind uint8, arg int64) {
	i := int(arg)
	switch kind {
	case nbTick:
		n.tick()
	case nbTrigger:
		n.trigger(i)
	case nbArrive:
		n.arrivals[i]--
		if n.arrivals[i] == 0 {
			n.finish(i)
		}
	case nbDone:
		n.done(i)
	}
}

func (n *NonBlockingCoordinated) tick() {
	if n.active {
		return
	}
	n.active = true
	n.tickTime = n.ctx.Now()
	n.trigger(0)
}

// trigger forwards the start marker down the tree and begins the local
// background write.
func (n *NonBlockingCoordinated) trigger(i int) {
	kids := n.tree.children(i)
	n.donesLeft[i] = len(kids) + 1
	for _, j := range kids {
		n.ctx.SendControl(i, j, ControlBytes, sim.Call{Owner: n, Kind: nbTrigger, Arg: int64(j)})
	}
	if n.slowdown > 1 {
		n.scales[i] = n.ctx.ScaleCPU(i, n.slowdown)
	}
	arrive := sim.Call{Owner: n, Kind: nbArrive, Arg: int64(i)}
	st := n.p.Store
	if st == nil || !st.TierLimited(storage.TierGlobal) {
		n.arrivals[i] = 1
		n.ctx.AfterOwned(n.window, n, arrive.Kind, arrive.Arg)
		return
	}
	// Bandwidth-limited store: the background writer drains the same bytes a
	// blocking write would move in p.Write, concurrently with every
	// other writer in the machine. The write (and its interference window)
	// ends when both the nominal window has elapsed and the drain completes —
	// contention stretches the window, it never shrinks it.
	st.Bind(n.ctx)
	b := n.p.Bytes
	if b <= 0 {
		b = st.BytesFor(storage.TierGlobal, n.p.Write)
	}
	n.arrivals[i] = 2
	st.Begin(i, storage.TierGlobal, b, arrive)
	n.ctx.AfterOwned(n.window, n, arrive.Kind, arrive.Arg)
}

// finish ends rank i's background write: lift its interference and report.
func (n *NonBlockingCoordinated) finish(i int) {
	n.ctx.Release(n.scales[i])
	n.scales[i] = 0
	n.stats.Writes++
	n.pendingBusy[i] = n.ctx.RankBusy(i)
	n.done(i)
}

func (n *NonBlockingCoordinated) done(i int) {
	n.donesLeft[i]--
	if n.donesLeft[i] > 0 {
		return
	}
	if i == 0 {
		end := n.ctx.Now()
		n.stats.Rounds++
		n.stats.RoundSpan += end.Sub(n.tickTime)
		copy(n.committedBusy, n.pendingBusy)
		n.lastLine = end
		n.active = false
		n.ctx.AtOwned(simtime.Max(n.tickTime.Add(n.p.Interval), end), n, nbTick, 0)
		return
	}
	p := n.tree.parent(i)
	n.ctx.SendControl(i, p, ControlBytes, sim.Call{Owner: n, Kind: nbDone, Arg: int64(p)})
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
	return n.committedBusy[rank]
}

// SnapshotState implements sim.Resumable, round in flight included.
func (n *NonBlockingCoordinated) SnapshotState(ctx *sim.Context, c *snapshot.Codec) {
	if c.Decoding() {
		n.setup(ctx)
	}
	p := ctx.NumRanks()
	codeStats(c, &n.stats)
	c.Bool(&n.active)
	snapshot.Int(c, &n.tickTime)
	snapshot.Slice(c, &n.donesLeft, p)
	snapshot.Slice(c, &n.arrivals, p)
	snapshot.Slice(c, &n.scales, p)
	snapshot.Slice(c, &n.pendingBusy, p)
	snapshot.Slice(c, &n.committedBusy, p)
	snapshot.Int(c, &n.lastLine)
	codeStore(ctx, c, n.p.Store)
}

var (
	_ Protocol      = (*NonBlockingCoordinated)(nil)
	_ sim.Resumable = (*NonBlockingCoordinated)(nil)
)
