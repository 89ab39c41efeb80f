package checkpoint

import (
	"math/bits"

	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
)

// coordinator runs the two-phase checkpoint rounds over one contiguous
// group of ranks (the whole machine for Coordinated, NonBlockingCoordinated
// and TwoLevel's global level, one cluster for Hierarchical). Rounds
// proceed through four sweeps of the binomial tree over the group, rooted
// at its first rank:
//
//	REQ  (down): close each member's application gate
//	ACK  (up):   subtree fully quiesced
//	COMMIT (down): write the checkpoint (CPU seizure), reopen the gate
//	DONE (up):   subtree fully written
//
// With async set (non-blocking checkpointing), a round skips the quiesce:
// it starts with the COMMIT sweep, each member's COMMIT starts async's
// background write instead of a seizure, and the protocol calls written
// when that write completes. Such rounds emit no phase markers.
//
// All sweeps are control messages through the simulated network. Rounds
// never overlap: the next round starts Interval after the previous round's
// start, or immediately after the previous round ends, whichever is later.
//
// Every pending step of a round is owned work of the embedding protocol
// (owner): its OnTimer routes the coordinator kinds below back to onTimer,
// with the group in the argument's high half and the member index in the
// low half. The in-flight round itself is the data in the fields, so a
// snapshot can be taken mid-round.
type coordinator struct {
	ctx   *sim.Context
	p     Params
	owner sim.TimerOwner
	group int64
	lo    int // the group's first rank: member i is rank lo+i
	tree      // over the group's members
	stats *Stats
	// async, when set, starts member i's background write at its COMMIT.
	async func(i int)

	// per-round state
	active       bool
	tickTime     simtime.Time
	pendingDelay simtime.Duration // coordination delay of the in-flight round
	acksLeft     []int
	donesLeft    []int
	// pendingBusy snapshots each member's application progress at its write;
	// committedBusy is the snapshot of the last *completed* round — the
	// progress a rollback of this group restores.
	pendingBusy   []simtime.Duration
	committedBusy []simtime.Duration
	// lineAt is when the last completed round ended: the group's recovery
	// line.
	lineAt simtime.Time
}

// Coordinator work kinds. Protocols embedding a coordinator route kinds
// below coordKinds to coordinator.onTimer and number their own from
// coordKinds.
const (
	coordTick    uint8 = iota // the next round starts
	coordReq                  // a REQ reached member i
	coordAck                  // an ACK from a child reached member i
	coordCommit               // a COMMIT reached member i
	coordWritten              // member i's checkpoint write completed
	coordDone                 // a DONE from a child reached member i
	coordKinds
)

// Phase markers of a blocking coordinated round, emitted on the group's
// root with the group size as detail.
const (
	MarkRoundStart  = "round-start"  // the REQ sweep begins
	MarkRoundCommit = "round-commit" // every member is quiesced
	MarkRoundEnd    = "round-end"    // every member has written
)

// newCoordinator builds the coordinator of the n ranks from lo.
func newCoordinator(ctx *sim.Context, p Params, owner sim.TimerOwner, group, lo, n int,
	stats *Stats) *coordinator {
	return &coordinator{
		ctx: ctx, p: p, owner: owner, group: int64(group), lo: lo, tree: tree{n: n}, stats: stats,
		acksLeft:      make([]int, n),
		donesLeft:     make([]int, n),
		pendingBusy:   make([]simtime.Duration, n),
		committedBusy: make([]simtime.Duration, n),
	}
}

// coordArg splits an owned-work argument into (group, member index).
func coordArg(arg int64) (group, i int) { return int(arg >> 32), int(uint32(arg)) }

// call is the owned work of kind for member i.
func (c *coordinator) call(kind uint8, i int) sim.Call {
	return sim.Call{Owner: c.owner, Kind: kind, Arg: c.group<<32 | int64(i)}
}

// onTimer runs one step of the coordinator's pending work.
func (c *coordinator) onTimer(kind uint8, i int) {
	switch kind {
	case coordTick:
		c.tick()
	case coordReq:
		c.handleReq(i)
	case coordAck:
		c.acksLeft[i]--
		if c.acksLeft[i] == 0 {
			c.ackReady(i)
		}
	case coordCommit:
		c.handleCommit(i)
	case coordWritten:
		c.written(i)
	case coordDone:
		c.doneReady(i)
	}
}

// tree is the binomial tree over the virtual indices 0..n-1, rooted at 0,
// that the coordinated protocols sweep.
type tree struct {
	n int
	// kids lists every index's children, i's at kids[kidsAt[i]:kidsAt[i+1]]
	// (layout).
	kids   []int
	kidsAt []int
}

// children returns the indices of i's children. The tree is laid out once,
// on first use, so a round allocates nothing; each list is its own window
// of the layout, so callers may hold several.
func (t *tree) children(i int) []int {
	if t.kidsAt == nil {
		t.layout()
	}
	lo, hi := t.kidsAt[i], t.kidsAt[i+1]
	return t.kids[lo:hi:hi]
}

// layout lists i's children as i+1, i+2, i+4, … below i's lowest set bit
// (any power of two for the root) and below n.
func (t *tree) layout() {
	t.kids = make([]int, 0, max(t.n-1, 0))
	t.kidsAt = make([]int, t.n+1)
	for i := 0; i < t.n; i++ {
		t.kidsAt[i] = len(t.kids)
		limit := i & -i // lsb; the root may add any power of two
		if i == 0 {
			limit = 1 << bits.Len(uint(t.n)) // effectively unbounded
		}
		for step := 1; step < limit && i+step < t.n; step <<= 1 {
			t.kids = append(t.kids, i+step)
		}
	}
	t.kidsAt[t.n] = len(t.kids)
}

// parent returns the index of i's parent: i with its lowest set bit clear.
func (t *tree) parent(i int) int { return i - (i & -i) }

// schedule arms the next round's tick.
func (c *coordinator) schedule(t simtime.Time) {
	c.ctx.AtOwned(t, c.owner, coordTick, c.group<<32)
}

// snapshotState walks the coordinator's state, any round in flight
// included.
func (c *coordinator) snapshotState(sc *snapshot.Codec) {
	n := c.n
	sc.Bool(&c.active)
	snapshot.Int(sc, &c.tickTime)
	snapshot.Int(sc, &c.pendingDelay)
	snapshot.Slice(sc, &c.acksLeft, n)
	snapshot.Slice(sc, &c.donesLeft, n)
	snapshot.Slice(sc, &c.pendingBusy, n)
	snapshot.Slice(sc, &c.committedBusy, n)
	snapshot.Int(sc, &c.lineAt)
}

func (c *coordinator) tick() {
	if c.active {
		// Should not happen — rounds reschedule themselves on completion —
		// but guard against misuse.
		return
	}
	c.active = true
	c.tickTime = c.ctx.Now()
	if c.async != nil {
		c.handleCommit(0)
		return
	}
	c.ctx.Mark(c.lo, MarkRoundStart, int64(c.n))
	c.handleReq(0)
}

func (c *coordinator) handleReq(i int) {
	rank := c.lo + i
	c.ctx.HoldApp(rank, ReasonCoord)
	kids := c.children(i)
	c.acksLeft[i] = len(kids)
	for _, j := range kids {
		c.ctx.SendControl(rank, c.lo+j, ControlBytes, c.call(coordReq, j))
	}
	if len(kids) == 0 {
		c.ackReady(i)
	}
}

// ackReady runs when subtree i is fully quiesced.
func (c *coordinator) ackReady(i int) {
	if i == 0 {
		c.pendingDelay = c.ctx.Now().Sub(c.tickTime)
		c.ctx.Mark(c.lo, MarkRoundCommit, int64(c.n))
		c.handleCommit(0)
		return
	}
	p := c.parent(i)
	c.ctx.SendControl(c.lo+i, c.lo+p, ControlBytes, c.call(coordAck, p))
}

func (c *coordinator) handleCommit(i int) {
	rank := c.lo + i
	kids := c.children(i)
	c.donesLeft[i] = len(kids) + 1 // children subtrees + own write
	for _, j := range kids {
		c.ctx.SendControl(rank, c.lo+j, ControlBytes, c.call(coordCommit, j))
	}
	if c.async != nil {
		c.async(i)
		return
	}
	c.p.write(c.ctx, rank, c.call(coordWritten, i))
}

// written runs when member i's checkpoint write completes: reopen its gate
// (a non-blocking round closed none) and report the subtree's progress.
func (c *coordinator) written(i int) {
	c.stats.Writes++
	c.pendingBusy[i] = c.ctx.RankBusy(c.lo + i)
	c.ctx.ReleaseHold(c.lo + i)
	c.doneReady(i)
}

// doneReady decrements subtree i's outstanding-done counter.
func (c *coordinator) doneReady(i int) {
	c.donesLeft[i]--
	if c.donesLeft[i] > 0 {
		return
	}
	if i == 0 {
		end := c.ctx.Now()
		if c.async == nil {
			c.ctx.Mark(c.lo, MarkRoundEnd, int64(c.n))
		}
		c.stats.Rounds++ // rounds and their delays count only when complete
		c.stats.CoordDelay += c.pendingDelay
		c.stats.RoundSpan += end.Sub(c.tickTime)
		copy(c.committedBusy, c.pendingBusy)
		c.lineAt = end
		c.active = false
		c.schedule(simtime.Max(c.tickTime.Add(c.p.Interval), end))
		return
	}
	p := c.parent(i)
	c.ctx.SendControl(c.lo+i, c.lo+p, ControlBytes, c.call(coordDone, p))
}
