package checkpoint

import (
	"math/bits"

	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
)

// coordinator runs the two-phase checkpoint rounds over one group of ranks
// (the whole machine for Coordinated, one cluster for Hierarchical). Rounds
// proceed through four sweeps of a binomial tree rooted at members[0]:
//
//	REQ  (down): close each member's application gate
//	ACK  (up):   subtree fully quiesced
//	COMMIT (down): write the checkpoint (CPU seizure), reopen the gate
//	DONE (up):   subtree fully written
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
	ctx     *sim.Context
	p       Params
	owner   sim.TimerOwner
	group   int64
	members []int // actual rank ids; members[0] is the root
	stats   *Stats
	// onRound runs when a round fully completes.
	onRound func(tick, end simtime.Time)
	// kids and kidsAt are the tree's children lists (layoutTree).
	kids   []int
	kidsAt []int

	// per-round state
	active       bool
	tickTime     simtime.Time
	pendingDelay simtime.Duration // coordination delay of the in-flight round
	acksLeft     []int
	donesLeft    []int
	holds        []sim.Handle // each member's application gate while closed
	// pendingBusy snapshots each member's application progress at its write;
	// committedBusy is the snapshot of the last *completed* round — the
	// progress a rollback of this group restores.
	pendingBusy   []simtime.Duration
	committedBusy []simtime.Duration
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

func newCoordinator(ctx *sim.Context, p Params, owner sim.TimerOwner, group int, members []int,
	stats *Stats, onRound func(tick, end simtime.Time)) *coordinator {
	return &coordinator{
		ctx: ctx, p: p, owner: owner, group: int64(group), members: members, stats: stats,
		onRound:       onRound,
		acksLeft:      make([]int, len(members)),
		donesLeft:     make([]int, len(members)),
		holds:         make([]sim.Handle, len(members)),
		pendingBusy:   make([]simtime.Duration, len(members)),
		committedBusy: make([]simtime.Duration, len(members)),
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

// children returns the virtual indices of i's binomial-tree children. The
// tree is laid out once, on first use, so a round allocates nothing; each
// list is its own window of the layout, so callers may hold several.
func (c *coordinator) children(i int) []int {
	if c.kidsAt == nil {
		c.layoutTree()
	}
	lo, hi := c.kidsAt[i], c.kidsAt[i+1]
	return c.kids[lo:hi:hi]
}

// layoutTree lists every member's children in kids, member i's at
// kids[kidsAt[i]:kidsAt[i+1]]: i+1, i+2, i+4, … below i's lowest set bit
// (any power of two for the root) and below the member count.
func (c *coordinator) layoutTree() {
	n := len(c.members)
	c.kids = make([]int, 0, max(n-1, 0))
	c.kidsAt = make([]int, n+1)
	for i := 0; i < n; i++ {
		c.kidsAt[i] = len(c.kids)
		limit := i & -i // lsb; the root may add any power of two
		if i == 0 {
			limit = 1 << bits.Len(uint(n)) // effectively unbounded
		}
		for step := 1; step < limit && i+step < n; step <<= 1 {
			c.kids = append(c.kids, i+step)
		}
	}
	c.kidsAt[n] = len(c.kids)
}

// parent returns the virtual index of i's binomial-tree parent.
func (c *coordinator) parent(i int) int { return i - (i & -i) }

// schedule arms the next round's tick.
func (c *coordinator) schedule(t simtime.Time) {
	c.ctx.AtOwned(t, c.owner, coordTick, c.group<<32)
}

// snapshotState walks the coordinator's state, any round in flight
// included.
func (c *coordinator) snapshotState(sc *snapshot.Codec) {
	n := len(c.members)
	sc.Bool(&c.active)
	snapshot.Int(sc, &c.tickTime)
	snapshot.Int(sc, &c.pendingDelay)
	snapshot.Slice(sc, &c.acksLeft, n)
	snapshot.Slice(sc, &c.donesLeft, n)
	snapshot.Slice(sc, &c.holds, n)
	snapshot.Slice(sc, &c.pendingBusy, n)
	snapshot.Slice(sc, &c.committedBusy, n)
}

func (c *coordinator) tick() {
	if c.active {
		// Should not happen — rounds reschedule themselves on completion —
		// but guard against misuse.
		return
	}
	c.active = true
	c.tickTime = c.ctx.Now()
	c.ctx.Mark(c.members[0], "round-start", int64(len(c.members)))
	c.handleReq(0)
}

func (c *coordinator) handleReq(i int) {
	rank := c.members[i]
	c.holds[i] = c.ctx.HoldApp(rank, ReasonCoord)
	kids := c.children(i)
	c.acksLeft[i] = len(kids)
	for _, j := range kids {
		c.ctx.SendControl(rank, c.members[j], c.p.ctlBytes(), c.call(coordReq, j))
	}
	if len(kids) == 0 {
		c.ackReady(i)
	}
}

// ackReady runs when subtree i is fully quiesced.
func (c *coordinator) ackReady(i int) {
	if i == 0 {
		c.pendingDelay = c.ctx.Now().Sub(c.tickTime)
		c.ctx.Mark(c.members[0], "round-commit", int64(len(c.members)))
		c.handleCommit(0)
		return
	}
	p := c.parent(i)
	c.ctx.SendControl(c.members[i], c.members[p], c.p.ctlBytes(), c.call(coordAck, p))
}

func (c *coordinator) handleCommit(i int) {
	rank := c.members[i]
	kids := c.children(i)
	c.donesLeft[i] = len(kids) + 1 // children subtrees + own write
	for _, j := range kids {
		c.ctx.SendControl(rank, c.members[j], c.p.ctlBytes(), c.call(coordCommit, j))
	}
	c.p.write(c.ctx, rank, c.call(coordWritten, i))
}

// written runs when member i's checkpoint write completes: reopen its gate
// and report the subtree's progress.
func (c *coordinator) written(i int) {
	c.stats.Writes++
	c.pendingBusy[i] = c.ctx.RankBusy(c.members[i])
	c.ctx.Release(c.holds[i])
	c.holds[i] = 0
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
		c.ctx.Mark(c.members[0], "round-end", int64(len(c.members)))
		c.stats.Rounds++ // rounds and their delays count only when complete
		c.stats.CoordDelay += c.pendingDelay
		c.stats.RoundSpan += end.Sub(c.tickTime)
		copy(c.committedBusy, c.pendingBusy)
		c.active = false
		if c.onRound != nil {
			c.onRound(c.tickTime, end)
		}
		c.schedule(simtime.Max(c.tickTime.Add(c.p.Interval), end))
		return
	}
	p := c.parent(i)
	c.ctx.SendControl(c.members[i], c.members[p], c.p.ctlBytes(), c.call(coordDone, p))
}
