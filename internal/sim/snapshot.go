package sim

// Snapshot/restore of complete mid-run engine state (DESIGN.md S25).
//
// Every piece of pending work is plain data: timers, seizure completions
// and grants, control-message deliveries are all owned records (owner,
// kind, arg) that OnTimer dispatches, and a rank's hold gate and CPU
// factor are rank data that agents address by the rank. So every instant
// between two events can be snapshotted — mid coordination round, mid
// storage drain — with no special cases.
//
// Owned work names its owner by position in the engine's owner table,
// which holds the timer owners in a fixed registration order: the agents,
// in stack order, at New, then at most one store, bound by its protocol.
// The config digest seals the agent stack and, through Config.Identity,
// the storage parameters, so an engine built from the same Config
// registers the same owners at the same positions and the blob names none
// of them. The walk decodes the agent sections before the ranks and the
// queue, so on restore the store has registered, while its protocol
// decodes, before any owned work can name it; past the owners registered
// so far, an owner position is corrupt.
//
// A snapshot is byte-exact: restoring it into a fresh engine built from an
// identical Config reproduces the remainder of the run bit-for-bit —
// results, traces, RNG draws, event order. A digest of the Config travels
// inside the blob so a snapshot cannot be resumed under a different
// configuration, and the blob itself is sealed with a SHA-256 trailer (see
// internal/snapshot).

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"slices"

	"checkpointsim/internal/goal"
	"checkpointsim/internal/rng"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
)

// TimerOwner receives an agent's pending work. A timer scheduled with
// Context.AtOwned fires as OnTimer(kind, arg) at exactly its scheduled time,
// and a Call runs the same way when its event completes, so the owner reads
// the time from Context.Now. Because pending work is plain data, it
// survives snapshot/restore in its exact queue position. An engine knows
// its owners by registration order: the agents at New, in stack order,
// then at most one more, the store a protocol binds (Context.OwnTimers).
type TimerOwner interface {
	OnTimer(kind uint8, arg int64)
}

// Call is one piece of pending agent work, held as plain data: running it
// invokes Owner.OnTimer(Kind, Arg) at the current simulated time. Every
// completion callback (SeizeCPU, SeizeCPUDynamic, SendControl, storage
// writes) takes a Call; the zero Call does nothing. Owner must be
// registered (agents are registered automatically; see OwnTimers).
type Call struct {
	Owner TimerOwner
	Kind  uint8
	Arg   int64
}

// Resumable is implemented by agents that participate in snapshot/restore.
// Config.SnapshotEvery requires every agent to implement it. All of an
// agent's state is data — in-flight rounds included — so it can be
// encoded at any event boundary.
type Resumable interface {
	Agent
	// SnapshotState walks the agent's complete mutable state through c:
	// written into a snapshot, or — when c.Decoding() — read back, every
	// mutable field overwritten and none carried over, so the same agent
	// object can be restored into a different engine. ctx is the engine's
	// context; on restore the agent must stash it (and re-register any
	// non-agent timer owners it manages) exactly as Init would, but must
	// not schedule anything — pending work lives in the restored engine.
	SnapshotState(ctx *Context, c *snapshot.Codec)
}

// Snapshot is one captured engine state, ready to persist or resume.
type Snapshot struct {
	// Blob is the sealed, versioned, digest-tagged serialized state; feed
	// it to Engine.Restore on an engine built from an identical Config.
	Blob []byte
	// Time is the simulated time of the snapshot.
	Time simtime.Time
	// Events is the number of events processed when the snapshot was taken.
	Events int64
	// TraceEvents counts trace records emitted before the snapshot: a
	// resumed run emits exactly the monolithic trace stream's suffix
	// starting at this index.
	TraceEvents int64
}

// ErrConfigMismatch marks a restore attempted under a Config differing from
// the one the snapshot was taken under.
var ErrConfigMismatch = errors.New("sim: snapshot taken under a different configuration")

// emitTrace forwards a record to the trace consumer, counting it so
// snapshots know where the resume suffix begins. Callers check cfg.Trace
// for nil first (the hot path stays branch-and-call free when untraced).
func (e *Engine) emitTrace(ev TraceEvent) {
	e.traceCount++
	e.cfg.Trace(ev)
}

// registerOwner appends o to the owner table; registering it again is a
// no-op.
func (e *Engine) registerOwner(o TimerOwner) {
	if !slices.Contains(e.owners, o) {
		e.owners = append(e.owners, o)
	}
}

// own binds a Call to its owner's position in the owner table.
func (e *Engine) own(c Call) owned {
	if c.Owner == nil {
		return owned{}
	}
	i := slices.Index(e.owners, c.Owner)
	if i < 0 {
		panic(fmt.Sprintf("sim: Call on unregistered TimerOwner %T", c.Owner))
	}
	return owned{owner: int32(i + 1), kind: c.Kind, arg: c.Arg}
}

// run executes a piece of owned work now; the zero owned does nothing.
func (e *Engine) run(w owned) {
	if w.owner != 0 {
		e.owners[w.owner-1].OnTimer(w.kind, w.arg)
	}
}

// codeOwned walks owned work, checking its owner against the owners
// registered so far (see the file header).
func (e *Engine) codeOwned(c *snapshot.Codec, w *owned) {
	snapshot.Int(c, &w.owner)
	c.U8(&w.kind)
	snapshot.Int(c, &w.arg)
	if w.owner < 0 || int(w.owner) > len(e.owners) {
		c.Failf("work owner %d out of range", w.owner)
		*w = owned{}
	}
}

// SnapshotCall walks a Call held in an agent's state (a pending storage
// drain, say), naming its owner by position. On restore the owner must
// already be registered: agents always are, and the store registers before
// it decodes its Calls.
func (c *Context) SnapshotCall(sc *snapshot.Codec, call *Call) {
	w := c.eng.own(*call)
	if c.eng.codeOwned(sc, &w); sc.Decoding() {
		*call = Call{}
		if w.owner != 0 {
			*call = Call{Owner: c.eng.owners[w.owner-1], Kind: w.kind, Arg: w.arg}
		}
	}
}

// snapshot captures the engine's complete state for OnSnapshot.
func (e *Engine) snapshot() {
	e.cfg.OnSnapshot(Snapshot{
		Blob:        e.encodeSnapshot(),
		Time:        e.now,
		Events:      e.events,
		TraceEvents: e.traceCount,
	})
}

// configDigest fingerprints everything that determines the simulation's
// future evolution: seed, caps, network parameters, the program's content,
// the agent stack (by type, positionally) and, when Config.Identity is set,
// the canonical encoding of the configuration that assembled the engine.
// It is computed once, at the first snapshot or restore.
func (e *Engine) configDigest() []byte {
	if e.digest != nil {
		return e.digest
	}
	c := snapshot.Writer()
	c.Fix64(&e.cfg.Seed)
	snapshot.Int(c, &e.cfg.MaxEvents)
	snapshot.Int(c, &e.cfg.MaxTime)
	snapshot.Int(c, &e.net.Latency)
	snapshot.Int(c, &e.net.Overhead)
	snapshot.Int(c, &e.net.Gap)
	c.F64(&e.net.GapPerByte)
	c.F64(&e.net.OverheadPerByte)
	snapshot.Int(c, &e.net.RendezvousThreshold)
	c.F64(&e.net.BisectionBytesPerSec)
	pd := e.prog.Digest()
	c.Raw(pd[:])
	c.Len(len(e.cfg.Agents))
	for _, a := range e.cfg.Agents {
		typ := fmt.Sprintf("%T", a)
		c.Str(&typ)
	}
	if e.cfg.Identity != nil {
		id := e.cfg.Identity()
		c.Str(&id)
	}
	sum := sha256.Sum256(c.Bytes())
	e.digest = sum[:]
	return e.digest
}

// codeMsg walks a message.
func (e *Engine) codeMsg(c *snapshot.Codec, m *message) {
	c.U8((*uint8)(&m.kind))
	snapshot.Int(c, &m.id)
	snapshot.Int(c, &m.src)
	snapshot.Int(c, &m.dst)
	snapshot.Int(c, &m.tag)
	snapshot.Int(c, &m.bytes)
	snapshot.Int(c, &m.wire)
	snapshot.Int(c, &m.op)
	snapshot.Int(c, &m.recvOp)
	e.codeOwned(c, &m.deliver)
	n := int32(len(e.ranks))
	// A rendezvous send completes when its data is pushed and a receive
	// when its data is processed, so RTS and CTS name a pending send op, and
	// CTS and data a pending receive op.
	if m.kind > msgCtl || m.src < 0 || m.src >= n || m.dst < 0 || m.dst >= n ||
		!e.validOp(m.op) || !e.validOp(m.recvOp) ||
		(m.kind == msgRTS || m.kind == msgCTS) && !e.claimOp(c, m.op) ||
		(m.kind == msgCTS || m.kind == msgData) && !e.claimOp(c, m.recvOp) ||
		(m.kind != msgCtl && m.deliver.owner != 0) {
		c.Failf("message fields out of range")
	}
}

// codeMsgSlot walks the message in slot *s inline; decoding puts it in a
// fresh slab slot.
func (e *Engine) codeMsgSlot(c *snapshot.Codec, s *int32) {
	if !c.Decoding() {
		e.codeMsg(c, &e.msgs[*s])
		return
	}
	var m message
	if e.codeMsg(c, &m); c.Err() == nil {
		*s = e.newMsg(m)
	}
}

// validOp reports whether id names an op of the program or is NoOp.
func (e *Engine) validOp(id goal.OpID) bool {
	return id == goal.NoOp || id >= 0 && int(id) < len(e.prog.Ops)
}

// onRank reports whether id names an op of the program bound to rank.
func (e *Engine) onRank(id goal.OpID, rank int) bool {
	return id >= 0 && int(id) < len(e.prog.Ops) && int(e.prog.Ops[id].Rank) == rank
}

// checkDeps fails decoding unless every dependency counter matches the
// program: an open op waits on exactly its open dependencies, and a
// completed op on none.
func (e *Engine) checkDeps(c *snapshot.Codec) {
	waiting := make([]int32, len(e.depsLeft))
	for id, d := range e.depsLeft {
		if d != -1 {
			for _, out := range e.prog.Outs(goal.OpID(id)) {
				waiting[out]++
			}
		}
	}
	for id, d := range e.depsLeft {
		if d != waiting[id] && (d != -1 || waiting[id] != 0) {
			c.Failf("dependency counter of op %d is %d, want %d", id, d, waiting[id])
			return
		}
	}
}

// opClaimed marks, while decoding, an activated op that pending work
// already names; walk resets it to 0 once everything is decoded.
const opClaimed = -2

// claimOp reports whether id names an activated op (dependency counter 0)
// that no other pending work names, and claims it when decoding. Every
// activated op is named exactly once — by its job, posted receive or
// rendezvous message — until it completes, so a blob naming a completed,
// unactivated or already-named op would have Run complete an op twice or
// never.
func (e *Engine) claimOp(c *snapshot.Codec, id goal.OpID) bool {
	if id < 0 || int(id) >= len(e.depsLeft) || e.depsLeft[id] != 0 {
		return false
	}
	if c.Decoding() {
		e.depsLeft[id] = opClaimed
	}
	return true
}

// validReason reports whether id names an interned reason.
func (e *Engine) validReason(id reasonID) bool { return id >= 0 && int(id) < len(e.reasons) }

// jobHasMsg reports whether a job of kind k names a message slot.
func jobHasMsg(k jobKind) bool { return k == jobSendData || k == jobCtlSend || k == jobCtlRecv }

// jobHasSeize reports whether a job of kind k names a seizure slot.
func jobHasSeize(k jobKind) bool { return k == jobSeize || k == jobSeizeOpen }

// jobHasOp reports whether a job of kind k names an op.
func jobHasOp(k jobKind) bool {
	return k == jobCalc || k == jobSendEager || k == jobSendRTS || k == jobRecvDone
}

// codeJob walks a job in one flat layout for every kind: kind, cost, op,
// the seizure fields, then a presence flag and the message inline. Fields
// a kind does not use are written as zeros; decoding puts the message or
// seizure record in a fresh slab slot. A job that completes an op must sit
// on the op's own rank, since completing it credits the rank it ran on.
func (e *Engine) codeJob(c *snapshot.Codec, rank int, j *job) {
	var op goal.OpID
	var sz seizeRec
	var m message
	kind := j.kind
	switch {
	case c.Decoding():
	case jobHasMsg(kind):
		m = e.msgs[j.arg]
	case jobHasSeize(kind):
		sz = e.seizes[j.arg]
	default:
		op = goal.OpID(j.arg)
	}
	c.U8((*uint8)(&kind))
	snapshot.Int(c, &j.cost)
	snapshot.Int(c, &op)
	snapshot.Int(c, &sz.reason)
	e.codeOwned(c, &sz.done)
	snapshot.Int(c, &sz.waitReason)
	e.codeOwned(c, &sz.granted)
	hasMsg := jobHasMsg(kind)
	if c.Bool(&hasMsg); hasMsg {
		e.codeMsg(c, &m)
	}
	if kind > jobSeizeOpen || j.cost < 0 || !e.validOp(op) ||
		jobHasOp(kind) && (!e.claimOp(c, op) || !e.onRank(op, rank)) ||
		kind == jobSendData && !e.onRank(m.op, rank) ||
		!e.validReason(sz.reason) && sz.reason != 0 || !e.validReason(sz.waitReason) && sz.waitReason != 0 ||
		hasMsg != jobHasMsg(kind) {
		c.Failf("job fields out of range")
	}
	if !c.Decoding() || c.Err() != nil {
		return
	}
	j.kind = kind
	switch {
	case hasMsg:
		j.arg = e.newMsg(m)
	case jobHasSeize(kind):
		j.arg = e.newSeize(sz)
	default:
		j.arg = int32(op)
	}
}

// codeJobs walks a job queue's count, then its jobs head first; restoring
// rebuilds the list in the job slab.
func (e *Engine) codeJobs(c *snapshot.Codec, rank int, l *list) {
	n := 0
	for i := l.head; i != 0; i = e.jobs.nodes[i].next {
		n++
	}
	n = c.Len(n)
	if !c.Decoding() {
		for i := l.head; i != 0; i = e.jobs.nodes[i].next {
			e.codeJob(c, rank, &e.jobs.nodes[i].val)
		}
		return
	}
	for k := 0; k < n && c.Err() == nil; k++ {
		var j job
		e.codeJob(c, rank, &j)
		e.jobs.push(l, j)
	}
}

// codeRank walks one rank's state, its side data included. Restoring
// rebuilds its lists in decode order, derives the queue depths, and each
// posted receive's peer and tag from its op. Arrival tables exist only
// under a fabric model, so a fabric-free engine refuses one. A posted
// receive must be a receive op of the rank, and an unexpected message an
// eager or RTS message sent to it, or Run would match what no receive
// waits for.
func (e *Engine) codeRank(c *snapshot.Codec, rank int, st *rankState) {
	var sd rankSide
	if c.Decoding() {
		*st = rankState{}
	} else if e.side != nil {
		sd = e.side[rank]
	}
	c.Bool(&st.running)
	if st.running {
		e.codeJob(c, rank, &st.runningJob)
		snapshot.Int(c, &st.jobStart)
		c.Bool(&st.releasing)
	}
	if st.jobStart > e.now || st.releasing && st.runningJob.kind != jobSeizeOpen {
		c.Failf("running job out of range")
	}
	e.codeJobs(c, rank, &st.seizeQ)
	e.codeJobs(c, rank, &st.ctlQ)
	e.codeJobs(c, rank, &st.appQ)
	if c.Bool(&st.held); st.held {
		snapshot.Int(c, &sd.hold.start)
		snapshot.Int(c, &sd.hold.reason)
		if sd.hold.start > e.now || !e.validReason(sd.hold.reason) {
			c.Failf("hold out of range")
		}
	}
	if c.Bool(&st.scaled); st.scaled {
		if c.F64(&sd.scale); !(sd.scale >= 1) || math.IsInf(sd.scale, 1) {
			c.Failf("scale factor %v out of range", sd.scale)
		}
	}
	snapshot.Int(c, &st.scaledExtra)
	snapshot.Int(c, &st.nicFreeAt)
	n := c.Len(int(st.postedN))
	for k, i := 0, st.posted.head; k < n && c.Err() == nil; k++ {
		var p postedRecv
		if !c.Decoding() {
			p, i = e.posts.nodes[i].val, e.posts.nodes[i].next
		}
		snapshot.Int(c, &p.op)
		if !e.onRank(p.op, rank) || e.prog.Ops[p.op].Kind != goal.KindRecv || !e.claimOp(c, p.op) {
			c.Failf("posted op %d is not a pending receive of rank %d", p.op, rank)
		} else if c.Decoding() {
			op := e.prog.Op(p.op)
			p.peer, p.tag = op.Peer, op.Tag
			e.posts.push(&st.posted, p)
			st.postedN++
		}
	}
	n = c.Len(int(st.unexpectedN))
	for k, i := 0, st.unexpected.head; k < n && c.Err() == nil; k++ {
		var m message
		if !c.Decoding() {
			m, i = e.msgs[e.unexps.nodes[i].val], e.unexps.nodes[i].next
		}
		e.codeMsg(c, &m)
		if m.kind != msgEager && m.kind != msgRTS || int(m.dst) != rank {
			c.Failf("unexpected message is not an eager or RTS message to rank %d", rank)
		} else if c.Decoding() && c.Err() == nil {
			e.unexps.push(&st.unexpected, e.newMsg(m))
			st.unexpectedN++
		}
	}
	hasArrivals := sd.lastArrival != nil
	if c.Bool(&hasArrivals); hasArrivals {
		if !e.net.HasFabric() {
			c.Failf("arrival table on a fabric-free engine")
		}
		snapshot.Slice(c, &sd.lastArrival, len(e.ranks))
	}
	snapshot.Int(c, &st.finish)
	snapshot.Int(c, &st.busy)
	snapshot.Int(c, &st.ctlBusy)
	snapshot.Int(c, &st.seizedBusy)
	if c.Decoding() && (st.held || st.scaled || sd.lastArrival != nil) {
		*e.sideOf(rank) = sd
	}
}

// codeEvent walks one queued event with its ordering key.
func (e *Engine) codeEvent(c *snapshot.Codec, t *simtime.Time, seq *uint64, ev *event) {
	snapshot.Int(c, t)
	c.U64(seq)
	c.U8((*uint8)(&ev.kind))
	switch ev.kind {
	case evJobDone:
		if snapshot.Int(c, &ev.id); ev.id < 0 || int(ev.id) >= len(e.ranks) {
			c.Failf("jobDone rank out of range")
		}
	case evArrive:
		e.codeMsgSlot(c, &ev.id)
	case evTimer:
		if e.codeOwned(c, &ev.work); ev.work.owner == 0 {
			c.Failf("timer without an owner")
		}
	default:
		c.Failf("event kind out of range")
	}
}

// walk runs the complete engine state, after the config digest, through c:
// scalars, RNG, metrics, dependency counters, the reason table with its
// accounting, one length-prefixed section per agent, every rank, and the
// event queue with each event's exact ordering key. The agent sections
// come first so that the store registers before any owned work names it
// (see the file header); agent decoders read only Now, NumRanks and
// SnapshotCall, never rank state.
//
// The message and seizure slabs are not serialized as such: every live
// slot is written inline where a job, event or unexpected queue names it,
// and a restore fills fresh slots in decode order. Slot numbers never reach
// results or traces, and the free lists hold only slots awaiting reuse, so
// a restored engine starts them empty with no observable effect. The
// exhaustive-field test in snapshot_fields_test.go documents these
// exclusions. A restore checks that every activated op is named by exactly
// one piece of pending work (see claimOp).
func (e *Engine) walk(c *snapshot.Codec) error {
	snapshot.Int(c, &e.now)
	snapshot.Int(c, &e.events)
	snapshot.Int(c, &e.nextMsgID)
	snapshot.Int(c, &e.opsLeft)
	snapshot.Int(c, &e.fabricFree)
	snapshot.Int(c, &e.traceCount)
	rs := e.rand.State()
	for i := range rs {
		c.Fix64(&rs[i])
	}
	if c.Decoding() && c.Err() == nil {
		r, err := rng.FromState(rs)
		if err != nil {
			c.Failf("%v", err)
		} else {
			e.rand = r
		}
	}
	m := &e.metrics
	snapshot.Int(c, &m.AppMessages)
	snapshot.Int(c, &m.AppBytes)
	snapshot.Int(c, &m.CtlMessages)
	snapshot.Int(c, &m.CtlBytes)
	snapshot.Int(c, &m.Rendezvous)
	snapshot.Int(c, &m.Matches)
	snapshot.Int(c, &m.UnexpectedMax)
	snapshot.Int(c, &m.PostedMax)
	snapshot.Int(c, &m.FabricBusy)
	snapshot.Slice(c, &e.depsLeft, len(e.prog.Ops))
	open := 0
	for _, d := range e.depsLeft {
		if d >= 0 {
			open++
		} else if d != -1 {
			c.Failf("depsLeft out of range")
		}
	}
	if c.Decoding() && c.Err() == nil {
		e.checkDeps(c)
	}
	if open != e.opsLeft || e.opsLeft == 0 || e.events < 0 || e.now < 0 {
		c.Failf("inconsistent progress counters")
	}
	e.walkReasons(c)
	if err := e.walkAgents(c); err != nil {
		return err
	}
	for i := range e.ranks {
		e.codeRank(c, i, &e.ranks[i])
	}
	qseq := e.queue.Seq()
	c.U64(&qseq)
	qn := c.Len(e.queue.Len())
	if !c.Decoding() {
		e.queue.Items(func(t simtime.Time, seq uint64, ev event) {
			e.codeEvent(c, &t, &seq, &ev)
		})
		return nil
	}
	// A running rank's job completes through exactly one queued jobDone,
	// except an open-ended seizure that is not yet releasing.
	pendingDone := make([]bool, len(e.ranks))
	for i := range e.ranks {
		st := &e.ranks[i]
		pendingDone[i] = st.running && (st.runningJob.kind != jobSeizeOpen || st.releasing)
	}
	type item struct {
		t   simtime.Time
		seq uint64
		ev  event
	}
	items := make([]item, qn)
	for i := 0; i < qn && c.Err() == nil; i++ {
		it := &items[i]
		if e.codeEvent(c, &it.t, &it.seq, &it.ev); it.t < e.now || it.seq >= qseq {
			c.Failf("queue item key out of range")
		}
		if it.ev.kind == evJobDone && c.Err() == nil {
			if !pendingDone[it.ev.id] {
				c.Failf("jobDone for rank %d, which has no job to complete", it.ev.id)
			}
			pendingDone[it.ev.id] = false
		}
	}
	// The engine writes the queue in (t, seq) order, but a crafted blob's
	// order is not to be trusted, and Queue.Load panics on events tied on
	// time loaded out of sequence order: sort once, refuse duplicates, then
	// load.
	slices.SortFunc(items, func(a, b item) int {
		return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.seq, b.seq))
	})
	for i, it := range items {
		if i > 0 && it.t == items[i-1].t && it.seq == items[i-1].seq {
			c.Failf("queue item (%v, %d) duplicated", it.t, it.seq)
		}
		if c.Err() == nil {
			e.queue.Load(it.t, it.seq, it.ev)
		}
	}
	e.queue.SetSeq(qseq)
	if i := slices.Index(pendingDone, true); i >= 0 {
		c.Failf("rank %d runs a job that never completes", i)
	}
	for id, d := range e.depsLeft {
		switch d {
		case opClaimed:
			e.depsLeft[id] = 0
		case 0:
			c.Failf("activated op %d has no pending work", id)
		}
	}
	return nil
}

// walkReasons runs the interned reason table, with its accumulated
// accounting, in ID order so restored jobs' and holds' reasonIDs keep
// meaning.
func (e *Engine) walkReasons(c *snapshot.Codec) {
	n := c.Len(len(e.reasons))
	if c.Decoding() {
		e.reasons = make([]string, n)
		e.seizeTime = make([]simtime.Duration, n)
		e.seizeCnt = make([]int64, n)
		e.heldTime = make([]simtime.Duration, n)
		e.heldCnt = make([]int64, n)
	}
	for id := range e.reasons {
		c.Str(&e.reasons[id])
		snapshot.Int(c, &e.seizeTime[id])
		snapshot.Int(c, &e.seizeCnt[id])
		snapshot.Int(c, &e.heldTime[id])
		snapshot.Int(c, &e.heldCnt[id])
	}
	if !c.Decoding() {
		return
	}
	e.reasonIDs = make(map[string]reasonID, n)
	for id, reason := range e.reasons {
		if _, dup := e.reasonIDs[reason]; dup {
			c.Failf("duplicate reason %q", reason)
		}
		e.reasonIDs[reason] = reasonID(id)
	}
}

// walkAgents runs one length-prefixed section per agent in stack order. A
// restore checks each section is consumed exactly.
func (e *Engine) walkAgents(c *snapshot.Codec) error {
	if n := c.Len(len(e.cfg.Agents)); n != len(e.cfg.Agents) {
		c.Failf("agent count %d, engine has %d", n, len(e.cfg.Agents))
	}
	for i, a := range e.cfg.Agents {
		if c.Err() != nil {
			return nil
		}
		if err := c.Section(func(sc *snapshot.Codec) { a.(Resumable).SnapshotState(&e.ctx, sc) }); err != nil {
			return fmt.Errorf("sim: agent %d (%T) restore: %w", i, a, err)
		}
	}
	return nil
}

// encodeSnapshot serializes the complete engine state at the current event
// boundary.
func (e *Engine) encodeSnapshot() []byte {
	c := snapshot.Writer()
	c.Raw(e.configDigest())
	e.walk(c)
	return snapshot.Seal(snapshot.FormatVersion, c.Bytes())
}

// Restore loads a snapshot into an engine that has not yet run. The engine
// must have been built by New from a Config identical to the snapshotting
// engine's (enforced via the embedded config digest); its agents must all
// be Resumable. After a successful Restore, Run continues the simulation
// and — by construction — produces the exact remainder of the original
// run: identical results, trace suffix, and event order.
//
// On error the engine is poisoned (Run refuses); build a fresh engine to
// retry or fall back to a cold start. The blob is fully digest-verified
// before any field is decoded, and every decoded field is bounds-checked,
// so corrupt input yields an error, never a panic or a silently wrong
// resume.
func (e *Engine) Restore(blob []byte) (err error) {
	if e.ran {
		return fmt.Errorf("sim: Restore on an engine that already ran")
	}
	if e.restored {
		return fmt.Errorf("sim: Restore called twice")
	}
	defer func() {
		if err != nil {
			e.ran = true // poison: half-restored state must never run
		}
	}()
	for i, a := range e.cfg.Agents {
		if _, ok := a.(Resumable); !ok {
			return fmt.Errorf("sim: Restore with non-Resumable agent %d (%T)", i, a)
		}
	}
	version, payload, err := snapshot.Open(blob)
	if err != nil {
		return err
	}
	if version != snapshot.FormatVersion {
		return fmt.Errorf("%w: blob has %d, engine speaks %d", snapshot.ErrVersion, version, snapshot.FormatVersion)
	}
	c := snapshot.Reader(payload)
	var got [sha256.Size]byte
	if c.Raw(got[:]); c.Err() == nil && !bytes.Equal(got[:], e.configDigest()) {
		return ErrConfigMismatch
	}
	if err := e.walk(c); err != nil {
		return err
	}
	if err := c.Finish(); err != nil {
		return err
	}
	e.restored = true
	return nil
}
