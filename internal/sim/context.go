package sim

import (
	"fmt"

	"checkpointsim/internal/goal"
	"checkpointsim/internal/rng"
	"checkpointsim/internal/simtime"
)

// This file is the agent-facing API: everything a checkpointing protocol,
// noise generator, or failure injector may do to a running simulation.

// Now returns the current simulated time.
func (c *Context) Now() simtime.Time { return c.eng.now }

// NumRanks returns the number of ranks in the simulated application.
func (c *Context) NumRanks() int { return c.eng.prog.NumRanks }

// rank returns rank's state, panicking in op's name when rank is out of
// range.
func (c *Context) rank(op string, rank int) *rankState {
	if rank < 0 || rank >= len(c.eng.ranks) {
		panic(fmt.Sprintf("sim: %s rank %d out of range", op, rank))
	}
	return &c.eng.ranks[rank]
}

// Rand returns the simulation's deterministic random source. Agents must
// draw from it only inside event callbacks (Init, timers, deliveries), where
// the total event order makes consumption deterministic.
func (c *Context) Rand() *rng.Source { return c.eng.rand }

// OwnTimers registers o as a timer owner, so that it can own timers and
// Calls; registering it again is a no-op. Owned work names its owner by
// registration order, so owners register in a fixed order: the agents,
// automatically at New in stack order, then at most one subsystem that is
// not an agent, the shared storage arbiter, which registers when its
// protocol binds it and again while its protocol's state is restored.
func (c *Context) OwnTimers(o TimerOwner) {
	c.eng.registerOwner(o)
}

// AtOwned schedules a timer: at absolute time t, o.OnTimer(kind, arg) runs.
// The pending timer is pure data — it serializes into snapshots and
// survives Restore with its exact queue position. o must have been
// registered via OwnTimers (agents are registered automatically).
// Scheduling in the past panics: it would silently reorder causality.
func (c *Context) AtOwned(t simtime.Time, o TimerOwner, kind uint8, arg int64) {
	if t < c.eng.now {
		panic(fmt.Sprintf("sim: AtOwned(%v) is in the past (now %v)", t, c.eng.now))
	}
	if o == nil {
		panic("sim: AtOwned with nil TimerOwner")
	}
	c.eng.queue.Push(t, event{kind: evTimer, work: c.eng.own(Call{Owner: o, Kind: kind, Arg: arg})})
}

// AfterOwned schedules a timer d from now (see AtOwned). Negative d panics.
func (c *Context) AfterOwned(d simtime.Duration, o TimerOwner, kind uint8, arg int64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: AfterOwned(%v) negative", d))
	}
	c.AtOwned(c.eng.now.Add(d), o, kind, arg)
}

// SeizeCPU requests exclusive use of rank's CPU for duration d, accounted
// under the given reason (e.g. "checkpoint", "recovery", "noise"). The
// seizure is non-preemptive: it begins once the currently running job (if
// any) completes, but takes precedence over all queued application work.
// done, if non-nil, is called with the completion time.
//
// This is the primitive behind checkpoint writes, recovery rework, and
// injected noise: the rank stops making application progress and the
// resulting delay reaches other ranks only through message dependencies.
func (c *Context) SeizeCPU(rank int, d simtime.Duration, reason string, done Call) {
	st := c.rank("SeizeCPU", rank)
	if d < 0 {
		panic(fmt.Sprintf("sim: SeizeCPU negative duration %v", d))
	}
	e := c.eng
	s := e.newSeize(seizeRec{reason: e.internReason(reason), done: e.own(done)})
	e.jobs.push(&st.seizeQ, job{kind: jobSeize, cost: d, arg: s})
	e.dispatch(rank)
}

// SeizeCPUDynamic requests exclusive use of rank's CPU for an open-ended
// duration: the seizure queues and dispatches exactly like SeizeCPU, but
// instead of a fixed cost, granted runs when the CPU is acquired, and the
// seizure lasts until ReleaseSeizure(rank) is called from a later event.
// This is the primitive behind shared-storage checkpoint writes, whose
// duration depends on how many other ranks are writing concurrently (see
// internal/storage).
//
// Accounting splits the occupancy at the nominal boundary: the first
// nominal of the seizure — what a contention-free writer would pay — is
// charged under reason, any excess under waitReason (e.g. "io-wait"). Trace
// consumers see up to two events, one per component. done runs at the
// completion time (the zero Call for none).
func (c *Context) SeizeCPUDynamic(rank int, nominal simtime.Duration, reason, waitReason string,
	granted, done Call) {
	st := c.rank("SeizeCPUDynamic", rank)
	if nominal < 0 {
		panic(fmt.Sprintf("sim: SeizeCPUDynamic negative nominal %v", nominal))
	}
	if granted.Owner == nil {
		panic("sim: SeizeCPUDynamic without a granted Call")
	}
	e := c.eng
	s := e.newSeize(seizeRec{reason: e.internReason(reason), waitReason: e.internReason(waitReason),
		granted: e.own(granted), done: e.own(done)})
	e.jobs.push(&st.seizeQ, job{kind: jobSeizeOpen, cost: nominal, arg: s})
	e.dispatch(rank)
}

// ReleaseSeizure ends the open-ended seizure (SeizeCPUDynamic) holding
// rank's CPU, at the current time. It is a no-op when no such seizure runs
// or it was already released.
func (c *Context) ReleaseSeizure(rank int) {
	st := c.rank("ReleaseSeizure", rank)
	if !st.running || st.runningJob.kind != jobSeizeOpen || st.releasing {
		return
	}
	st.releasing = true
	c.eng.queue.Push(c.eng.now, event{kind: evJobDone, id: int32(rank)})
}

// Phase markers the engine emits through Mark. Detail is the rank's gate
// depth after the change: 1 on close, 0 on release.
const (
	MarkHold        = "hold"         // HoldApp closed the gate
	MarkHoldRelease = "hold-release" // ReleaseHold reopened it
)

// Mark emits a TracePhase record on the trace channel (a no-op when no
// trace is attached). Agents and subsystems use it to expose protocol
// phases — coordination round boundaries, checkpoint write windows,
// storage drains — to trace consumers such as the conformance validator.
// name identifies the phase; detail carries a phase-specific payload.
func (c *Context) Mark(rank int, name string, detail int64) {
	c.rank("Mark", rank)
	if c.eng.cfg.Trace == nil {
		return
	}
	c.eng.emitTrace(TraceEvent{Type: TracePhase, Rank: rank, Name: name,
		Start: c.eng.now, End: c.eng.now, Op: goal.NoOp, Detail: detail})
}

// HoldApp closes rank's application gate: no new application job
// (compute, send, receive processing) is granted the CPU until
// ReleaseHold(rank). Control traffic and seizures still flow — this models
// a checkpoint daemon quiescing the application while the MPI progress
// engine keeps servicing protocol messages. A rank has at most one gate:
// closing a closed gate panics. Held time is accounted in Result.HeldTime
// under the given reason, measured from hold to release.
func (c *Context) HoldApp(rank int, reason string) {
	st := c.rank("HoldApp", rank)
	if st.held {
		panic(fmt.Sprintf("sim: HoldApp rank %d already held", rank))
	}
	c.eng.sideOf(rank).hold = hold{start: c.eng.now, reason: c.eng.internReason(reason)}
	st.held = true
	c.Mark(rank, MarkHold, 1)
}

// ReleaseHold reopens rank's application gate. It is a no-op when the gate
// is open.
func (c *Context) ReleaseHold(rank int) {
	st := c.rank("ReleaseHold", rank)
	if !st.held {
		return
	}
	st.held = false
	c.Mark(rank, MarkHoldRelease, 0)
	hd := c.eng.side[rank].hold
	c.eng.heldTime[hd.reason] += c.eng.now.Sub(hd.start)
	c.eng.heldCnt[hd.reason]++
	c.eng.dispatch(rank)
}

// ScaleCPU slows rank's CPU by the given factor (>= 1): every job granted
// until ReleaseScale(rank) costs factor× its nominal time, except service
// seizures (whose durations are absolute). This models background
// interference — copy-on-write faults and I/O from an asynchronous
// checkpoint write, a polluted cache, a co-scheduled daemon — as opposed to
// SeizeCPU's full interruptions. A rank has at most one factor: scaling a
// scaled rank panics. The extra time is accounted per rank in
// Result.RankScaledExtra.
func (c *Context) ScaleCPU(rank int, factor float64) {
	st := c.rank("ScaleCPU", rank)
	if !(factor >= 1) { // also rejects NaN
		panic(fmt.Sprintf("sim: ScaleCPU factor %v < 1", factor))
	}
	if st.scaled {
		panic(fmt.Sprintf("sim: ScaleCPU rank %d already scaled", rank))
	}
	c.eng.sideOf(rank).scale = factor
	st.scaled = true
}

// ReleaseScale removes rank's CPU factor. It is a no-op when the rank is
// not scaled.
func (c *Context) ReleaseScale(rank int) {
	c.rank("ReleaseScale", rank).scaled = false
}

// SendControl sends a protocol control message of the given size from src
// to dst. The message costs SendCPU(bytes) on the sender, traverses the
// network under the same LogGOPS parameters as application traffic, and
// costs RecvCPU(bytes) on the receiver before deliver runs (at the delivery
// completion time; the zero Call for none). Control messages contend with
// application work for both CPUs and the sender NIC — coordination is never
// free.
func (c *Context) SendControl(src, dst int, bytes int64, deliver Call) {
	st := c.rank("SendControl", src)
	c.rank("SendControl", dst)
	if src == dst {
		panic("sim: SendControl to self")
	}
	if bytes < 0 {
		panic("sim: SendControl negative size")
	}
	e := c.eng
	m := e.newMsg(message{kind: msgCtl, src: int32(src), dst: int32(dst), bytes: bytes,
		wire: bytes, deliver: e.own(deliver)})
	e.jobs.push(&st.ctlQ, job{kind: jobCtlSend, cost: e.net.SendCPU(bytes), arg: m})
	e.dispatch(src)
}

// OpsRemaining returns the number of application operations not yet
// completed. Agents may use it to stop periodic activity near the end.
func (c *Context) OpsRemaining() int { return c.eng.opsLeft }

// RankBusy returns the cumulative application CPU time rank has executed so
// far — its useful progress. Recovery models use deltas of this (progress
// since the last recovery line) as the rework a rollback discards; wall
// time would overcount by including checkpoint writes, coordination, and
// prior recoveries, which are not re-executed.
func (c *Context) RankBusy(rank int) simtime.Duration {
	return c.rank("RankBusy", rank).busy
}
