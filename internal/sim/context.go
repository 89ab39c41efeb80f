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

// Rand returns the simulation's deterministic random source. Agents must
// draw from it only inside event callbacks (Init, timers, deliveries), where
// the total event order makes consumption deterministic.
func (c *Context) Rand() *rng.Source { return c.eng.rand }

// OwnTimers registers o as a timer owner under a stable string key, so that
// it can own timers and Calls. Agents are registered automatically at New
// under "agent:<index>"; subsystems that are not agents (the shared storage
// arbiter) register themselves when they bind to the simulation.
// Registration is idempotent for the same (key, owner) pair; reusing a key
// for a different owner panics — keys are the identity snapshots check.
func (c *Context) OwnTimers(key string, o TimerOwner) {
	c.eng.registerOwner(key, o)
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
	if rank < 0 || rank >= len(c.eng.ranks) {
		panic(fmt.Sprintf("sim: SeizeCPU rank %d out of range", rank))
	}
	if d < 0 {
		panic(fmt.Sprintf("sim: SeizeCPU negative duration %v", d))
	}
	e := c.eng
	s := e.newSeize(seizeRec{reason: e.internReason(reason), done: e.own(done)})
	e.jobs.push(&e.ranks[rank].seizeQ, job{kind: jobSeize, cost: d, arg: s})
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
	if rank < 0 || rank >= len(c.eng.ranks) {
		panic(fmt.Sprintf("sim: SeizeCPUDynamic rank %d out of range", rank))
	}
	if nominal < 0 {
		panic(fmt.Sprintf("sim: SeizeCPUDynamic negative nominal %v", nominal))
	}
	if granted.Owner == nil {
		panic("sim: SeizeCPUDynamic without a granted Call")
	}
	e := c.eng
	s := e.newSeize(seizeRec{reason: e.internReason(reason), waitReason: e.internReason(waitReason),
		granted: e.own(granted), done: e.own(done)})
	e.jobs.push(&e.ranks[rank].seizeQ, job{kind: jobSeizeOpen, cost: nominal, arg: s})
	e.dispatch(rank)
}

// ReleaseSeizure ends the open-ended seizure (SeizeCPUDynamic) holding
// rank's CPU, at the current time. It is a no-op when no such seizure runs
// or it was already released.
func (c *Context) ReleaseSeizure(rank int) {
	if rank < 0 || rank >= len(c.eng.ranks) {
		panic(fmt.Sprintf("sim: ReleaseSeizure rank %d out of range", rank))
	}
	st := &c.eng.ranks[rank]
	if !st.running || st.runningJob.kind != jobSeizeOpen || st.releasing {
		return
	}
	st.releasing = true
	c.eng.queue.Push(c.eng.now, event{kind: evJobDone, id: int32(rank)})
}

// Phase markers the engine emits through Mark. Detail is the rank's gate
// depth after the change.
const (
	MarkHold        = "hold"         // HoldApp closed a gate
	MarkHoldRelease = "hold-release" // Release reopened one
)

// Mark emits a TracePhase record on the trace channel (a no-op when no
// trace is attached). Agents and subsystems use it to expose protocol
// phases — coordination round boundaries, checkpoint write windows,
// storage drains — to trace consumers such as the conformance validator.
// name identifies the phase; detail carries a phase-specific payload.
func (c *Context) Mark(rank int, name string, detail int64) {
	if c.eng.cfg.Trace == nil {
		return
	}
	c.eng.emitTrace(TraceEvent{Type: TracePhase, Rank: rank, Name: name,
		Start: c.eng.now, End: c.eng.now, Op: goal.NoOp, Detail: detail})
}

// Handle names one open HoldApp gate or ScaleCPU factor. It is plain data
// — agents keep it in their state and serialize it as an int64 — and is
// handed back with Context.Release. The zero Handle names nothing.
type Handle int64

// handle packs (rank, slot, kind) so that the zero Handle is never issued.
func handle(rank, slot int, scale bool) Handle {
	h := Handle(rank)<<32 | Handle(slot+1)<<1
	if scale {
		h |= 1
	}
	return h
}

// HoldApp closes a gate on rank's application progress: no new application
// job (compute, send, receive processing) is granted the CPU until the
// returned Handle is released. Control traffic and seizures still flow —
// this models a checkpoint daemon quiescing the application while the MPI
// progress engine keeps servicing protocol messages. Holds nest. Held time
// is accounted in Result.HeldTime under the given reason, measured from
// hold to release.
func (c *Context) HoldApp(rank int, reason string) Handle {
	if rank < 0 || rank >= len(c.eng.ranks) {
		panic(fmt.Sprintf("sim: HoldApp rank %d out of range", rank))
	}
	sd := c.eng.sideOf(rank)
	sd.holds = append(sd.holds, hold{start: c.eng.now, reason: c.eng.internReason(reason), open: true})
	st := &c.eng.ranks[rank]
	st.held++
	c.Mark(rank, MarkHold, int64(st.held))
	return handle(rank, len(sd.holds)-1, false)
}

// ScaleCPU slows rank's CPU by the given factor (> 1): every job granted
// while the scale is active costs factor× its nominal time, except service
// seizures (whose durations are absolute). This models background
// interference — copy-on-write faults and I/O from an asynchronous
// checkpoint write, a polluted cache, a co-scheduled daemon — as opposed to
// SeizeCPU's full interruptions. Scales nest multiplicatively; releasing
// the returned Handle removes this contribution. The extra time is
// accounted per rank in Result.RankScaledExtra.
func (c *Context) ScaleCPU(rank int, factor float64) Handle {
	if rank < 0 || rank >= len(c.eng.ranks) {
		panic(fmt.Sprintf("sim: ScaleCPU rank %d out of range", rank))
	}
	if !(factor >= 1) { // also rejects NaN
		panic(fmt.Sprintf("sim: ScaleCPU factor %v < 1", factor))
	}
	sd := c.eng.sideOf(rank)
	sd.scales = append(sd.scales, factor)
	c.eng.ranks[rank].scaled = true
	return handle(rank, len(sd.scales)-1, true)
}

// Release reopens the HoldApp gate or removes the ScaleCPU factor h names.
// Releasing the zero Handle, or one already released, is a no-op; a Handle
// must not be released after a later HoldApp/ScaleCPU on the same rank
// could have reused its slot, so owners zero their copy on release.
func (c *Context) Release(h Handle) {
	rank, slot := int(h>>32), int(uint32(h)>>1)-1
	if rank < 0 || rank >= len(c.eng.side) || slot < 0 {
		return // no Handle was issued before the side data exists
	}
	sd, st := &c.eng.side[rank], &c.eng.ranks[rank]
	if h&1 == 1 {
		if slot >= len(sd.scales) {
			return
		}
		// Neutralize rather than delete: later handles hold later slots.
		// Compact fully-neutral tails so long runs don't accumulate slots.
		sd.scales[slot] = 1
		for len(sd.scales) > 0 && sd.scales[len(sd.scales)-1] == 1 {
			sd.scales = sd.scales[:len(sd.scales)-1]
		}
		st.scaled = len(sd.scales) > 0
		return
	}
	if slot >= len(sd.holds) || !sd.holds[slot].open {
		return
	}
	hd := sd.holds[slot]
	sd.holds[slot].open = false
	for len(sd.holds) > 0 && !sd.holds[len(sd.holds)-1].open {
		sd.holds = sd.holds[:len(sd.holds)-1]
	}
	st.held--
	c.Mark(rank, MarkHoldRelease, int64(st.held))
	c.eng.heldTime[hd.reason] += c.eng.now.Sub(hd.start)
	c.eng.heldCnt[hd.reason]++
	c.eng.dispatch(rank)
}

// SendControl sends a protocol control message of the given size from src
// to dst. The message costs SendCPU(bytes) on the sender, traverses the
// network under the same LogGOPS parameters as application traffic, and
// costs RecvCPU(bytes) on the receiver before deliver runs (at the delivery
// completion time; the zero Call for none). Control messages contend with
// application work for both CPUs and the sender NIC — coordination is never
// free.
func (c *Context) SendControl(src, dst int, bytes int64, deliver Call) {
	n := len(c.eng.ranks)
	if src < 0 || src >= n || dst < 0 || dst >= n {
		panic(fmt.Sprintf("sim: SendControl %d->%d out of range", src, dst))
	}
	if src == dst {
		panic("sim: SendControl to self")
	}
	if bytes < 0 {
		panic("sim: SendControl negative size")
	}
	e := c.eng
	m := e.newMsg(message{kind: msgCtl, src: int32(src), dst: int32(dst), bytes: bytes,
		wire: bytes, deliver: e.own(deliver)})
	e.jobs.push(&e.ranks[src].ctlQ, job{kind: jobCtlSend, cost: e.net.SendCPU(bytes), arg: m})
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
	return c.eng.ranks[rank].busy
}
