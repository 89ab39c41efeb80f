// Package validate implements a trace-conformance checker for the
// simulator: it consumes the widened sim.Config.Trace event stream and
// verifies, after (or during) every run, that the engine respected the
// invariants the study's conclusions rest on.
//
// The checks fall into four families:
//
//   - Causality. A message never arrives before its injection plus the
//     LogGOPS wire lower bound L + (s-1)·G; a receive never completes
//     before its matching message is available plus the receiver overhead
//     o + (s-1)·O; per-(src,dst) channels are non-overtaking; the event
//     stream never travels backwards in time.
//
//   - Resource exclusivity. Each rank's CPU runs one job at a time: every
//     grant is followed by completion segments that start exactly at the
//     grant and chain end-to-start, and a new grant never begins before
//     the previous occupancy ended. NIC injection windows on a rank are
//     serialized and exactly g + (s-1)·G wide.
//
//   - Conservation. Per-rank application, control, and seized CPU time
//     recomputed from the trace equal the engine's Result accounting
//     exactly; all occupancies lie inside [0, makespan] and the makespan
//     is attained; every injected message arrives (in-flight control
//     messages at exit excepted); messages are injected once each, numbered
//     1, 2, 3... in injection order; every application message is matched
//     to exactly one receive, no receive matches twice, and a rendezvous
//     payload readies only a receive its request matched; message counters
//     (app/ctl/rendezvous/matches) recomputed from the stream equal
//     Result.Metrics; storage bytes drained equal bytes begun (per-rank
//     FIFO pairing, in-flight writes at exit excepted).
//
//   - Protocol invariants. Coordinated rounds fully quiesce: between a
//     "hold" marker and its "hold-release" no application-class job is
//     granted on that rank, at a "round-commit" every member's gate is
//     closed and no application job is mid-flight (groups of ≥ 2 ranks),
//     and round markers follow the start → commit → end state machine.
//     Uncoordinated/hierarchical logging charges α + round(β·bytes) on
//     exactly the senders the policy taxes. CIC checkpoint indices are
//     strictly monotone per rank, every announced forced checkpoint
//     ("cic-force-due") completes before the rank's next
//     application-class grant (no unforced Z-cycle), and forced writes are
//     justified by a pending induction; protocol counters reconcile against
//     the marker stream. Replication mirrors every primary-to-primary
//     application send to exactly degree replicas and absorbs each
//     injected failure by at most one takeover ("rep-failure"/"rep-takeover"
//     pairing).
//
// A Checker is single-run state with one lifecycle: build one per
// simulation with New, hand it the run's store and agents with Watch, feed
// it every trace event (Hook adapts it to sim.Config.Trace), then call
// Finish with the run's Result, which checks the stream against the result
// and, if that passes, reconciles the store and the watched protocol's
// counters against the stream. Violations accumulate (capped) and are
// reported together by Err in the order found — streaming checks in stream
// order, end-of-run scans in rank and ID order — so replaying a stream
// reports the same violations.
//
// Memory follows the messages and receives in flight. A message's state
// (32 B) lives in a 1024-entry page from its injection until it settles —
// arrived, and matched or not matchable — and a page whose messages have
// all settled is reused for later IDs. A settled ID keeps one byte, its
// kind and whether it was matched: all that the duplicate-arrival,
// duplicate-match and non-matchable-match checks read. A receive keeps one
// bit per op (matched or not), and its availability time and payload only
// from readiness to completion; channels are kept for the (src, dst) pairs
// that carry traffic. The taxed and mirrored sends that Finish reconciles
// are summed at injection. Checking allocates nothing per message beyond
// the settled byte and the growth of its tables to the peak in flight.
package validate

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/failure"
	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/storage"
)

// maxViolations caps the violations retained; further ones only count.
const maxViolations = 20

// rankState is the per-rank streaming state.
type rankState struct {
	grantOpen bool // a grant has been seen (job granted at least once)
	running   bool // granted with no completion segment yet
	grantKind sim.TraceKind
	grantName string
	grantTime simtime.Time
	segEnd    simtime.Time // end of the last completion segment
	cpuEnd    simtime.Time // end of the last completed CPU occupancy
	nicEnd    simtime.Time // end of the last NIC injection window

	holdDepth int64

	// CIC streaming state: the rank's highest completed checkpoint index
	// and the highest forced-checkpoint index announced but not yet
	// completed (0 = none pending).
	cicIdx     int64
	cicPending int64

	app, ctl, seized simtime.Duration
	maxAppEnd        simtime.Time
	sawApp           bool

	// Coordinated-round state machine, keyed by root rank.
	roundPhase int // 0 idle, 1 started, 2 committed
	roundSize  int64

	// FIFO of in-flight shared-storage writes (bytes), begin-to-end.
	storeQ fifo
}

// Checker verifies trace conformance for one simulation run.
type Checker struct {
	net network.Params

	ranks []rankState
	// msgs holds the messages in flight by ID: the engine numbers
	// injections 1, 2, 3..., and nMsgs have been injected so far.
	msgs  msgTable
	nMsgs int64
	// seen has bit op set once an application message matched receive op;
	// ready holds a matched receive's availability from readiness to
	// completion, by OpID.
	seen  []uint64
	ready table[ready]
	// chanLast holds the latest arrival on each channel that carried one,
	// keyed src<<32 | dst.
	chanLast table[simtime.Time]
	clock    simtime.Time

	// Stream-derived counters, reconciled against Result.Metrics.
	nMatches, nApp, nCtl, nRndzv int64
	appBytes, ctlBytes           int64

	// Storage conservation counters.
	storeBegunBytes, storeEndedBytes int64
	storeBegun, storeEnded           int64

	// Replication/CIC reconciliation counters.
	takeoverPending        map[int]int // victim rank → unabsorbed failures
	nTakeovers             int64
	nCICWrites, nCICForced int64

	// The watched store and agents (Watch) and the application sends they
	// are reconciled against, summed at injection: the sends logger taxes,
	// and the primary-to-primary sends mirror duplicates (counted once
	// each).
	store                  *storage.Store
	cic                    *checkpoint.CIC
	logger                 taxedLogger
	logCfg                 checkpoint.LogParams
	logMsgs, logBytes      int64
	logPenalty             simtime.Duration
	mirror                 replicaMirror
	mirrorMsgs, mirrorSize int64

	violations []string
	dropped    int64
}

// New builds a checker for one run under the given network parameters.
func New(net network.Params) *Checker {
	return &Checker{net: net}
}

// Watch hands the checker the run's store (nil when it has none) and its
// agents before the run, so that the application sends the logging and
// replication reconciliations read are summed as they are injected, and
// Finish reconciles the store and the agents exposing a checkable surface.
// A run has one protocol, so the last agent exposing a surface is the one
// watched.
func (c *Checker) Watch(st *storage.Store, agents ...sim.Agent) {
	c.store = st
	for _, a := range agents {
		if tl, ok := a.(taxedLogger); ok {
			c.logger, c.logCfg = tl, tl.LogConfig()
		}
		if rm, ok := a.(replicaMirror); ok {
			c.mirror = rm
		}
		if ci, ok := a.(*checkpoint.CIC); ok {
			c.cic = ci
		}
	}
}

// Hook returns a sim.Config.Trace callback feeding the checker and then
// forwarding to next (which may be nil) — so validation can tee with an
// existing trace consumer such as the timeline collector.
func (c *Checker) Hook(next func(sim.TraceEvent)) func(sim.TraceEvent) {
	return func(ev sim.TraceEvent) {
		c.add(&ev)
		if next != nil {
			next(ev)
		}
	}
}

func (c *Checker) fail(format string, args ...any) {
	if len(c.violations) >= maxViolations {
		c.dropped++
		return
	}
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
}

// Err returns nil when no violation was recorded, or one error
// summarizing all of them.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	n := int64(len(c.violations)) + c.dropped
	var sb strings.Builder
	fmt.Fprintf(&sb, "validate: %d violation(s):", n)
	for _, v := range c.violations {
		sb.WriteString("\n  - ")
		sb.WriteString(v)
	}
	if c.dropped > 0 {
		fmt.Fprintf(&sb, "\n  ... %d more", c.dropped)
	}
	return fmt.Errorf("%s", sb.String())
}

// rank returns the state for a rank index, growing storage on demand.
func (c *Checker) rank(i int) *rankState {
	for len(c.ranks) <= i {
		c.ranks = append(c.ranks, rankState{})
	}
	return &c.ranks[i]
}

// grantLabel prints the kind the rank's last grant was for.
func (st *rankState) grantLabel() string {
	return sim.TraceEvent{Kind: st.grantKind, Name: st.grantName}.Label()
}

// injected reports whether an injection record named message id.
func (c *Checker) injected(id int64) bool { return id >= 1 && id <= c.nMsgs }

// settle retires message id once no later record needs its full state.
func (c *Checker) settle(id int64, m *msgState) {
	if m.settled() {
		c.msgs.retire(int(id-1), m)
	}
}

func (c *Checker) add(ev *sim.TraceEvent) {
	if ev.Rank < 0 {
		c.fail("event with negative rank %d", ev.Rank)
		return
	}
	// No time travel: instantaneous records (grants, arrivals, matches,
	// phase markers) are emitted at the engine's current time and must be
	// non-decreasing along the stream. NIC and injection windows may
	// legitimately start in the engine's future (busy NIC), but never in
	// its past. CPU occupancies are ordered by the per-rank grant-chaining
	// checks instead: a completed occupancy can end before the stream
	// clock (the lone-writer segment of a split open-ended seizure is
	// emitted at release time but ends at its nominal split).
	switch ev.Type {
	case sim.TraceGrant, sim.TraceArrive, sim.TraceMatch, sim.TracePhase:
		if ev.Start < c.clock {
			c.fail("time travel: event type %d on rank %d at %v after stream reached %v",
				ev.Type, ev.Rank, ev.Start, c.clock)
		} else {
			c.clock = ev.Start
		}
	case sim.TraceNIC, sim.TraceInject:
		if ev.Start < c.clock {
			c.fail("time travel: msg %d window starts %v before stream reached %v",
				ev.MsgID, ev.Start, c.clock)
		}
	case sim.TraceCPU:
		if ev.End > c.clock {
			c.clock = ev.End
		}
	}

	switch ev.Type {
	case sim.TraceCPU:
		c.addCPU(ev)
	case sim.TraceGrant:
		c.addGrant(ev)
	case sim.TraceNIC:
		c.addNIC(ev)
	case sim.TraceInject:
		c.addInject(ev)
	case sim.TraceArrive:
		c.addArrive(ev)
	case sim.TraceMatch:
		c.addMatch(ev)
	case sim.TracePhase:
		c.addPhase(ev)
	default:
		c.fail("unknown trace event type %d", ev.Type)
	}
}

func (c *Checker) addGrant(ev *sim.TraceEvent) {
	st := c.rank(ev.Rank)
	if st.running {
		c.fail("rank %d: grant of %q at %v while %q granted at %v has not completed",
			ev.Rank, ev.Label(), ev.Start, st.grantLabel(), st.grantTime)
	}
	if ev.Start < st.cpuEnd {
		c.fail("rank %d: grant of %q at %v overlaps occupancy ending %v",
			ev.Rank, ev.Label(), ev.Start, st.cpuEnd)
	}
	if ev.Kind.Class() == sim.ClassApp && st.holdDepth > 0 {
		c.fail("rank %d: quiesce violation: app job %q granted at %v with %d hold gate(s) closed",
			ev.Rank, ev.Label(), ev.Start, st.holdDepth)
	}
	if ev.Kind.Class() == sim.ClassApp && st.cicPending > 0 {
		c.fail("rank %d: unforced Z-cycle: app job %q granted at %v with forced checkpoint (index %d) still due",
			ev.Rank, ev.Label(), ev.Start, st.cicPending)
	}
	if ev.Detail != st.holdDepth {
		c.fail("rank %d: grant at %v reports hold depth %d, stream says %d",
			ev.Rank, ev.Start, ev.Detail, st.holdDepth)
	}
	st.grantOpen = true
	st.running = true
	st.grantKind, st.grantName = ev.Kind, ev.Name
	st.grantTime = ev.Start
}

func (c *Checker) addCPU(ev *sim.TraceEvent) {
	st := c.rank(ev.Rank)
	if ev.End < ev.Start {
		c.fail("rank %d: CPU event %q with End %v < Start %v", ev.Rank, ev.Label(), ev.End, ev.Start)
		return
	}
	if !st.grantOpen {
		c.fail("rank %d: CPU completion %q at %v without a grant", ev.Rank, ev.Label(), ev.End)
	} else if st.running {
		// First completion segment of the granted job.
		if ev.Start != st.grantTime {
			c.fail("rank %d: occupancy %q starts at %v, grant was at %v",
				ev.Rank, ev.Label(), ev.Start, st.grantTime)
		}
		if ev.Kind != st.grantKind || ev.Name != st.grantName {
			c.fail("rank %d: occupancy %q completes a grant for %q", ev.Rank, ev.Label(), st.grantLabel())
		}
		st.running = false
	} else {
		// Continuation segment (open-ended seizures split their occupancy
		// at the nominal boundary): must chain exactly.
		if ev.Start != st.segEnd {
			c.fail("rank %d: occupancy segment %q starts at %v, previous segment ended %v",
				ev.Rank, ev.Label(), ev.Start, st.segEnd)
		}
		if ev.Kind != sim.KindSeize || st.grantKind != sim.KindSeize {
			c.fail("rank %d: unexpected continuation segment %q after grant %q",
				ev.Rank, ev.Label(), st.grantLabel())
		}
	}
	st.segEnd = ev.End
	st.cpuEnd = ev.End
	d := ev.End.Sub(ev.Start)
	switch ev.Kind.Class() {
	case sim.ClassApp:
		st.app += d
		st.sawApp = true
		if ev.End > st.maxAppEnd {
			st.maxAppEnd = ev.End
		}
		if ev.Kind == sim.KindRecv && ev.Op != goal.NoOp {
			c.checkRecvDone(ev)
		}
	case sim.ClassCtl:
		st.ctl += d
	case sim.ClassSeized:
		st.seized += d
	default:
		c.fail("rank %d: CPU event with unknown kind %q", ev.Rank, ev.Label())
	}
}

// checkRecvDone verifies the receive-completion lower bound: the final
// processing starts no earlier than the message became available and lasts
// at least o + (s-1)·O.
func (c *Checker) checkRecvDone(ev *sim.TraceEvent) {
	i := -1
	if ev.Op >= 0 {
		i = c.ready.find(uint64(ev.Op))
	}
	if i < 0 {
		c.fail("rank %d: recv op %d completed at %v with no matched message",
			ev.Rank, ev.Op, ev.End)
		return
	}
	r := c.ready.slots[i].val
	c.ready.del(i)
	if ev.Start < r.at {
		c.fail("rank %d: recv op %d processing starts %v before its message was available at %v",
			ev.Rank, ev.Op, ev.Start, r.at)
	}
	if min := c.net.RecvCPU(r.bytes); ev.End.Sub(ev.Start) < min {
		c.fail("rank %d: recv op %d occupancy %v < RecvCPU(%d B) = %v",
			ev.Rank, ev.Op, ev.End.Sub(ev.Start), r.bytes, min)
	}
}

func (c *Checker) addNIC(ev *sim.TraceEvent) {
	st := c.rank(ev.Rank)
	if ev.Start < st.nicEnd {
		c.fail("rank %d: NIC window [%v,%v] overlaps previous window ending %v",
			ev.Rank, ev.Start, ev.End, st.nicEnd)
	}
	if want := ev.Start.Add(c.net.NIC(ev.Wire)); ev.End != want {
		c.fail("rank %d: NIC window for msg %d is [%v,%v], want width g+(s-1)G = %v",
			ev.Rank, ev.MsgID, ev.Start, ev.End, c.net.NIC(ev.Wire))
	}
	st.nicEnd = ev.End
}

func (c *Checker) addInject(ev *sim.TraceEvent) {
	next := c.nMsgs + 1
	if ev.MsgID >= 1 && ev.MsgID < next {
		c.fail("msg %d injected twice", ev.MsgID)
		return
	}
	if ev.MsgID != next {
		c.fail("msg %d injected out of sequence: the next message is %d", ev.MsgID, next)
		return
	}
	if ev.Src < 0 || ev.Dst < 0 || ev.Src > math.MaxInt32 || ev.Dst > math.MaxInt32 {
		c.fail("msg %d (%s %d->%d): endpoint is not a rank", ev.MsgID, ev.Label(), ev.Src, ev.Dst)
		return
	}
	if floor := ev.Start.Add(c.net.Wire(ev.Wire)); ev.End < floor {
		c.fail("msg %d (%s %d->%d): arrival %v beats wire lower bound %v (depart %v + L+(s-1)G)",
			ev.MsgID, ev.Label(), ev.Src, ev.Dst, ev.End, floor, ev.Start)
	}
	*c.msgs.add() = msgState{
		arriveAt: ev.End, bytes: ev.Bytes,
		src: int32(ev.Src), dst: int32(ev.Dst), kind: ev.Kind,
	}
	c.nMsgs++
	switch ev.Kind {
	case sim.KindEager, sim.KindData:
		c.nApp++
		c.appBytes += ev.Bytes
		if ev.Kind == sim.KindEager {
			c.sumSend(ev)
		}
	case sim.KindRTS:
		c.nRndzv++
		c.sumSend(ev)
	case sim.KindCtl, sim.KindCTS:
		c.nCtl++
		c.ctlBytes += ev.Wire
	default:
		c.fail("msg %d injected with unknown kind %q", ev.MsgID, ev.Label())
	}
}

// sumSend adds the application send ev injects to the sums of the watched
// logger and mirror.
func (c *Checker) sumSend(ev *sim.TraceEvent) {
	if c.logger != nil && c.logger.Taxed(ev.Src, ev.Dst) {
		c.logMsgs++
		c.logBytes += ev.Bytes
		c.logPenalty += c.logCfg.Alpha + simtime.Duration(math.Round(c.logCfg.BetaNsPerByte*float64(ev.Bytes)))
	}
	if c.mirror != nil {
		if app := c.mirror.AppRanks(); ev.Src < app && ev.Dst < app {
			c.mirrorMsgs++
			c.mirrorSize += ev.Bytes
		}
	}
}

func (c *Checker) addArrive(ev *sim.TraceEvent) {
	if !c.injected(ev.MsgID) {
		c.fail("msg %d arrived at %v without an injection record", ev.MsgID, ev.Start)
		return
	}
	m := c.msgs.live(int(ev.MsgID - 1))
	if m == nil || m.arrived {
		c.fail("msg %d arrived twice", ev.MsgID)
		return
	}
	m.arrived = true
	if ev.Start != m.arriveAt {
		c.fail("msg %d (%s %d->%d): arrived at %v, injection scheduled %v",
			ev.MsgID, m.kind, m.src, m.dst, ev.Start, m.arriveAt)
	}
	if ev.Rank != int(m.dst) {
		c.fail("msg %d (%s %d->%d): arrived on rank %d", ev.MsgID, m.kind, m.src, m.dst, ev.Rank)
	}
	c.rank(int(m.src)) // the sender counts among the ranks the trace names
	last, _ := c.chanLast.put(uint64(m.src)<<32 | uint64(m.dst))
	if ev.Start < *last {
		c.fail("channel %d->%d: overtaking: msg %d arrives %v after a %v arrival",
			m.src, m.dst, ev.MsgID, ev.Start, *last)
	}
	*last = ev.Start
	if m.kind == sim.KindData && c.validRecv(ev) {
		// Rendezvous payload: the receive can complete once the data is in.
		c.readyRecv(ev, m)
	}
	c.settle(ev.MsgID, m)
}

func (c *Checker) addMatch(ev *sim.TraceEvent) {
	c.nMatches++
	if !c.injected(ev.MsgID) {
		c.fail("match of unknown msg %d at %v", ev.MsgID, ev.Start)
		return
	}
	m := c.msgs.live(int(ev.MsgID - 1))
	if m == nil {
		c.matchRetired(ev)
		return
	}
	if !m.arrived {
		c.fail("msg %d matched at %v before arriving", ev.MsgID, ev.Start)
	}
	if m.matched {
		c.fail("msg %d matched twice", ev.MsgID)
		return
	}
	m.matched = true
	if !m.matchable() {
		c.fail("msg %d: match of non-matchable kind %q", ev.MsgID, m.kind)
	} else {
		if ev.Start < m.arriveAt {
			c.fail("msg %d matched at %v before its arrival %v", ev.MsgID, ev.Start, m.arriveAt)
		}
		if c.validRecv(ev) {
			if c.matchedRecv(ev.RecvOp) {
				c.fail("recv op %d matched a second message (msg %d)", ev.RecvOp, ev.MsgID)
			}
			if m.kind == sim.KindEager {
				c.readyRecv(ev, m)
			}
		}
	}
	c.settle(ev.MsgID, m)
}

// matchRetired checks a match of a message that has settled: it arrived,
// and it was matched already (every matchable one was) or is not
// matchable.
func (c *Checker) matchRetired(ev *sim.TraceEvent) {
	b := &c.msgs.retired[ev.MsgID-1]
	if *b&retiredMatched != 0 {
		c.fail("msg %d matched twice", ev.MsgID)
		return
	}
	*b |= retiredMatched
	c.fail("msg %d: match of non-matchable kind %q", ev.MsgID, sim.TraceKind(*b&retiredKind))
}

// validRecv reports whether ev names a valid receive op, flagging it when
// not.
func (c *Checker) validRecv(ev *sim.TraceEvent) bool {
	if ev.RecvOp < 0 {
		c.fail("msg %d names invalid recv op %d", ev.MsgID, ev.RecvOp)
		return false
	}
	return true
}

// matchedRecv marks receive op (a valid one) as matched by an application
// message and reports whether it already was.
func (c *Checker) matchedRecv(op goal.OpID) bool {
	w, bit := int(op>>6), uint64(1)<<(op&63)
	if w >= len(c.seen) {
		// Grow by at least 1024 ops' worth, doubling beyond.
		c.seen = append(c.seen, make([]uint64, max(w+1-len(c.seen), 16))...)
	}
	was := c.seen[w]&bit != 0
	c.seen[w] |= bit
	return was
}

// readyRecv records that the receive ev names (a valid op) can complete:
// message m, whose arrival or match ev is, became available at ev.Start.
// Only a matched receive can be readied.
func (c *Checker) readyRecv(ev *sim.TraceEvent, m *msgState) {
	op := ev.RecvOp
	if w := int(op >> 6); w >= len(c.seen) || c.seen[w]&(1<<(op&63)) == 0 {
		c.fail("recv op %d readied by %s msg %d, but no message matched it", ev.RecvOp, m.kind, ev.MsgID)
	}
	r, fresh := c.ready.put(uint64(op))
	if !fresh {
		c.fail("recv op %d readied twice (%s msg %d)", ev.RecvOp, m.kind, ev.MsgID)
	}
	*r = ready{at: ev.Start, bytes: m.bytes}
}

func (c *Checker) addPhase(ev *sim.TraceEvent) {
	st := c.rank(ev.Rank)
	switch ev.Name {
	case sim.MarkHold:
		st.holdDepth++
		if ev.Detail != st.holdDepth {
			c.fail("rank %d: hold at %v reports depth %d, stream says %d",
				ev.Rank, ev.Start, ev.Detail, st.holdDepth)
		}
	case sim.MarkHoldRelease:
		st.holdDepth--
		if st.holdDepth < 0 {
			c.fail("rank %d: hold-release at %v without a matching hold", ev.Rank, ev.Start)
			st.holdDepth = 0
		} else if ev.Detail != st.holdDepth {
			c.fail("rank %d: hold-release at %v reports depth %d, stream says %d",
				ev.Rank, ev.Start, ev.Detail, st.holdDepth)
		}
	case checkpoint.MarkRoundStart:
		if st.roundPhase != 0 {
			c.fail("root %d: round-start at %v inside an unfinished round (phase %d)",
				ev.Rank, ev.Start, st.roundPhase)
		}
		st.roundPhase = 1
		st.roundSize = ev.Detail
	case checkpoint.MarkRoundCommit:
		if st.roundPhase != 1 {
			c.fail("root %d: round-commit at %v out of order (phase %d)",
				ev.Rank, ev.Start, st.roundPhase)
		}
		st.roundPhase = 2
		c.checkCommitBarrier(ev.Rank, st.roundSize, ev.Start)
	case checkpoint.MarkRoundEnd:
		if st.roundPhase != 2 {
			c.fail("root %d: round-end at %v out of order (phase %d)",
				ev.Rank, ev.Start, st.roundPhase)
		}
		st.roundPhase = 0
	case checkpoint.MarkCICBasic, checkpoint.MarkCICForced:
		if ev.Detail <= st.cicIdx {
			c.fail("rank %d: checkpoint index not monotone: %s index %d at %v after index %d",
				ev.Rank, ev.Name, ev.Detail, ev.Start, st.cicIdx)
		}
		st.cicIdx = ev.Detail
		c.nCICWrites++
		if ev.Name == checkpoint.MarkCICForced {
			c.nCICForced++
			if st.cicPending == 0 {
				c.fail("rank %d: forced checkpoint (index %d) at %v without a pending induction",
					ev.Rank, ev.Detail, ev.Start)
			} else if ev.Detail >= st.cicPending {
				st.cicPending = 0
			}
		}
	case checkpoint.MarkCICForceDue:
		if ev.Detail <= st.cicIdx {
			c.fail("rank %d: forced checkpoint due for index %d at %v, but the rank's index is already %d",
				ev.Rank, ev.Detail, ev.Start, st.cicIdx)
		}
		if ev.Detail > st.cicPending {
			st.cicPending = ev.Detail
		}
	case failure.MarkRepFailure:
		if c.takeoverPending == nil {
			c.takeoverPending = make(map[int]int)
		}
		c.takeoverPending[int(ev.Detail)]++
	case checkpoint.MarkRepTakeover:
		c.nTakeovers++
		v := int(ev.Detail)
		if c.takeoverPending[v] == 0 {
			c.fail("rank %d: takeover of rank %d at %v without a pending failure (double takeover)",
				ev.Rank, v, ev.Start)
		} else {
			c.takeoverPending[v]--
		}
	case storage.MarkStoreBegin:
		st.storeQ.push(ev.Detail)
		c.storeBegun++
		c.storeBegunBytes += ev.Detail
	case storage.MarkStoreEnd:
		c.storeEnded++
		c.storeEndedBytes += ev.Detail
		oldest, ok := st.storeQ.front()
		if !ok {
			c.fail("rank %d: store-end of %d B at %v with no write in flight",
				ev.Rank, ev.Detail, ev.Start)
			return
		}
		if oldest != ev.Detail {
			c.fail("rank %d: store-end drained %d B, oldest in-flight write wrote %d B",
				ev.Rank, ev.Detail, oldest)
		}
		st.storeQ.pop()
	}
}

// checkCommitBarrier verifies the quiesce state at a coordinated round's
// commit: the round's members are the size contiguous ranks starting at
// the root (how both Coordinated and Hierarchical lay out their groups).
// Every member's gate must be closed, and — for groups of at least two
// ranks, where the commit necessarily postdates every member's ACK — no
// application job may be mid-flight on any member's CPU, so no
// application message can cross the barrier. (A single-rank group commits
// at its own tick, possibly mid-job; there is no barrier to cross.)
func (c *Checker) checkCommitBarrier(root int, size int64, at simtime.Time) {
	if size < 2 {
		return
	}
	for m := root; m < root+int(size); m++ {
		st := c.rank(m)
		if st.holdDepth <= 0 {
			c.fail("round(root %d): member %d gate open at commit (%v)", root, m, at)
		}
		if st.running && st.grantKind.Class() == sim.ClassApp {
			c.fail("round(root %d): member %d has app job %q (granted %v) in flight at commit (%v)",
				root, m, st.grantLabel(), st.grantTime, at)
		}
	}
}

// Finish runs the end-of-run checks against the engine's Result and, only
// if every check so far passed, reconciles what Watch recorded, stopping at
// the first step that fails: the store, then the logger, the mirror and
// the CIC protocol. It returns Err(). In-flight work the engine
// legitimately truncates when the last application op completes — a
// running control job, unreleased hold gates, an undrained storage write,
// an undelivered control message — is not flagged.
func (c *Checker) Finish(res *sim.Result) error {
	if res == nil {
		c.fail("Finish called with nil result")
		return c.Err()
	}
	n := len(res.RankBusy)
	if len(c.ranks) > n {
		c.fail("trace names rank %d, result has %d ranks", len(c.ranks)-1, n)
	}
	var maxApp simtime.Time
	sawApp := false
	for i := 0; i < n && i < len(c.ranks); i++ {
		st := &c.ranks[i]
		if st.app != res.RankBusy[i] {
			c.fail("rank %d: traced app time %v != RankBusy %v", i, st.app, res.RankBusy[i])
		}
		if st.ctl != res.RankCtlBusy[i] {
			c.fail("rank %d: traced ctl time %v != RankCtlBusy %v", i, st.ctl, res.RankCtlBusy[i])
		}
		if st.seized != res.RankSeized[i] {
			c.fail("rank %d: traced seized time %v != RankSeized %v", i, st.seized, res.RankSeized[i])
		}
		if st.cpuEnd > res.Makespan {
			c.fail("rank %d: occupancy ends %v after makespan %v", i, st.cpuEnd, res.Makespan)
		}
		if st.sawApp {
			sawApp = true
			if st.maxAppEnd != res.RankFinish[i] {
				c.fail("rank %d: last app occupancy ends %v, RankFinish is %v",
					i, st.maxAppEnd, res.RankFinish[i])
			}
			if st.maxAppEnd > maxApp {
				maxApp = st.maxAppEnd
			}
		}
	}
	if sawApp && maxApp != res.Makespan {
		c.fail("last app occupancy ends %v, makespan is %v", maxApp, res.Makespan)
	}
	// Only messages still in flight can fail these; settled ones are
	// arrived and matched or not matchable.
	for p, pg := range c.msgs.dir {
		if pg == nil {
			continue
		}
		for i := p << pageBits; i < min((p+1)<<pageBits, int(c.nMsgs)); i++ {
			if m := c.msgs.live(i); m != nil {
				c.checkUnsettled(int64(i+1), m)
			}
		}
	}
	var unfinished []uint64
	for _, e := range c.ready.slots {
		if e.key != 0 {
			unfinished = append(unfinished, e.key-1)
		}
	}
	slices.Sort(unfinished)
	for _, op := range unfinished {
		c.fail("recv op %d matched a message but never completed", op)
	}
	mt := res.Metrics
	if c.nApp != mt.AppMessages || c.appBytes != mt.AppBytes {
		c.fail("traced %d app msgs (%d B), metrics say %d (%d B)",
			c.nApp, c.appBytes, mt.AppMessages, mt.AppBytes)
	}
	if c.nCtl != mt.CtlMessages || c.ctlBytes != mt.CtlBytes {
		c.fail("traced %d ctl msgs (%d B), metrics say %d (%d B)",
			c.nCtl, c.ctlBytes, mt.CtlMessages, mt.CtlBytes)
	}
	if c.nRndzv != mt.Rendezvous {
		c.fail("traced %d rendezvous, metrics say %d", c.nRndzv, mt.Rendezvous)
	}
	if c.nMatches != mt.Matches {
		c.fail("traced %d matches, metrics say %d", c.nMatches, mt.Matches)
	}
	if len(c.violations) == 0 && c.store != nil {
		c.checkStorage()
	}
	if len(c.violations) == 0 && c.logger != nil {
		c.checkLogging()
	}
	if len(c.violations) == 0 && c.mirror != nil {
		c.checkReplication()
	}
	if len(c.violations) == 0 && c.cic != nil {
		c.checkCIC()
	}
	return c.Err()
}

// checkUnsettled flags message id, still in flight at the end of the run,
// unless the engine legitimately left it there: a control message may be
// undelivered at exit.
func (c *Checker) checkUnsettled(id int64, m *msgState) {
	if !m.arrived {
		if m.kind != sim.KindCtl {
			c.fail("msg %d (%s %d->%d) never arrived", id, m.kind, m.src, m.dst)
		}
		return
	}
	if m.matchable() && !m.matched {
		c.fail("orphan: msg %d (%s %d->%d) arrived but never matched", id, m.kind, m.src, m.dst)
	}
}

// checkStorage reconciles the watched store's counters against the trace:
// every byte the store reports drained must correspond to a traced
// store-begin/store-end pair (writes still in flight at exit excepted).
func (c *Checker) checkStorage() {
	ss := c.store.Stats()
	if ss.Writes != c.storeEnded {
		c.fail("store reports %d completed writes, trace saw %d", ss.Writes, c.storeEnded)
	}
	if ss.Bytes != c.storeEndedBytes {
		c.fail("store reports %d B drained, trace saw %d B", ss.Bytes, c.storeEndedBytes)
	}
}

// taxedLogger is the introspection surface of a logging protocol
// (Uncoordinated, Hierarchical): its accumulated stats, its logging
// parameters, and its taxing policy.
type taxedLogger interface {
	Stats() checkpoint.Stats
	LogConfig() checkpoint.LogParams
	Taxed(src, dst int) bool
}

// checkLogging requires the watched logger's accumulated counters to equal
// the sender-based logging charge recomputed from the traced application
// sends: α + round(β·bytes) on exactly the sends the policy taxes, summed
// as they were injected.
func (c *Checker) checkLogging() {
	st := c.logger.Stats()
	if st.LoggedMessages != c.logMsgs {
		c.fail("logging: protocol charged %d messages, trace says %d taxed sends",
			st.LoggedMessages, c.logMsgs)
	}
	if st.LoggedBytes != c.logBytes {
		c.fail("logging: protocol logged %d B, trace says %d B", st.LoggedBytes, c.logBytes)
	}
	if st.LogPenalty != c.logPenalty {
		c.fail("logging: protocol charged %v CPU, α+β·bytes over taxed sends is %v",
			st.LogPenalty, c.logPenalty)
	}
}

// replicaMirror is the introspection surface of a replication protocol: its
// accumulated stats, replica degree, and primary/replica split.
type replicaMirror interface {
	Stats() checkpoint.Stats
	Degree() int
	AppRanks() int
}

// checkReplication requires the watched mirror's counters to equal the
// replica-pair mirroring recomputed from the traced application sends —
// every primary→primary send duplicated to exactly Degree replicas — and
// checks takeover exclusivity: the protocol's absorbed-takeover count must
// equal the traced "rep-takeover" markers (each of which the streaming
// check already paired against a distinct "rep-failure").
func (c *Checker) checkReplication() {
	d := int64(c.mirror.Degree())
	nMsgs, nBytes := d*c.mirrorMsgs, d*c.mirrorSize
	st := c.mirror.Stats()
	if st.MirroredMessages != nMsgs {
		c.fail("replication: protocol mirrored %d messages, trace requires %d (degree %d over primary sends)",
			st.MirroredMessages, nMsgs, d)
	}
	if st.MirroredBytes != nBytes {
		c.fail("replication: protocol mirrored %d B, trace requires %d B", st.MirroredBytes, nBytes)
	}
	if st.Takeovers != c.nTakeovers {
		c.fail("replication: protocol absorbed %d takeovers, trace shows %d", st.Takeovers, c.nTakeovers)
	}
}

// checkCIC reconciles the watched CIC protocol's checkpoint counters
// against the marker stream: completed writes against
// "cic-basic"/"cic-forced" markers and forced writes against "cic-forced"
// alone (both are emitted at write completion, so in-flight writes at exit
// cancel exactly). The streaming checks already enforced index
// monotonicity and forced-checkpoint justification per rank.
func (c *Checker) checkCIC() {
	st := c.cic.Stats()
	if st.Writes != c.nCICWrites {
		c.fail("cic: protocol wrote %d checkpoints, trace shows %d markers", st.Writes, c.nCICWrites)
	}
	if st.Forced != c.nCICForced {
		c.fail("cic: protocol forced %d checkpoints, trace shows %d markers", st.Forced, c.nCICForced)
	}
}
