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
//     exactly the senders the policy taxes (CheckLogging). CIC checkpoint
//     indices are strictly monotone per rank, every announced forced
//     checkpoint ("cic-force-due") completes before the rank's next
//     application-class grant (no unforced Z-cycle), and forced writes are
//     justified by a pending induction; protocol counters reconcile against
//     the marker stream (CheckCIC). Replication mirrors every
//     primary-to-primary application send to exactly degree replicas and
//     absorbs each injected failure by at most one takeover
//     ("rep-failure"/"rep-takeover" pairing; CheckReplication).
//
// A Checker is single-run state: build one per simulation with New, feed
// it every trace event (Hook adapts it to sim.Config.Trace), then call
// Finish with the run's Result. Violations accumulate (capped) and are
// reported together by Err in the order found — streaming checks in
// stream order, end-of-run scans in rank and ID order — so replaying a
// stream reports the same violations.
//
// The state is dense, indexed by the IDs the engine hands out: messages
// by MsgID and receives by OpID in paged tables, channels in a per-sender
// slice by destination. Checking allocates no memory per message beyond
// one page per 1024 messages or ops.
package validate

import (
	"fmt"
	"math"
	"strings"

	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/storage"
)

// maxViolations caps the violations retained; further ones only count.
const maxViolations = 20

// msgKind is a message kind, resolved from its trace label once at
// injection.
type msgKind uint8

const (
	kindOther msgKind = iota // a label the engine never emits
	kindEager
	kindRTS
	kindCTS
	kindData
	kindCtl
)

// kindNames holds the engine's label for each known kind.
var kindNames = [...]string{kindEager: "eager", kindRTS: "rts", kindCTS: "cts", kindData: "data", kindCtl: "ctl"}

// parseKind resolves an injection's trace label.
func parseKind(label string) msgKind {
	switch label {
	case "eager":
		return kindEager
	case "rts":
		return kindRTS
	case "cts":
		return kindCTS
	case "data":
		return kindData
	case "ctl":
		return kindCtl
	}
	return kindOther
}

// msgState tracks one wire traversal from injection to match.
type msgState struct {
	arriveAt simtime.Time // scheduled arrival (TraceInject.End)
	bytes    int64
	src, dst int32
	kind     msgKind
	arrived  bool
	matched  bool
}

// matchable reports whether m is an application send — an eager message
// or a rendezvous request — which a receive must match.
func (m *msgState) matchable() bool { return m.kind == kindEager || m.kind == kindRTS }

// recvState is one receive op's matching state.
type recvState struct {
	at    simtime.Time // when the matched message became available
	bytes int64        // its payload
	ready bool         // available and not yet completed
	seen  bool         // an application message matched this receive
}

// pageBits sizes the pages of the checker's ID-indexed tables: 1024
// entries each.
const pageBits = 10

// paged is a table indexed by dense non-negative IDs. A page is allocated
// the first time one of its IDs is touched, so growing the table copies
// only the page directory, never the entries.
type paged[T any] struct {
	dir []*[1 << pageBits]T
}

// at returns entry i (i >= 0), allocating its page on first touch.
func (t *paged[T]) at(i int) *T {
	p := i >> pageBits
	for len(t.dir) <= p {
		t.dir = append(t.dir, nil)
	}
	if t.dir[p] == nil {
		t.dir[p] = new([1 << pageBits]T)
	}
	return &t.dir[p][i&(1<<pageBits-1)]
}

// get returns entry i, or nil when its page was never touched.
func (t *paged[T]) get(i int) *T {
	p := i >> pageBits
	if i < 0 || p >= len(t.dir) || t.dir[p] == nil {
		return nil
	}
	return &t.dir[p][i&(1<<pageBits-1)]
}

// rankState is the per-rank streaming state.
type rankState struct {
	grantOpen bool // a grant has been seen (job granted at least once)
	running   bool // granted with no completion segment yet
	grantKind string
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
	storeQ []int64

	// chanLast[dst] is the latest arrival on the channel from this rank
	// to dst.
	chanLast []simtime.Time
}

// Checker verifies trace conformance for one simulation run.
type Checker struct {
	net network.Params

	ranks []rankState
	// msgs holds message id at entry id-1: the engine numbers injections
	// 1, 2, 3..., and nMsgs have been injected so far.
	msgs  paged[msgState]
	nMsgs int64
	// otherKinds keeps the label of each message injected with an unknown
	// kind, for violation texts.
	otherKinds map[int64]string
	recvs      paged[recvState] // by OpID
	clock      simtime.Time

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

	violations []string
	dropped    int64
}

// New builds a checker for one run under the given network parameters.
func New(net network.Params) *Checker {
	return &Checker{net: net}
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

// Violations returns the retained violation messages.
func (c *Checker) Violations() []string { return c.violations }

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

// class buckets a CPU-event kind.
func class(kind string) string {
	switch {
	case kind == "calc" || kind == "send" || kind == "recv":
		return "app"
	case kind == "ctl":
		return "ctl"
	case strings.HasPrefix(kind, "seize:"):
		return "seized"
	}
	return "other"
}

// Add consumes one trace event (in emission order — pass events in the
// exact sequence the engine produced them).
func (c *Checker) Add(ev sim.TraceEvent) { c.add(&ev) }

// msg returns the state of message id, or nil when no injection record
// named it.
func (c *Checker) msg(id int64) *msgState {
	if id < 1 || id > c.nMsgs {
		return nil
	}
	return c.msgs.get(int(id - 1))
}

// kindName is the trace label message id was injected with.
func (c *Checker) kindName(id int64, m *msgState) string {
	if m.kind == kindOther {
		return c.otherKinds[id]
	}
	return kindNames[m.kind]
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
			ev.Rank, ev.Kind, ev.Start, st.grantKind, st.grantTime)
	}
	if ev.Start < st.cpuEnd {
		c.fail("rank %d: grant of %q at %v overlaps occupancy ending %v",
			ev.Rank, ev.Kind, ev.Start, st.cpuEnd)
	}
	if class(ev.Kind) == "app" && st.holdDepth > 0 {
		c.fail("rank %d: quiesce violation: app job %q granted at %v with %d hold gate(s) closed",
			ev.Rank, ev.Kind, ev.Start, st.holdDepth)
	}
	if class(ev.Kind) == "app" && st.cicPending > 0 {
		c.fail("rank %d: unforced Z-cycle: app job %q granted at %v with forced checkpoint (index %d) still due",
			ev.Rank, ev.Kind, ev.Start, st.cicPending)
	}
	if ev.Detail != st.holdDepth {
		c.fail("rank %d: grant at %v reports hold depth %d, stream says %d",
			ev.Rank, ev.Start, ev.Detail, st.holdDepth)
	}
	st.grantOpen = true
	st.running = true
	st.grantKind = ev.Kind
	st.grantTime = ev.Start
}

func (c *Checker) addCPU(ev *sim.TraceEvent) {
	st := c.rank(ev.Rank)
	if ev.End < ev.Start {
		c.fail("rank %d: CPU event %q with End %v < Start %v", ev.Rank, ev.Kind, ev.End, ev.Start)
		return
	}
	if !st.grantOpen {
		c.fail("rank %d: CPU completion %q at %v without a grant", ev.Rank, ev.Kind, ev.End)
	} else if st.running {
		// First completion segment of the granted job.
		if ev.Start != st.grantTime {
			c.fail("rank %d: occupancy %q starts at %v, grant was at %v",
				ev.Rank, ev.Kind, ev.Start, st.grantTime)
		}
		if ev.Kind != st.grantKind {
			c.fail("rank %d: occupancy %q completes a grant for %q", ev.Rank, ev.Kind, st.grantKind)
		}
		st.running = false
	} else {
		// Continuation segment (open-ended seizures split their occupancy
		// at the nominal boundary): must chain exactly.
		if ev.Start != st.segEnd {
			c.fail("rank %d: occupancy segment %q starts at %v, previous segment ended %v",
				ev.Rank, ev.Kind, ev.Start, st.segEnd)
		}
		if !strings.HasPrefix(ev.Kind, "seize:") || !strings.HasPrefix(st.grantKind, "seize:") {
			c.fail("rank %d: unexpected continuation segment %q after grant %q",
				ev.Rank, ev.Kind, st.grantKind)
		}
	}
	st.segEnd = ev.End
	st.cpuEnd = ev.End
	d := ev.End.Sub(ev.Start)
	switch class(ev.Kind) {
	case "app":
		st.app += d
		st.sawApp = true
		if ev.End > st.maxAppEnd {
			st.maxAppEnd = ev.End
		}
		if ev.Kind == "recv" && ev.Op != goal.NoOp {
			c.checkRecvDone(ev)
		}
	case "ctl":
		st.ctl += d
	case "seized":
		st.seized += d
	default:
		c.fail("rank %d: CPU event with unknown kind %q", ev.Rank, ev.Kind)
	}
}

// checkRecvDone verifies the receive-completion lower bound: the final
// processing starts no earlier than the message became available and lasts
// at least o + (s-1)·O.
func (c *Checker) checkRecvDone(ev *sim.TraceEvent) {
	r := c.recvs.get(int(ev.Op))
	if r == nil || !r.ready {
		c.fail("rank %d: recv op %d completed at %v with no matched message",
			ev.Rank, ev.Op, ev.End)
		return
	}
	r.ready = false
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
		c.fail("msg %d (%s %d->%d): endpoint is not a rank", ev.MsgID, ev.Kind, ev.Src, ev.Dst)
		return
	}
	if floor := ev.Start.Add(c.net.Wire(ev.Wire)); ev.End < floor {
		c.fail("msg %d (%s %d->%d): arrival %v beats wire lower bound %v (depart %v + L+(s-1)G)",
			ev.MsgID, ev.Kind, ev.Src, ev.Dst, ev.End, floor, ev.Start)
	}
	kind := parseKind(ev.Kind)
	*c.msgs.at(int(c.nMsgs)) = msgState{
		arriveAt: ev.End, bytes: ev.Bytes,
		src: int32(ev.Src), dst: int32(ev.Dst), kind: kind,
	}
	c.nMsgs++
	switch kind {
	case kindEager:
		c.nApp++
		c.appBytes += ev.Bytes
	case kindData:
		c.nApp++
		c.appBytes += ev.Bytes
	case kindRTS:
		c.nRndzv++
	case kindCtl, kindCTS:
		c.nCtl++
		c.ctlBytes += ev.Wire
	default:
		if c.otherKinds == nil {
			c.otherKinds = make(map[int64]string)
		}
		c.otherKinds[ev.MsgID] = ev.Kind
		c.fail("msg %d injected with unknown kind %q", ev.MsgID, ev.Kind)
	}
}

func (c *Checker) addArrive(ev *sim.TraceEvent) {
	m := c.msg(ev.MsgID)
	if m == nil {
		c.fail("msg %d arrived at %v without an injection record", ev.MsgID, ev.Start)
		return
	}
	if m.arrived {
		c.fail("msg %d arrived twice", ev.MsgID)
		return
	}
	m.arrived = true
	if ev.Start != m.arriveAt {
		c.fail("msg %d (%s %d->%d): arrived at %v, injection scheduled %v",
			ev.MsgID, c.kindName(ev.MsgID, m), m.src, m.dst, ev.Start, m.arriveAt)
	}
	if ev.Rank != int(m.dst) {
		c.fail("msg %d (%s %d->%d): arrived on rank %d", ev.MsgID, c.kindName(ev.MsgID, m), m.src, m.dst, ev.Rank)
	}
	sender := c.rank(int(m.src))
	if d := int(m.dst); d >= len(sender.chanLast) {
		n := max(d+1, len(c.ranks))
		sender.chanLast = append(sender.chanLast, make([]simtime.Time, n-len(sender.chanLast))...)
	}
	if last := sender.chanLast[m.dst]; ev.Start < last {
		c.fail("channel %d->%d: overtaking: msg %d arrives %v after a %v arrival",
			m.src, m.dst, ev.MsgID, ev.Start, last)
	}
	sender.chanLast[m.dst] = ev.Start
	if m.kind == kindData {
		// Rendezvous payload: the receive can complete once the data is in.
		if r := c.recvOf(ev); r != nil {
			c.readyRecv(ev, m, r)
		}
	}
}

func (c *Checker) addMatch(ev *sim.TraceEvent) {
	c.nMatches++
	m := c.msg(ev.MsgID)
	if m == nil {
		c.fail("match of unknown msg %d at %v", ev.MsgID, ev.Start)
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
		c.fail("msg %d: match of non-matchable kind %q", ev.MsgID, c.kindName(ev.MsgID, m))
		return
	}
	if ev.Start < m.arriveAt {
		c.fail("msg %d matched at %v before its arrival %v", ev.MsgID, ev.Start, m.arriveAt)
	}
	r := c.recvOf(ev)
	if r == nil {
		return
	}
	if r.seen {
		c.fail("recv op %d matched a second message (msg %d)", ev.RecvOp, ev.MsgID)
	}
	r.seen = true
	if m.kind == kindEager {
		c.readyRecv(ev, m, r)
	}
}

// recvOf returns the state of the receive ev names, or nil (flagged) when
// ev names no valid op.
func (c *Checker) recvOf(ev *sim.TraceEvent) *recvState {
	if ev.RecvOp < 0 {
		c.fail("msg %d names invalid recv op %d", ev.MsgID, ev.RecvOp)
		return nil
	}
	return c.recvs.at(int(ev.RecvOp))
}

// readyRecv records that receive r, the one ev names, can complete:
// message m, whose arrival or match ev is, became available at ev.Start.
// Only a matched receive can be readied.
func (c *Checker) readyRecv(ev *sim.TraceEvent, m *msgState, r *recvState) {
	if !r.seen {
		c.fail("recv op %d readied by %s msg %d, but no message matched it", ev.RecvOp, kindNames[m.kind], ev.MsgID)
	}
	if r.ready {
		c.fail("recv op %d readied twice (%s msg %d)", ev.RecvOp, kindNames[m.kind], ev.MsgID)
	}
	r.at, r.bytes, r.ready = ev.Start, m.bytes, true
}

func (c *Checker) addPhase(ev *sim.TraceEvent) {
	st := c.rank(ev.Rank)
	switch ev.Kind {
	case "hold":
		st.holdDepth++
		if ev.Detail != st.holdDepth {
			c.fail("rank %d: hold at %v reports depth %d, stream says %d",
				ev.Rank, ev.Start, ev.Detail, st.holdDepth)
		}
	case "hold-release":
		st.holdDepth--
		if st.holdDepth < 0 {
			c.fail("rank %d: hold-release at %v without a matching hold", ev.Rank, ev.Start)
			st.holdDepth = 0
		} else if ev.Detail != st.holdDepth {
			c.fail("rank %d: hold-release at %v reports depth %d, stream says %d",
				ev.Rank, ev.Start, ev.Detail, st.holdDepth)
		}
	case "round-start":
		if st.roundPhase != 0 {
			c.fail("root %d: round-start at %v inside an unfinished round (phase %d)",
				ev.Rank, ev.Start, st.roundPhase)
		}
		st.roundPhase = 1
		st.roundSize = ev.Detail
	case "round-commit":
		if st.roundPhase != 1 {
			c.fail("root %d: round-commit at %v out of order (phase %d)",
				ev.Rank, ev.Start, st.roundPhase)
		}
		st.roundPhase = 2
		c.checkCommitBarrier(ev.Rank, st.roundSize, ev.Start)
	case "round-end":
		if st.roundPhase != 2 {
			c.fail("root %d: round-end at %v out of order (phase %d)",
				ev.Rank, ev.Start, st.roundPhase)
		}
		st.roundPhase = 0
	case "cic-basic", "cic-forced":
		if ev.Detail <= st.cicIdx {
			c.fail("rank %d: checkpoint index not monotone: %s index %d at %v after index %d",
				ev.Rank, ev.Kind, ev.Detail, ev.Start, st.cicIdx)
		}
		st.cicIdx = ev.Detail
		c.nCICWrites++
		if ev.Kind == "cic-forced" {
			c.nCICForced++
			if st.cicPending == 0 {
				c.fail("rank %d: forced checkpoint (index %d) at %v without a pending induction",
					ev.Rank, ev.Detail, ev.Start)
			} else if ev.Detail >= st.cicPending {
				st.cicPending = 0
			}
		}
	case "cic-force-due":
		if ev.Detail <= st.cicIdx {
			c.fail("rank %d: forced checkpoint due for index %d at %v, but the rank's index is already %d",
				ev.Rank, ev.Detail, ev.Start, st.cicIdx)
		}
		if ev.Detail > st.cicPending {
			st.cicPending = ev.Detail
		}
	case "rep-failure":
		if c.takeoverPending == nil {
			c.takeoverPending = make(map[int]int)
		}
		c.takeoverPending[int(ev.Detail)]++
	case "rep-takeover":
		c.nTakeovers++
		v := int(ev.Detail)
		if c.takeoverPending[v] == 0 {
			c.fail("rank %d: takeover of rank %d at %v without a pending failure (double takeover)",
				ev.Rank, v, ev.Start)
		} else {
			c.takeoverPending[v]--
		}
	case "store-begin":
		st.storeQ = append(st.storeQ, ev.Detail)
		c.storeBegun++
		c.storeBegunBytes += ev.Detail
	case "store-end":
		c.storeEnded++
		c.storeEndedBytes += ev.Detail
		if len(st.storeQ) == 0 {
			c.fail("rank %d: store-end of %d B at %v with no write in flight",
				ev.Rank, ev.Detail, ev.Start)
			return
		}
		if st.storeQ[0] != ev.Detail {
			c.fail("rank %d: store-end drained %d B, oldest in-flight write wrote %d B",
				ev.Rank, ev.Detail, st.storeQ[0])
		}
		st.storeQ = st.storeQ[1:]
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
		if st.running && class(st.grantKind) == "app" {
			c.fail("round(root %d): member %d has app job %q (granted %v) in flight at commit (%v)",
				root, m, st.grantKind, st.grantTime, at)
		}
	}
}

// Finish runs the end-of-run checks against the engine's Result and
// returns Err(). In-flight work the engine legitimately truncates when the
// last application op completes — a running control job, unreleased hold
// gates, an undrained storage write, an undelivered control message — is
// not flagged.
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
	for id := int64(1); id <= c.nMsgs; id++ {
		m := c.msgs.get(int(id - 1))
		if !m.arrived {
			if m.kind != kindCtl {
				c.fail("msg %d (%s %d->%d) never arrived", id, c.kindName(id, m), m.src, m.dst)
			}
			continue
		}
		if m.matchable() && !m.matched {
			c.fail("orphan: msg %d (%s %d->%d) arrived but never matched", id, c.kindName(id, m), m.src, m.dst)
		}
	}
	for op := 0; op < len(c.recvs.dir)<<pageBits; op++ {
		if r := c.recvs.get(op); r != nil && r.ready {
			c.fail("recv op %d matched a message but never completed", op)
		}
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
	return c.Err()
}

// CheckStorage reconciles the store's counters against the trace: every
// byte the store reports drained must correspond to a traced
// store-begin/store-end pair (writes still in flight at exit excepted).
func (c *Checker) CheckStorage(ss storage.Stats) error {
	if ss.Writes != c.storeEnded {
		c.fail("store reports %d completed writes, trace saw %d", ss.Writes, c.storeEnded)
	}
	if ss.Bytes != c.storeEndedBytes {
		c.fail("store reports %d B drained, trace saw %d B", ss.Bytes, c.storeEndedBytes)
	}
	inFlight := c.storeBegun - c.storeEnded
	if inFlight < 0 {
		c.fail("more store-end (%d) than store-begin (%d) markers", c.storeEnded, c.storeBegun)
	}
	return c.Err()
}

// TaxedLogger is the introspection surface of a logging protocol
// (Uncoordinated, Hierarchical): its accumulated stats, its logging
// parameters, and its taxing policy.
type TaxedLogger interface {
	Stats() checkpoint.Stats
	LogConfig() checkpoint.LogParams
	Taxed(src, dst int) bool
}

// CheckLogging recomputes the sender-based logging charge from the traced
// application sends — α + round(β·bytes) on exactly the sends the policy
// taxes — and requires the protocol's accumulated counters to match
// exactly. Call after the run (the send set is complete at Finish time).
func (c *Checker) CheckLogging(p TaxedLogger) error {
	lp := p.LogConfig()
	var nMsgs, nBytes int64
	var penalty simtime.Duration
	for i := 0; i < int(c.nMsgs); i++ {
		s := c.msgs.get(i)
		if !s.matchable() || !p.Taxed(int(s.src), int(s.dst)) {
			continue
		}
		nMsgs++
		nBytes += s.bytes
		penalty += lp.Alpha + simtime.Duration(math.Round(lp.BetaNsPerByte*float64(s.bytes)))
	}
	st := p.Stats()
	if st.LoggedMessages != nMsgs {
		c.fail("logging: protocol charged %d messages, trace says %d taxed sends",
			st.LoggedMessages, nMsgs)
	}
	if st.LoggedBytes != nBytes {
		c.fail("logging: protocol logged %d B, trace says %d B", st.LoggedBytes, nBytes)
	}
	if st.LogPenalty != penalty {
		c.fail("logging: protocol charged %v CPU, α+β·bytes over taxed sends is %v",
			st.LogPenalty, penalty)
	}
	return c.Err()
}

// ReplicaMirror is the introspection surface of a replication protocol: its
// accumulated stats, replica degree, and primary/replica split.
type ReplicaMirror interface {
	Stats() checkpoint.Stats
	Degree() int
	AppRanks() int
}

// CheckReplication recomputes replica-pair mirroring from the traced
// application sends — every primary→primary send must be duplicated to
// exactly Degree replicas — and requires the protocol's counters to match,
// along with takeover exclusivity: the protocol's absorbed-takeover count
// must equal the traced "rep-takeover" markers (each of which the streaming
// check already paired against a distinct "rep-failure"). Call after the
// run.
func (c *Checker) CheckReplication(p ReplicaMirror) error {
	d := int64(p.Degree())
	app := p.AppRanks()
	var nMsgs, nBytes int64
	for i := 0; i < int(c.nMsgs); i++ {
		s := c.msgs.get(i)
		if !s.matchable() || int(s.src) >= app || int(s.dst) >= app {
			continue
		}
		nMsgs += d
		nBytes += d * s.bytes
	}
	st := p.Stats()
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
	return c.Err()
}

// CICIntrospect is the introspection surface of a communication-induced
// checkpointing protocol.
type CICIntrospect interface {
	Stats() checkpoint.Stats
	LagThreshold() int
}

// CheckCIC reconciles the protocol's checkpoint counters against the
// marker stream: completed writes against "cic-basic"/"cic-forced" markers
// and forced writes against "cic-forced" alone (both are emitted at write
// completion, so in-flight writes at exit cancel exactly). The streaming
// checks already enforced index monotonicity and forced-checkpoint
// justification per rank. Call after the run.
func (c *Checker) CheckCIC(p CICIntrospect) error {
	st := p.Stats()
	if st.Writes != c.nCICWrites {
		c.fail("cic: protocol wrote %d checkpoints, trace shows %d markers", st.Writes, c.nCICWrites)
	}
	if st.Forced != c.nCICForced {
		c.fail("cic: protocol forced %d checkpoints, trace shows %d markers", st.Forced, c.nCICForced)
	}
	return c.Err()
}

// FinishRun is the complete post-run conformance check: Finish against the
// engine's result, CheckStorage when st is non-nil, then CheckLogging,
// CheckReplication and CheckCIC for every agent exposing the matching
// introspection surface. It returns the first failing step's error.
func (c *Checker) FinishRun(res *sim.Result, st *storage.Store, agents ...sim.Agent) error {
	if err := c.Finish(res); err != nil {
		return err
	}
	if st != nil {
		if err := c.CheckStorage(st.Stats()); err != nil {
			return err
		}
	}
	for _, a := range agents {
		if tl, ok := a.(TaxedLogger); ok {
			if err := c.CheckLogging(tl); err != nil {
				return err
			}
		}
		if rm, ok := a.(ReplicaMirror); ok {
			if err := c.CheckReplication(rm); err != nil {
				return err
			}
		}
		if ci, ok := a.(CICIntrospect); ok {
			if err := c.CheckCIC(ci); err != nil {
				return err
			}
		}
	}
	return nil
}
