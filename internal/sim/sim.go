// Package sim implements the discrete-event simulator that executes GOAL
// programs over the LogGOPS network model.
//
// # Execution model
//
// Each rank has one CPU and one NIC. Operations whose dependencies are
// satisfied compete for the CPU; the CPU runs one job at a time,
// non-preemptively. Jobs are granted FIFO in the order they became ready,
// except that service seizures (checkpoint writes, recovery — see SeizeCPU)
// take precedence over application work at the next grant. The NIC is
// modeled by per-rank injection serialization: consecutive messages from one
// rank are spaced by at least g + (s-1)·G.
//
//   - calc: occupies the CPU for the op's Work duration.
//   - send (eager, size < S): occupies the CPU for o + (s-1)·O, then injects;
//     the message arrives at the destination L + (s-1)·G after injection and
//     the op completes when the CPU part ends.
//   - send (rendezvous, size ≥ S): occupies the CPU for o and injects an RTS
//     envelope. When the receiver has both the RTS and a matching posted
//     receive, it spends o to return a CTS; on CTS arrival the sender spends
//     o + (s-1)·O to push the data and the send completes. The receive
//     completes after the data arrives and the receiver spends o + (s-1)·O.
//   - recv: posts for matching as soon as its dependencies are satisfied
//     (posting itself is free); when a matching message arrives, the
//     receiver's CPU spends o + (s-1)·O and the op completes.
//
// Matching follows MPI semantics: per-(source, destination) channels are
// non-overtaking, receives match in post order, unexpected messages queue in
// arrival order, and AnySource/AnyTag wildcards are honored.
//
// # Protocol agents
//
// Checkpointing protocols, noise generators, and failure injectors attach as
// Agents. Agents schedule timers, exchange control messages that traverse
// the same network (and contend for the same CPUs), seize rank CPUs to
// model checkpoint writes or recovery, and tax application sends (message
// logging) via the SendHook interface. Delay caused by any of these reaches
// other ranks only through message dependencies — this is the mechanism the
// whole study quantifies.
//
// # Determinism
//
// Simulated time is integer nanoseconds, the event queue breaks ties by
// insertion order, and all randomness flows from the seeded generator in
// package rng, so a given configuration always produces bit-identical
// results.
package sim

import (
	"errors"
	"fmt"

	"checkpointsim/internal/eventq"
	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/rng"
	"checkpointsim/internal/simtime"
)

// Agent is a protocol component attached to a simulation. Init is called
// once, before any event is processed; the agent keeps the Context to
// schedule timers, send control messages, and seize CPUs during the run.
type Agent interface {
	Init(ctx *Context)
}

// SendHook is implemented by agents that tax application sends (e.g.
// sender-based message logging). The returned duration is added to the
// sender's CPU cost for that message. Hooks must be pure functions of their
// arguments and agent state; they run at send-start time.
type SendHook interface {
	SendPenalty(src, dst int, bytes int64) simtime.Duration
}

// MatchHook is implemented by agents that observe application-message
// matches on the receiving rank — communication-induced checkpointing
// inspects piggybacked checkpoint indices this way. The hook runs at match
// time, before the receive-processing job is queued, so CPU seizures the
// agent schedules from it (a forced checkpoint) are granted ahead of the
// message's processing: the dispatcher prefers seized work over
// application jobs. For rendezvous transfers the hook fires at envelope
// match (piggybacked state rides in the header, not the payload).
type MatchHook interface {
	MessageMatched(src, dst int, bytes int64)
}

// RankChecker is implemented by agents that run only on some machine
// sizes. New asks each one to accept the program's rank count, so a machine
// the agent cannot run on is an error before any event is processed.
type RankChecker interface {
	CheckRanks(n int) error
}

// Config describes one simulation.
type Config struct {
	// Net is the LogGOPS parameter set.
	Net network.Params
	// Program is the application to execute.
	Program *goal.Program
	// Agents are the protocol components (checkpointing, noise, failures).
	Agents []Agent
	// Seed feeds the simulation's random stream (timers with jitter,
	// failure draws). Runs with equal Config produce identical results.
	Seed uint64
	// MaxEvents aborts runaway simulations; 0 means 2^62.
	MaxEvents int64
	// MaxTime aborts simulations that pass this virtual time; 0 = no cap.
	MaxTime simtime.Time
	// SnapshotEvery, when > 0, asks the engine to capture a snapshot of its
	// complete state after every SnapshotEvery-th processed event (see
	// Engine.Restore for the determinism contract). Every instant between
	// two events is snapshot-able, so the cadence is exact. Requires
	// OnSnapshot and that every agent implements Resumable.
	SnapshotEvery int64
	// OnSnapshot receives each captured snapshot, synchronously on the
	// simulation loop. Required when SnapshotEvery > 0.
	OnSnapshot func(Snapshot)
	// Trace, when non-nil, receives the engine's event stream: one
	// TraceCPU record per completed CPU job (the raw material for
	// timelines and Gantt-style visualizations) plus grant, NIC,
	// message-injection, arrival, match, and phase-marker records (the raw
	// material for trace-conformance validation — see internal/validate).
	// Consumers that only care about CPU occupancies filter on
	// TraceEvent.Type == TraceCPU. Kinds are typed and reasons interned,
	// so no record allocates. The callback runs synchronously on the
	// simulation's hot path; keep it cheap.
	Trace func(TraceEvent)
	// Identity, when non-nil, returns the canonical encoding of the
	// configuration the engine was assembled from (protocol, noise,
	// failure and storage parameters included). The config digest that
	// every snapshot carries covers it, so a snapshot refuses to resume
	// under any other configuration. It is called at most once, at the
	// first snapshot or restore.
	Identity func() string
}

// TraceType distinguishes the records flowing through Config.Trace. The
// zero value is TraceCPU, so consumers written against the original
// CPU-occupancy-only trace (and tests constructing events by literal) keep
// working unchanged.
type TraceType uint8

const (
	// TraceCPU is one completed CPU occupancy on one rank — the original
	// trace record, and the only type timeline/Gantt consumers care about.
	TraceCPU TraceType = iota
	// TraceGrant marks the instant a job is granted the CPU (Start == End).
	// Kind, Name and Op match the TraceCPU record(s) the job will emit when it
	// completes. Grants let a validator check quiesce invariants in exact
	// stream order: between a "hold" and its "hold-release" phase marker no
	// application-class grant may appear on that rank.
	TraceGrant
	// TraceNIC is one NIC occupancy on the sending rank: the injection
	// serialization window g + (s-1)·G for one message.
	TraceNIC
	// TraceInject records a message leaving the sender: Start is the wire
	// departure time (post NIC and fabric serialization), End the scheduled
	// arrival at Dst.
	TraceInject
	// TraceArrive marks a message reaching Dst (Start == End). It must
	// coincide with the End of the matching TraceInject.
	TraceArrive
	// TraceMatch links a matchable message (eager or RTS envelope) to the
	// posted receive it matched: MsgID ↔ RecvOp, emitted on the receiver.
	TraceMatch
	// TracePhase is an agent- or subsystem-emitted marker (Start == End):
	// hold gates, coordination round boundaries, checkpoint write and
	// storage drain begin/end. Name names the phase, Detail carries a
	// phase-specific payload (bytes, round root, hold depth).
	TracePhase
)

// TraceKind says what a CPU, grant or message record carries. It is the
// closed set the engine itself knows; the open set of labels agents choose
// (seize reasons, phase markers) lives in TraceEvent.Name. The zero value
// names nothing: phase records leave it.
type TraceKind uint8

const (
	KindCalc TraceKind = iota + 1 // job kinds of CPU and grant records
	KindSend
	KindRecv
	KindCtl // also the message kind of control messages
	KindSeize
	KindEager // message kinds of NIC, inject, arrive and match records
	KindRTS
	KindCTS
	KindData
)

// traceKindNames is the one name table: every printed kind comes from it.
var traceKindNames = [...]string{KindCalc: "calc", KindSend: "send", KindRecv: "recv", KindCtl: "ctl",
	KindSeize: "seize", KindEager: "eager", KindRTS: "rts", KindCTS: "cts", KindData: "data"}

// String names the kind: "" for the zero kind, "?" for a value outside the
// set.
func (k TraceKind) String() string {
	if int(k) < len(traceKindNames) {
		return traceKindNames[k]
	}
	return "?"
}

// TraceClass says whose time a CPU occupancy is.
type TraceClass uint8

const (
	ClassOther  TraceClass = iota // not a job kind
	ClassApp                      // application work: calc, send, recv
	ClassCtl                      // protocol control traffic
	ClassSeized                   // CPU seized by an agent
)

// Class buckets a job kind by whose time it is.
func (k TraceKind) Class() TraceClass {
	switch k {
	case KindCalc, KindSend, KindRecv:
		return ClassApp
	case KindCtl:
		return ClassCtl
	case KindSeize:
		return ClassSeized
	}
	return ClassOther
}

// TraceEvent is one record on the trace channel. Which fields are
// meaningful depends on Type; TraceCPU events populate exactly the fields
// the original CPU-occupancy trace did.
type TraceEvent struct {
	Type TraceType
	// Kind is the job kind of CPU and grant records and the message kind
	// of NIC, inject, arrive and match records; phase records leave it zero.
	Kind TraceKind
	Rank int
	// Name is the agent's label: a seizure's reason on KindSeize records,
	// the marker's name on phase records, empty otherwise.
	Name       string
	Start, End simtime.Time
	Op         goal.OpID // NoOp for non-application jobs
	// Message-event fields (TraceNIC, TraceInject, TraceArrive, TraceMatch):
	MsgID    int64 // unique per wire traversal, assigned at injection
	Src, Dst int
	Tag      int32
	Bytes    int64     // payload bytes
	Wire     int64     // bytes occupying NIC and wire (0 for bare envelopes)
	RecvOp   goal.OpID // matched receive (TraceMatch, data injections)
	// Detail is the TracePhase payload.
	Detail int64
}

// Label is the record's printed label: "seize:<reason>" for a seizure, the
// marker's name for a phase record, and the kind's name otherwise.
func (ev TraceEvent) Label() string {
	switch ev.Kind {
	case KindSeize:
		return "seize:" + ev.Name
	case 0:
		return ev.Name
	}
	return ev.Kind.String()
}

// msgTraceKinds maps message kinds to trace kinds.
var msgTraceKinds = [...]TraceKind{msgEager: KindEager, msgRTS: KindRTS, msgCTS: KindCTS,
	msgData: KindData, msgCtl: KindCtl}

// traceKind maps a job to its trace kind, its seize reason and the op it
// serves. The reason is the interned string, so emitting one allocates
// nothing.
func (e *Engine) traceKind(j job) (TraceKind, string, goal.OpID) {
	switch j.kind {
	case jobCalc:
		return KindCalc, "", goal.OpID(j.arg)
	case jobSendEager, jobSendRTS:
		return KindSend, "", goal.OpID(j.arg)
	case jobSendData:
		return KindSend, "", e.msgs[j.arg].op
	case jobRecvDone:
		return KindRecv, "", goal.OpID(j.arg)
	case jobCtlSend, jobCtlRecv:
		return KindCtl, "", goal.NoOp
	default: // jobSeize, jobSeizeOpen
		return KindSeize, e.reasons[e.seizes[j.arg].reason], goal.NoOp
	}
}

type evKind uint8

const (
	evJobDone evKind = iota // rank's running CPU job completed
	evArrive                // message arrival at msg.dst
	evTimer                 // agent timer callback
)

// event is one queued engine event. Like every record the engine copies
// per event, it holds no pointer: a message is named by its slot in the
// engine's message slab.
type event struct {
	kind evKind
	id   int32 // evJobDone: the rank; evArrive: the message's slab slot
	work owned // evTimer
}

// owned is one piece of pending agent work as plain data: a Call bound to
// its owner's position in the owner table. Running it invokes
// owners[owner-1].OnTimer(kind, arg); the zero value (owner 0) is "no
// work". Timers, completion callbacks, control-message deliveries and
// seizure grants all take this one form, so every instant between two
// events serializes.
type owned struct {
	owner int32
	kind  uint8
	arg   int64
}

type msgKind uint8

const (
	msgEager msgKind = iota
	msgRTS
	msgCTS
	msgData
	msgCtl
)

// message is anything traversing the network. Messages live in the
// engine's slab (Engine.msgs) and are named by their int32 slot.
type message struct {
	id       int64 // trace identity, assigned at injection
	bytes    int64 // payload size (app size carried for RTS/CTS bookkeeping)
	wire     int64 // bytes that actually occupy NIC and wire
	src, dst int32
	tag      int32
	kind     msgKind
	op       goal.OpID // originating send op (app messages)
	recvOp   goal.OpID // matched recv op (CTS/data)
	deliver  owned     // control messages: runs after receive processing
}

type jobKind uint8

const (
	jobCalc jobKind = iota
	jobSendEager
	jobSendRTS
	jobSendData // triggered by CTS
	jobRecvDone // receiver-side processing of a matched message
	jobCtlSend
	jobCtlRecv
	jobSeize
	jobSeizeOpen // open-ended seizure: completion driven by release, not cost
)

// reasonID is an interned seize/hold accounting reason. The engine maps
// each distinct reason string to a small integer once, at seize/hold request
// time, so the per-event accounting in jobDone is array indexing instead of
// string-keyed map updates; Result re-expands IDs to strings at the end.
type reasonID int32

// job is a unit of CPU occupancy on one rank: 16 bytes of plain data, so
// queueing and granting one copies two words and no pointer. What arg
// names depends on kind:
//
//   - jobCalc, jobSendEager, jobSendRTS, jobRecvDone: the op's ID;
//   - jobSendData, jobCtlSend, jobCtlRecv: the message's slot in Engine.msgs;
//   - jobSeize, jobSeizeOpen: the seizure's slot in Engine.seizes.
//
// For an open-ended seizure (jobSeizeOpen) cost is the nominal portion
// accounted under its reason; the occupancy lasts until
// Context.ReleaseSeizure and any excess is accounted under its waitReason.
type job struct {
	cost simtime.Duration
	arg  int32
	kind jobKind
}

// seizeRec holds the fields only a seizure uses, in the engine's seizure
// slab (Engine.seizes). Its slot is freed when the seizure completes.
type seizeRec struct {
	reason reasonID // interned accounting key
	// waitReason (open-ended seizures only) accounts the occupancy beyond
	// the nominal cost.
	waitReason reasonID
	done       owned // runs at completion
	granted    owned // open-ended seizures only: runs when the CPU is granted
}

// hold is a rank's HoldApp gate: its reason and the time it closed, so
// that the held time is accounted at release.
type hold struct {
	start  simtime.Time
	reason reasonID
}

// postedRecv is a receive waiting for a matching message. It carries the
// op's peer and tag, so matching reads no op record.
type postedRecv struct {
	op        goal.OpID
	peer, tag int32
}

// rankState is one rank's hot state: two cache lines. The first holds
// everything dispatch and jobDone read on every event; the second the
// unexpected queue, the queue depths and the rank's clocks and counters.
// The rank's queues are lists threaded through the engine's slabs, and the
// data only the hold, scale, release and fabric paths touch lives in
// Engine.side.
type rankState struct {
	runningJob job
	jobStart   simtime.Time
	// Three CPU queues, granted in this order: service seizures (checkpoint
	// writes, recovery, noise), then control/progress traffic, then — only
	// when no hold gate is closed — application work.
	seizeQ, ctlQ, appQ list
	posted             list // posted receives, in post order
	// held is set while the rank's HoldApp gate is closed; application
	// jobs are not granted the CPU then.
	held    bool
	running bool
	// releasing is set once the running open-ended seizure has been
	// released: its completion event is queued.
	releasing bool
	// scaled is set while the rank has a ScaleCPU factor in force.
	scaled bool

	unexpected           list // unexpected message slots, in arrival order
	postedN, unexpectedN int32
	nicFreeAt            simtime.Time
	finish               simtime.Time
	busy                 simtime.Duration // CPU time spent on application jobs
	ctlBusy              simtime.Duration // CPU time spent on control processing
	seizedBusy           simtime.Duration // CPU time spent seized
	scaledExtra          simtime.Duration
}

// rankSide is the rank data only the hold, scale, release and fabric paths
// touch; Engine.side holds it, allocated at the first use.
type rankSide struct {
	// hold is the rank's HoldApp gate while rankState.held is set.
	hold hold
	// scale is the rank's ScaleCPU factor while rankState.scaled is set; it
	// multiplies the cost of every non-seizure job at grant time.
	scale float64
	// lastArrival holds, per destination rank, the latest arrival of a
	// message this rank injected, and clamps later arrivals to it so every
	// channel is non-overtaking. Only a fabric model needs it: under plain
	// LogGOPS a message injected after one of s1 bytes leaves no earlier
	// than g + (s1-1)G after it (NIC) and so arrives no earlier than its
	// L + (s1-1)G arrival (Wire); only fabric queueing breaks that chain.
	// So it is allocated, P entries, on the rank's first injection under a
	// fabric model and stays nil otherwise. The zero value is safe: arrival
	// times are never negative, so an untouched slot never clamps.
	lastArrival []simtime.Time
}

// list is a FIFO threaded through one of the engine's slabs: the slots of
// its first and last nodes, 0 when empty.
type list struct{ head, tail int32 }

func (l list) empty() bool { return l.head == 0 }

// slabNode is one list item; next links it to the item behind it, or to
// the next free node once unlinked.
type slabNode[T any] struct {
	val  T
	next int32
}

// slab is a pool of list nodes that every rank's lists share, in the style
// of eventq's node slab: slot 0 is the nil link, and unlinked nodes form a
// LIFO free list, so the slab holds at most twice the nodes its lists have
// held at once. A push may grow the slab, so no pointer into it is held
// across a push.
type slab[T any] struct {
	nodes []slabNode[T]
	used  int32 // the highest slot ever taken
	free  int32
	// first is how many nodes the first push makes room for (at least 16),
	// so an engine that never queues pays nothing and one sized from its
	// program skips the early doublings.
	first int
}

// push appends v to l.
func (s *slab[T]) push(l *list, v T) {
	i := s.free
	if i != 0 {
		s.free = s.nodes[i].next
	} else {
		// Slot 0 is the nil link, so the first push takes slot 1. A full
		// slab doubles, so one that reaches n nodes has copied fewer than
		// n of them; appending node by node would grow by a quarter past
		// 256 and copy about four times as many.
		s.used++
		if int(s.used) >= len(s.nodes) {
			s.nodes = append(s.nodes, make([]slabNode[T], max(len(s.nodes), s.first, 16))...)
		}
		i = s.used
	}
	s.nodes[i] = slabNode[T]{val: v}
	if l.tail == 0 {
		l.head = i
	} else {
		s.nodes[l.tail].next = i
	}
	l.tail = i
}

// pop unlinks and returns l's head; l must not be empty.
func (s *slab[T]) pop(l *list) T { return s.unlink(l, 0, l.head) }

// unlink removes node i from l, where prev is the node before it (0 for
// the head), and returns its value. The node keeps its bytes: items are
// plain data, so there is nothing for the GC to release.
func (s *slab[T]) unlink(l *list, prev, i int32) T {
	n := &s.nodes[i]
	if prev == 0 {
		l.head = n.next
	} else {
		s.nodes[prev].next = n.next
	}
	if l.tail == i {
		l.tail = prev
	}
	n.next, s.free = s.free, i
	return n.val
}

// Context is the API surface the engine exposes to agents. It is the engine
// itself; agents hold it for the duration of the run.
type Context struct {
	eng *Engine
}

// Engine executes one simulation. Create with New, run once with Run.
type Engine struct {
	cfg        Config
	prog       *goal.Program
	net        network.Params
	queue      eventq.Queue[event]
	now        simtime.Time
	ranks      []rankState
	side       []rankSide // per rank, allocated at the first hold, scale or fabric crossing
	depsLeft   []int32    // open dependencies per op; -1 once the op completed
	opsLeft    int
	hooks      []SendHook
	matchHooks []MatchHook
	rand       *rng.Source
	events     int64
	metrics    Metrics
	fabricFree simtime.Time
	nextMsgID  int64
	// Interned seize/hold reason accounting: reasonIDs maps a reason string
	// to its ID; the parallel slices below are indexed by that ID. The
	// string keys reappear only at the Result boundary.
	reasonIDs map[string]reasonID
	reasons   []string // id → reason
	seizeTime []simtime.Duration
	seizeCnt  []int64
	heldTime  []simtime.Duration
	heldCnt   []int64
	// msgs is the message slab: jobs, events and unexpected queues name a
	// message by its slot. msgFree lists the free slots: every message has
	// exactly one release point (matched, data delivery, control delivery),
	// so the steady-state engine loop allocates none. The slab may grow in
	// newMsg, so no &msgs[i] is held across a newMsg.
	msgs    []message
	msgFree []int32
	// seizes is the seizure slab, with seizeFree its free slots; a seizure
	// job names its record by slot.
	seizes    []seizeRec
	seizeFree []int32
	// The rank lists' slabs: every rank's seize, control and application
	// queues thread through jobs, its posted receives through posts and
	// its unexpected message slots through unexps.
	jobs   slab[job]
	posts  slab[postedRecv]
	unexps slab[int32]
	ran    bool
	// owners are the timer owners in registration order (see OwnTimers):
	// owned work names its owner by position, index+1.
	owners     []TimerOwner
	traceCount int64  // trace records emitted so far (resume suffix index)
	restored   bool   // Run must skip Init/activation: state came from Restore
	digest     []byte // config digest, computed at the first snapshot or restore
	// ctx is the one Context agents see, at Init, snapshot and restore
	// alike, so identity checks on it (storage.Store.Bind) hold.
	ctx Context
}

// Metrics accumulates global counters during a run.
type Metrics struct {
	AppMessages   int64
	AppBytes      int64
	CtlMessages   int64
	CtlBytes      int64
	Rendezvous    int64
	Matches       int64
	UnexpectedMax int
	PostedMax     int
	// FabricBusy is the total shared-fabric occupancy (only accumulated
	// when a finite bisection bandwidth is configured).
	FabricBusy simtime.Duration
}

// New validates the configuration and builds an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Program == nil {
		return nil, fmt.Errorf("sim: nil program")
	}
	if err := cfg.Net.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Program.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = 1 << 62
	}
	e := &Engine{
		cfg:       cfg,
		prog:      cfg.Program,
		net:       cfg.Net,
		ranks:     make([]rankState, cfg.Program.NumRanks),
		depsLeft:  make([]int32, len(cfg.Program.Ops)),
		opsLeft:   len(cfg.Program.Ops),
		rand:      rng.New(cfg.Seed),
		reasonIDs: make(map[string]reasonID),
	}
	// A rank queues about two jobs and posts about one receive at its
	// busiest (the quick suite's engines at P = 8 to 64).
	e.jobs.first, e.posts.first = 2*cfg.Program.NumRanks+1, cfg.Program.NumRanks+1
	e.ctx.eng = e
	if cfg.SnapshotEvery > 0 && cfg.OnSnapshot == nil {
		return nil, fmt.Errorf("sim: SnapshotEvery set without OnSnapshot")
	}
	for i, a := range cfg.Agents {
		if h, ok := a.(SendHook); ok {
			e.hooks = append(e.hooks, h)
		}
		if h, ok := a.(MatchHook); ok {
			e.matchHooks = append(e.matchHooks, h)
		}
		if c, ok := a.(RankChecker); ok {
			if err := c.CheckRanks(cfg.Program.NumRanks); err != nil {
				return nil, err
			}
		}
		if cfg.SnapshotEvery > 0 {
			if _, ok := a.(Resumable); !ok {
				return nil, fmt.Errorf("sim: SnapshotEvery set but agent %d (%T) is not Resumable", i, a)
			}
		}
		// Agents own their timers in stack order, which the config digest
		// seals, so a snapshot's owner positions resolve in any engine
		// built from the same Config.
		if o, ok := a.(TimerOwner); ok {
			e.registerOwner(o)
		}
	}
	return e, nil
}

// internReason maps a seize/hold reason string to its integer ID, creating
// the accounting slots on first use. Protocols use a handful of fixed
// reasons, so the table stays tiny and the map is touched once per
// seize/hold *request*, never per completion event.
func (e *Engine) internReason(reason string) reasonID {
	if id, ok := e.reasonIDs[reason]; ok {
		return id
	}
	id := reasonID(len(e.reasons))
	e.reasonIDs[reason] = id
	e.reasons = append(e.reasons, reason)
	e.seizeTime = append(e.seizeTime, 0)
	e.seizeCnt = append(e.seizeCnt, 0)
	e.heldTime = append(e.heldTime, 0)
	e.heldCnt = append(e.heldCnt, 0)
	return id
}

// newMsg stores m in the message slab, reusing a free slot when one is
// available, and returns its slot.
func (e *Engine) newMsg(m message) int32 {
	if n := len(e.msgFree); n > 0 {
		s := e.msgFree[n-1]
		e.msgFree = e.msgFree[:n-1]
		e.msgs[s] = m
		return s
	}
	e.msgs = append(e.msgs, m)
	return int32(len(e.msgs) - 1)
}

// freeMsg recycles a message slot whose last reference is about to die.
// Each message is released at exactly one point in its lifecycle: an
// application message when it matches, a data message when its receive job
// is queued, a control message when its delivery callback runs.
func (e *Engine) freeMsg(s int32) { e.msgFree = append(e.msgFree, s) }

// newSeize stores r in the seizure slab and returns its slot.
func (e *Engine) newSeize(r seizeRec) int32 {
	if n := len(e.seizeFree); n > 0 {
		s := e.seizeFree[n-1]
		e.seizeFree = e.seizeFree[:n-1]
		e.seizes[s] = r
		return s
	}
	e.seizes = append(e.seizes, r)
	return int32(len(e.seizes) - 1)
}

// takeSeize frees seizure slot s and returns its record.
func (e *Engine) takeSeize(s int32) seizeRec {
	e.seizeFree = append(e.seizeFree, s)
	return e.seizes[s]
}

// ErrCapExceeded marks a run aborted by Config.MaxEvents or Config.MaxTime.
// Callers that treat a capped run as data — a configuration that diverges
// under its failure regime — rather than as a setup mistake can detect it
// with errors.Is.
var ErrCapExceeded = errors.New("cap exceeded")

// Run executes the simulation to completion and returns its results. An
// engine runs once; calling Run again returns an error.
func (e *Engine) Run() (*Result, error) {
	if e.ran {
		return nil, fmt.Errorf("sim: engine already ran")
	}
	e.ran = true

	if !e.restored {
		for _, a := range e.cfg.Agents {
			a.Init(&e.ctx)
		}
		// Activate all initially-ready operations.
		for i := range e.prog.Ops {
			e.depsLeft[i] = int32(len(e.prog.Deps(goal.OpID(i))))
		}
		for i := range e.prog.Ops {
			if e.depsLeft[i] == 0 {
				e.activate(goal.OpID(i))
			}
		}
	}

	for e.opsLeft > 0 {
		if e.queue.Len() == 0 {
			return nil, e.deadlockError()
		}
		t, ev := e.queue.Pop()
		e.now = t
		e.events++
		if e.events > e.cfg.MaxEvents {
			return nil, fmt.Errorf("sim: event %w: %d at t=%v (%d ops left)",
				ErrCapExceeded, e.cfg.MaxEvents, e.now, e.opsLeft)
		}
		if e.cfg.MaxTime > 0 && e.now > e.cfg.MaxTime {
			return nil, fmt.Errorf("sim: time %w: %v passed (%d ops left)",
				ErrCapExceeded, e.cfg.MaxTime, e.opsLeft)
		}
		switch ev.kind {
		case evJobDone:
			e.jobDone(int(ev.id))
		case evArrive:
			e.arrive(ev.id)
		case evTimer:
			e.run(ev.work)
		}
		if e.cfg.SnapshotEvery > 0 && e.events%e.cfg.SnapshotEvery == 0 && e.opsLeft > 0 {
			e.snapshot()
		}
	}
	return e.buildResult(), nil
}

func (e *Engine) deadlockError() error {
	for i := range e.prog.Ops {
		if e.depsLeft[i] >= 0 {
			op := e.prog.Op(goal.OpID(i))
			return fmt.Errorf("sim: deadlock at t=%v with %d ops left; first stuck op: rank %d %s peer=%d tag=%d",
				e.now, e.opsLeft, op.Rank, op.Kind, op.Peer, op.Tag)
		}
	}
	return fmt.Errorf("sim: deadlock at t=%v with %d ops left", e.now, e.opsLeft)
}

// activate runs when an op's dependencies are all satisfied.
func (e *Engine) activate(id goal.OpID) {
	op := e.prog.Op(id)
	st := &e.ranks[op.Rank]
	switch op.Kind {
	case goal.KindCalc:
		e.jobs.push(&st.appQ, job{kind: jobCalc, cost: op.Work, arg: int32(id)})
		e.dispatch(int(op.Rank))
	case goal.KindSend:
		cost := e.net.SendCPU(op.Bytes)
		if !e.net.Eager(op.Bytes) {
			cost = e.net.Overhead // RTS preparation only
		}
		for _, h := range e.hooks {
			cost += h.SendPenalty(int(op.Rank), int(op.Peer), op.Bytes)
		}
		kind := jobSendEager
		if !e.net.Eager(op.Bytes) {
			kind = jobSendRTS
		}
		e.jobs.push(&st.appQ, job{kind: kind, cost: cost, arg: int32(id)})
		e.dispatch(int(op.Rank))
	case goal.KindRecv:
		e.postRecv(id)
	}
}

// dispatch grants the CPU of rank to the next job if it is idle.
func (e *Engine) dispatch(rank int) {
	st := &e.ranks[rank]
	if st.running {
		return
	}
	var j job
	switch {
	case !st.seizeQ.empty():
		j = e.jobs.pop(&st.seizeQ)
	case !st.ctlQ.empty():
		j = e.jobs.pop(&st.ctlQ)
	case !st.held && !st.appQ.empty():
		j = e.jobs.pop(&st.appQ)
	default:
		return
	}
	st.running = true
	st.runningJob = j
	st.jobStart = e.now
	if e.cfg.Trace != nil {
		kind, name, op := e.traceKind(j)
		var depth int64
		if st.held {
			depth = 1
		}
		e.emitTrace(TraceEvent{Type: TraceGrant, Kind: kind, Rank: rank, Name: name,
			Start: e.now, End: e.now, Op: op, Detail: depth})
	}
	if j.kind == jobSeizeOpen {
		// Open-ended seizure: the CPU is held until the agent calls
		// ReleaseSeizure (typically when a shared-storage drain completes);
		// no completion is scheduled up front.
		e.run(e.seizes[j.arg].granted)
		return
	}
	cost := j.cost
	if j.kind != jobSeize && st.scaled {
		cost = j.cost.Scale(e.side[rank].scale)
		st.scaledExtra += cost - j.cost
	}
	e.queue.Push(e.now.Add(cost), event{kind: evJobDone, id: int32(rank)})
}

// jobDone handles the completion of rank's running CPU job.
func (e *Engine) jobDone(rank int) {
	st := &e.ranks[rank]
	j := st.runningJob
	st.running = false
	st.releasing = false
	dur := e.now.Sub(st.jobStart)
	if e.cfg.Trace != nil {
		if j.kind == jobSeizeOpen {
			// Split the occupancy at the nominal boundary: the part any lone
			// writer would pay, then the contention-induced wait.
			sz := &e.seizes[j.arg]
			split := st.jobStart.Add(simtime.MinDuration(j.cost, dur))
			e.emitTrace(TraceEvent{Kind: KindSeize, Rank: rank, Name: e.reasons[sz.reason],
				Start: st.jobStart, End: split, Op: goal.NoOp})
			if split < e.now {
				e.emitTrace(TraceEvent{Kind: KindSeize, Rank: rank, Name: e.reasons[sz.waitReason],
					Start: split, End: e.now, Op: goal.NoOp})
			}
		} else {
			kind, name, op := e.traceKind(j)
			e.emitTrace(TraceEvent{Kind: kind, Rank: rank, Name: name, Start: st.jobStart,
				End: e.now, Op: op})
		}
	}
	switch j.kind {
	case jobCalc:
		st.busy += dur
		e.opDone(rank, goal.OpID(j.arg))
	case jobSendEager:
		st.busy += dur
		id := goal.OpID(j.arg)
		op := e.prog.Op(id)
		e.inject(rank, e.newMsg(message{kind: msgEager, src: op.Rank, dst: op.Peer,
			tag: op.Tag, bytes: op.Bytes, op: id}), op.Bytes)
		e.metrics.AppMessages++
		e.metrics.AppBytes += op.Bytes
		e.opDone(rank, id)
	case jobSendRTS:
		st.busy += dur
		id := goal.OpID(j.arg)
		op := e.prog.Op(id)
		e.inject(rank, e.newMsg(message{kind: msgRTS, src: op.Rank, dst: op.Peer,
			tag: op.Tag, bytes: op.Bytes, op: id}), 0)
		e.metrics.Rendezvous++
	case jobSendData:
		st.busy += dur
		// The job's message is the carrier built at CTS arrival; it already
		// holds the data message's routing and bookkeeping, so inject it
		// directly.
		m := &e.msgs[j.arg]
		m.kind = msgData
		bytes, op := m.bytes, m.op
		e.inject(rank, j.arg, bytes)
		e.metrics.AppMessages++
		e.metrics.AppBytes += bytes
		e.opDone(rank, op) // rendezvous send completes when data is pushed
	case jobRecvDone:
		st.busy += dur
		e.opDone(rank, goal.OpID(j.arg))
	case jobCtlSend:
		st.ctlBusy += dur
		wire := e.msgs[j.arg].wire
		e.inject(rank, j.arg, wire)
		e.metrics.CtlMessages++
		e.metrics.CtlBytes += wire
	case jobCtlRecv:
		st.ctlBusy += dur
		deliver := e.msgs[j.arg].deliver
		e.freeMsg(j.arg)
		e.run(deliver)
	case jobSeize:
		st.seizedBusy += dur
		sz := e.takeSeize(j.arg)
		e.seizeTime[sz.reason] += dur
		e.seizeCnt[sz.reason]++
		e.run(sz.done)
	case jobSeizeOpen:
		st.seizedBusy += dur
		sz := e.takeSeize(j.arg)
		nominal := simtime.MinDuration(j.cost, dur)
		e.seizeTime[sz.reason] += nominal
		e.seizeCnt[sz.reason]++
		if wait := dur - nominal; wait > 0 {
			e.seizeTime[sz.waitReason] += wait
			e.seizeCnt[sz.waitReason]++
		}
		e.run(sz.done)
	}
	e.dispatch(rank)
}

// opDone marks an application operation complete on rank, the rank its
// job ran on (always the op's own), and releases dependents.
func (e *Engine) opDone(rank int, id goal.OpID) {
	if e.depsLeft[id] == -1 {
		panic("sim: op completed twice")
	}
	e.depsLeft[id] = -1
	e.opsLeft--
	st := &e.ranks[rank]
	if e.now > st.finish {
		st.finish = e.now
	}
	for _, out := range e.prog.Outs(id) {
		e.depsLeft[out]--
		if e.depsLeft[out] == 0 {
			e.activate(out)
		}
	}
}

// inject places a message on rank's NIC and schedules its arrival. wireBytes
// is the size used for wire and NIC occupancy (0 for bare envelopes).
func (e *Engine) inject(rank int, s int32, wireBytes int64) {
	st := &e.ranks[rank]
	m := &e.msgs[s]
	m.wire = wireBytes
	e.nextMsgID++
	m.id = e.nextMsgID
	inj := simtime.Max(e.now, st.nicFreeAt)
	st.nicFreeAt = inj.Add(e.net.NIC(wireBytes))
	if e.cfg.Trace != nil {
		e.emitTrace(TraceEvent{Type: TraceNIC, Rank: rank, Kind: msgTraceKinds[m.kind],
			Start: inj, End: st.nicFreeAt, MsgID: m.id,
			Src: int(m.src), Dst: int(m.dst), Wire: wireBytes})
	}
	var arr simtime.Time
	if e.net.HasFabric() {
		inj, arr = e.crossFabric(rank, m.dst, inj, wireBytes)
	} else {
		arr = inj.Add(e.net.Wire(wireBytes))
	}
	if e.cfg.Trace != nil {
		e.emitTrace(TraceEvent{Type: TraceInject, Rank: rank, Kind: msgTraceKinds[m.kind],
			Start: inj, End: arr, MsgID: m.id, Src: int(m.src), Dst: int(m.dst),
			Tag: m.tag, Bytes: m.bytes, Wire: wireBytes, Op: m.op, RecvOp: m.recvOp})
	}
	e.queue.Push(arr, event{kind: evArrive, id: s})
}

// crossFabric serializes a message injected at inj through the shared
// fabric and returns when it enters the fabric (inj if it occupies none)
// and when it arrives at dst.
// The fabric can delay a large message past a later, smaller one from the
// same rank, so arrivals are clamped per (rank, dst) channel to keep every
// channel non-overtaking.
func (e *Engine) crossFabric(rank int, dst int32, inj simtime.Time, wireBytes int64) (start, arr simtime.Time) {
	start = inj
	if occ := e.net.FabricOccupancy(wireBytes); occ > 0 {
		start = simtime.Max(inj, e.fabricFree)
		e.fabricFree = start.Add(occ)
		e.metrics.FabricBusy += occ
	}
	arr = start.Add(e.net.Wire(wireBytes))
	sd := e.sideOf(rank)
	if sd.lastArrival == nil {
		sd.lastArrival = make([]simtime.Time, len(e.ranks))
	}
	if last := sd.lastArrival[dst]; arr < last {
		arr = last
	}
	sd.lastArrival[dst] = arr
	return start, arr
}

// sideOf returns rank's side data, allocating every rank's on first use.
func (e *Engine) sideOf(rank int) *rankSide {
	if e.side == nil {
		e.side = make([]rankSide, len(e.ranks))
	}
	return &e.side[rank]
}

// arrive handles the message in slot s reaching its destination rank.
func (e *Engine) arrive(s int32) {
	m := &e.msgs[s]
	st := &e.ranks[m.dst]
	if e.cfg.Trace != nil {
		e.emitTrace(TraceEvent{Type: TraceArrive, Rank: int(m.dst), Kind: msgTraceKinds[m.kind],
			Start: e.now, End: e.now, MsgID: m.id, Src: int(m.src), Dst: int(m.dst),
			Tag: m.tag, Bytes: m.bytes, Wire: m.wire, Op: m.op, RecvOp: m.recvOp})
	}
	switch m.kind {
	case msgEager, msgRTS:
		if prev, i := e.matchPosted(st, m); i != 0 {
			recvOp := e.posts.unlink(&st.posted, prev, i).op
			st.postedN--
			e.matched(s, recvOp)
		} else {
			e.unexps.push(&st.unexpected, s)
			if st.unexpectedN++; int(st.unexpectedN) > e.metrics.UnexpectedMax {
				e.metrics.UnexpectedMax = int(st.unexpectedN)
			}
		}
	case msgCTS:
		// Back at the sender: push the data. The CTS slot itself becomes
		// the data-message carrier — flip its direction in place; jobSendData
		// completes the rebrand to msgData at injection time.
		sender := int(m.dst)
		m.src, m.dst = m.dst, m.src
		e.jobs.push(&e.ranks[sender].appQ, job{
			kind: jobSendData,
			cost: e.net.SendCPU(m.bytes), // o + (s-1)·O to push the payload
			arg:  s,
		})
		e.dispatch(sender)
	case msgData:
		recvRank := int(m.dst)
		e.jobs.push(&st.appQ, job{kind: jobRecvDone, cost: e.net.RecvCPU(m.bytes), arg: int32(m.recvOp)})
		e.freeMsg(s)
		e.dispatch(recvRank)
	case msgCtl:
		e.jobs.push(&st.ctlQ, job{kind: jobCtlRecv, cost: e.net.RecvCPU(m.bytes), arg: s})
		e.dispatch(int(m.dst))
	}
}

// matched joins the application message in slot s with a posted receive.
// It works on a copy of the message: match hooks may seize CPUs, whose
// grants run agent code that can grow the slab.
func (e *Engine) matched(s int32, recvOp goal.OpID) {
	m := e.msgs[s]
	e.metrics.Matches++
	st := &e.ranks[m.dst]
	if e.cfg.Trace != nil {
		e.emitTrace(TraceEvent{Type: TraceMatch, Rank: int(m.dst), Kind: msgTraceKinds[m.kind],
			Start: e.now, End: e.now, MsgID: m.id, Src: int(m.src), Dst: int(m.dst),
			Tag: m.tag, Bytes: m.bytes, Op: m.op, RecvOp: recvOp})
	}
	for _, h := range e.matchHooks {
		h.MessageMatched(int(m.src), int(m.dst), m.bytes)
	}
	switch m.kind {
	case msgEager:
		recvRank := int(m.dst)
		e.jobs.push(&st.appQ, job{kind: jobRecvDone, cost: e.net.RecvCPU(m.bytes), arg: int32(recvOp)})
		e.freeMsg(s)
		e.dispatch(recvRank)
	case msgRTS:
		// Send CTS back to the data source; costs o on the receiver.
		recvRank := int(m.dst)
		cts := e.newMsg(message{kind: msgCTS, src: m.dst, dst: m.src, tag: m.tag,
			bytes: m.bytes, wire: 0, op: m.op, recvOp: recvOp})
		e.freeMsg(s)
		e.jobs.push(&st.ctlQ, job{kind: jobCtlSend, cost: e.net.Overhead, arg: cts})
		e.dispatch(recvRank)
	default:
		panic("sim: matched non-matchable message")
	}
}

// postRecv posts a receive and tries to match it against the unexpected
// queue in arrival order.
func (e *Engine) postRecv(id goal.OpID) {
	op := e.prog.Op(id)
	st := &e.ranks[op.Rank]
	for prev, i := int32(0), st.unexpected.head; i != 0; prev, i = i, e.unexps.nodes[i].next {
		if s := e.unexps.nodes[i].val; recvMatches(op.Peer, op.Tag, &e.msgs[s]) {
			e.unexps.unlink(&st.unexpected, prev, i)
			st.unexpectedN--
			e.matched(s, id)
			return
		}
	}
	e.posts.push(&st.posted, postedRecv{op: id, peer: op.Peer, tag: op.Tag})
	if st.postedN++; int(st.postedN) > e.metrics.PostedMax {
		e.metrics.PostedMax = int(st.postedN)
	}
}

// matchPosted finds the first posted receive matching m, in post order,
// and returns its node and the node before it; i is 0 when none matches.
func (e *Engine) matchPosted(st *rankState, m *message) (prev, i int32) {
	for i = st.posted.head; i != 0; prev, i = i, e.posts.nodes[i].next {
		if p := &e.posts.nodes[i].val; recvMatches(p.peer, p.tag, m) {
			return prev, i
		}
	}
	return 0, 0
}

// recvMatches applies MPI matching rules to a receive of peer and tag.
func recvMatches(peer, tag int32, m *message) bool {
	return (peer == goal.AnySource || peer == m.src) && (tag == goal.AnyTag || tag == m.tag)
}
