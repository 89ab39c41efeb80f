// Package storage models shared checkpoint storage as a simulated resource.
//
// Every checkpoint protocol in this repo used to charge a fixed per-rank
// write duration, so a coordinated round where all P ranks hit the
// filesystem simultaneously cost the same per rank as a staggered schedule
// where one rank writes at a time. This package makes burst contention
// emergent instead of asserted: a Store exposes two tiers — a node-local
// burst buffer with per-node bandwidth, and a global parallel filesystem
// with finite aggregate bandwidth and a configurable per-writer cap — and
// arbitrates concurrent writers with fair-share (processor-sharing)
// semantics. When k ranks write to the PFS concurrently, each rank's
// remaining bytes drain at min(perWriterCap, aggregate/k); shares are
// recomputed whenever a writer joins or leaves, so a write's *duration* is
// a dynamic function of cluster-wide checkpoint scheduling.
//
// The store schedules its internal events through the Sched interface,
// which *sim.Context satisfies: protocols bind the store to the running
// simulation and route their writes through it (Write; see
// internal/checkpoint). All of its pending work — completion timers, drain
// continuations, writes awaiting their CPU grant — is plain data, so a
// snapshot can capture the store mid-drain. A Store is single-run state —
// build a fresh one per simulation.
//
// # Determinism
//
// All drain arithmetic is float64 bytes over integer-nanosecond intervals,
// recomputed from the full writer set at each membership change (never
// accumulated incrementally across same-time events), so completion times
// are a pure function of the sequence of (time, join/leave) events —
// identical across any ordering of same-timestamp joins. Completion times
// are rounded up to the next nanosecond: a write never finishes before its
// bytes have drained, and bytes drained never exceed capacity × elapsed.
package storage

import (
	"flag"
	"fmt"
	"math"
	"strconv"

	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
)

// Tier selects which storage tier a write targets.
type Tier uint8

const (
	// TierGlobal is the parallel filesystem: one aggregate bandwidth shared
	// by every concurrent writer machine-wide, with an optional per-writer
	// cap (a single client cannot saturate the PFS alone).
	TierGlobal Tier = iota
	// TierNode is the node-local burst buffer: each node has its own
	// bandwidth, shared only by the ranks co-located on that node.
	TierNode
)

// String returns the lowercase tier name.
func (t Tier) String() string {
	switch t {
	case TierGlobal:
		return "global"
	case TierNode:
		return "node"
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// Sched is the event-scheduling surface the store needs from the simulator;
// *sim.Context satisfies it.
type Sched interface {
	// Now returns the current simulated time.
	Now() simtime.Time
	// NumRanks returns the number of ranks, which sizes the per-node state.
	NumRanks() int
	// AtOwned schedules o.OnTimer(kind, arg) at absolute time t (>= Now).
	AtOwned(t simtime.Time, o sim.TimerOwner, kind uint8, arg int64)
}

// Phase markers the store emits on a write's start and on its drain; detail
// is the write's byte count.
const (
	MarkStoreBegin = "store-begin"
	MarkStoreEnd   = "store-end"
)

// Marker is optionally implemented by the bound Sched (*sim.Context does):
// when present, the store emits MarkStoreBegin/MarkStoreEnd phase markers on
// the trace channel, carrying the write's byte count, so a trace validator
// can check that every byte written is eventually drained. Fake schedulers
// in tests need not implement it.
type Marker interface {
	Mark(rank int, name string, detail int64)
}

// Params describe the storage system. Zero values leave the corresponding
// resource unconstrained; the all-zero Params is the Unlimited store.
type Params struct {
	// AggregateBytesPerSec is the PFS aggregate write bandwidth shared by
	// all concurrent TierGlobal writers (0 = unlimited).
	AggregateBytesPerSec float64
	// PerWriterBytesPerSec caps one writer's share of the PFS — a single
	// compute node's injection limit (0 = no cap).
	PerWriterBytesPerSec float64
	// NodeBytesPerSec is each node's burst-buffer write bandwidth, shared
	// by the RanksPerNode ranks of that node (0 = unlimited).
	NodeBytesPerSec float64
	// RanksPerNode maps ranks to nodes: rank r lives on node r/RanksPerNode
	// (0 defaults to 1 — every rank its own node).
	RanksPerNode int
}

// Validate checks the parameter set.
func (p Params) Validate() error {
	for _, v := range []float64{p.AggregateBytesPerSec, p.PerWriterBytesPerSec, p.NodeBytesPerSec} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("storage: bad bandwidth %v", v)
		}
	}
	if p.RanksPerNode < 0 {
		return fmt.Errorf("storage: negative ranks per node %d", p.RanksPerNode)
	}
	return nil
}

// String renders the parameter set for run headers.
func (p Params) String() string {
	gb := func(v float64) string {
		if v <= 0 {
			return "inf"
		}
		return fmt.Sprintf("%.4g GB/s", v/1e9)
	}
	return fmt.Sprintf("storage{agg=%s writer=%s node=%s ranks/node=%d}",
		gb(p.AggregateBytesPerSec), gb(p.PerWriterBytesPerSec),
		gb(p.NodeBytesPerSec), p.ranksPerNode())
}

// BindFlags registers the flags that set p on fs: -store-agg, -store-writer
// and -store-node in GB/s, and -ranks-per-node. p's current values are the
// defaults.
func (p *Params) BindFlags(fs *flag.FlagSet) {
	fs.Var((*gbPerSec)(&p.AggregateBytesPerSec), "store-agg", "aggregate PFS bandwidth in GB/s (0 = unconstrained)")
	fs.Var((*gbPerSec)(&p.PerWriterBytesPerSec), "store-writer", "per-writer PFS bandwidth cap in GB/s (0 = uncapped)")
	fs.Var((*gbPerSec)(&p.NodeBytesPerSec), "store-node", "node-local burst-buffer bandwidth in GB/s (0 = unconstrained)")
	fs.IntVar(&p.RanksPerNode, "ranks-per-node", p.RanksPerNode, "ranks per node for the node storage tier (0 = 1)")
}

// gbPerSec is a bandwidth in bytes/s that a flag reads and prints in GB/s.
type gbPerSec float64

func (g *gbPerSec) String() string { return strconv.FormatFloat(float64(*g)/1e9, 'g', -1, 64) }

func (g *gbPerSec) Set(s string) error {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return err
	}
	*g = gbPerSec(v * 1e9)
	return nil
}

func (p Params) ranksPerNode() int {
	if p.RanksPerNode <= 0 {
		return 1
	}
	return p.RanksPerNode
}

// write is one in-flight drain, or (in Store.waiting) one Write awaiting
// its CPU grant.
type write struct {
	rank      int
	node      int
	tier      Tier
	remaining float64 // bytes left to drain
	bytes     int64
	start     simtime.Time
	drained   sim.Call // runs when the last byte has left
}

// Store timer kinds (OnTimer).
const (
	storeTick    uint8 = iota // projected next completion; arg = generation
	storeGranted              // a Write's CPU seizure was granted; arg = rank
	storeDrained              // a Write's image drained; arg = rank
)

// Store arbitrates concurrent checkpoint writes. Build one per simulation
// with New (or Unlimited) and bind it to the engine with Bind before — or
// at — the first write.
type Store struct {
	p     Params
	sched Sched
	// active writes in insertion order, held by value so that a drain
	// allocates nothing once the slice has grown to the peak writer count;
	// rates are recomputed from the full set at every membership change.
	writes []write
	// done is onTimer's reused buffer of the writes a tick retires.
	done []write
	// waiting holds Writes whose CPU seizure is not yet granted, in request
	// order; a rank's seizures are granted in that order.
	waiting []write
	// nodeCount caches the number of active TierNode writes per node (sized
	// at Bind to the simulation's nodes); globalCount the number of active
	// TierGlobal writes.
	nodeCount   []int
	globalCount int
	lastAt      simtime.Time // time writes were last advanced to
	gen         uint64       // invalidates superseded completion timers
	stats       Stats
}

// Stats accumulates storage-level counters during a run.
type Stats struct {
	// Writes counts completed drains.
	Writes int64
	// Bytes sums the bytes drained by completed writes.
	Bytes int64
	// WaitTime sums, over completed writes, the drain time in excess of the
	// lone-writer duration — the contention-induced wait.
	WaitTime simtime.Duration
	// PeakWriters is the maximum number of concurrent writers observed
	// (both tiers).
	PeakWriters int
}

// New validates the parameter set and builds a store.
func New(p Params) (*Store, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Store{p: p}, nil
}

// Unlimited returns a store with no bandwidth constraints — the legacy
// fixed-duration write path. Protocols detect it via TierLimited and
// reproduce pre-storage results byte-identically.
func Unlimited() *Store { return &Store{} }

// Params returns the store's parameter set.
func (s *Store) Params() Params { return s.p }

// Stats returns the accumulated counters.
func (s *Store) Stats() Stats { return s.stats }

// TierLimited reports whether writes to the given tier face a finite
// bandwidth. Unconstrained tiers take the legacy fixed-duration path.
func (s *Store) TierLimited(t Tier) bool {
	switch t {
	case TierNode:
		return s.p.NodeBytesPerSec > 0
	default:
		return s.p.AggregateBytesPerSec > 0 || s.p.PerWriterBytesPerSec > 0
	}
}

// loneRate returns the drain rate (bytes/sec) of a solo writer on tier, or
// +Inf when the tier is unconstrained.
func (s *Store) loneRate(t Tier) float64 {
	switch t {
	case TierNode:
		if s.p.NodeBytesPerSec > 0 {
			return s.p.NodeBytesPerSec
		}
		return math.Inf(1)
	default:
		r := math.Inf(1)
		if s.p.AggregateBytesPerSec > 0 {
			r = s.p.AggregateBytesPerSec
		}
		if s.p.PerWriterBytesPerSec > 0 && s.p.PerWriterBytesPerSec < r {
			r = s.p.PerWriterBytesPerSec
		}
		return r
	}
}

// LoneDuration returns how long a solo writer takes to drain bytes on tier
// (zero when the tier is unconstrained) — the contention-free floor of any
// write, and the "nominal" component of the checkpoint/io-wait accounting
// split.
func (s *Store) LoneDuration(t Tier, bytes int64) simtime.Duration {
	r := s.loneRate(t)
	if math.IsInf(r, 1) || bytes <= 0 {
		return 0
	}
	return ceilSeconds(float64(bytes) / r)
}

// BytesFor returns the image size whose solo write on tier lasts d — how
// protocols translate a legacy fixed Write duration into bytes, so that
// uncontended store writes keep their pre-storage durations.
func (s *Store) BytesFor(t Tier, d simtime.Duration) int64 {
	r := s.loneRate(t)
	if math.IsInf(r, 1) || d <= 0 {
		return 0
	}
	return int64(math.Round(d.Seconds() * r))
}

// Bind attaches the store to a scheduler (idempotent for the same one).
// Protocol write helpers call it with their *sim.Context; binding one store
// to two different simulations is a bug.
func (s *Store) Bind(sc Sched) {
	if s.sched == sc {
		return
	}
	if s.sched != nil {
		panic("storage: store bound to a second scheduler — build one store per simulation")
	}
	s.sched = sc
	s.lastAt = sc.Now()
	s.sizeNodes()
	if ctx, ok := sc.(*sim.Context); ok {
		ctx.OwnTimers(s)
	}
}

// sizeNodes zeroes the per-node membership counts, one for each node of
// the bound scheduler's ranks.
func (s *Store) sizeNodes() {
	s.nodeCount = make([]int, s.node(s.sched.NumRanks()-1)+1)
}

// SnapshotState walks the store's complete mutable state through c, the
// in-flight drains (remaining bytes bit-exact) and the Writes awaiting
// their grant included; the membership caches are rebuilt from the
// restored writes. Protocols call it from their own SnapshotState. On
// restore it rebinds the store to ctx — unlike Bind, it deliberately
// overrides an existing binding, because the same Store object may have
// been driven by the snapshotting engine before being restored into the
// resuming one.
func (s *Store) SnapshotState(ctx *sim.Context, c *snapshot.Codec) {
	if c.Decoding() {
		s.sched = ctx
		ctx.OwnTimers(s)
		s.sizeNodes()
		s.globalCount = 0
	}
	c.U64(&s.gen)
	snapshot.Int(c, &s.stats.Writes)
	snapshot.Int(c, &s.stats.Bytes)
	snapshot.Int(c, &s.stats.WaitTime)
	snapshot.Int(c, &s.stats.PeakWriters)
	snapshot.Int(c, &s.lastAt)
	if s.lastAt > ctx.Now() {
		c.Failf("store clock %v ahead of the engine's %v", s.lastAt, ctx.Now())
	}
	if n := c.Len(len(s.writes)); c.Decoding() {
		s.writes = make([]write, n)
	}
	for i := range s.writes {
		w := &s.writes[i]
		s.snapshotWrite(ctx, c, w)
		c.F64(&w.remaining)
		snapshot.Int(c, &w.start)
		ctx.SnapshotCall(c, &w.drained)
		if !(w.remaining >= 0 && w.remaining <= float64(w.bytes)) || w.start > s.lastAt {
			c.Failf("store write out of range")
		}
		if c.Decoding() {
			s.join(w, +1)
		}
	}
	if n := c.Len(len(s.waiting)); c.Decoding() {
		s.waiting = make([]write, n)
	}
	for i := range s.waiting {
		s.snapshotWrite(ctx, c, &s.waiting[i])
	}
}

// snapshotWrite walks a write's identity, deriving its node.
func (s *Store) snapshotWrite(ctx *sim.Context, c *snapshot.Codec, w *write) {
	snapshot.Int(c, &w.rank)
	c.U8((*uint8)(&w.tier))
	snapshot.Int(c, &w.bytes)
	if w.rank < 0 || w.rank >= ctx.NumRanks() || w.tier > TierNode || w.bytes < 0 {
		c.Failf("store write out of range")
		w.rank, w.tier = 0, TierGlobal
	}
	w.node = s.node(w.rank)
}

// node returns the node hosting rank.
func (s *Store) node(rank int) int { return rank / s.p.ranksPerNode() }

// mark emits a phase marker when the bound scheduler supports it.
func (s *Store) mark(rank int, name string, detail int64) {
	if m, ok := s.sched.(Marker); ok {
		m.Mark(rank, name, detail)
	}
}

// Write performs one checkpoint write of bytes from rank to tier as a CPU
// seizure (Context.SeizeCPUDynamic): once the CPU is granted the image
// drains under fair-share arbitration, the seizure lasts until the last
// byte has left, and done then runs. The lone-writer part of the occupancy
// is accounted under reason, the contention-induced excess under
// waitReason.
func (s *Store) Write(ctx *sim.Context, rank int, tier Tier, bytes int64, reason, waitReason string, done sim.Call) {
	s.Bind(ctx)
	s.waiting = append(s.waiting, write{rank: rank, node: s.node(rank), tier: tier, bytes: bytes})
	ctx.SeizeCPUDynamic(rank, s.LoneDuration(tier, bytes), reason, waitReason,
		sim.Call{Owner: s, Kind: storeGranted, Arg: int64(rank)}, done)
}

// grant starts draining rank's oldest waiting Write: the engine grants a
// rank's seizures in request order.
func (s *Store) grant(rank int) {
	for i, w := range s.waiting {
		if w.rank == rank {
			s.waiting = append(s.waiting[:i], s.waiting[i+1:]...)
			s.Begin(rank, w.tier, w.bytes, sim.Call{Owner: s, Kind: storeDrained, Arg: int64(rank)})
			return
		}
	}
}

// Begin starts draining bytes written by rank to tier; drained runs exactly
// once, at the completion time, when the last byte has left. Must be
// called from inside an event callback of the bound scheduler. Writes to an
// unconstrained tier complete after zero time (callers normally route those
// through the legacy fixed-duration path instead).
func (s *Store) Begin(rank int, tier Tier, bytes int64, drained sim.Call) {
	if s.sched == nil {
		panic("storage: Begin before Bind")
	}
	if bytes < 0 {
		panic(fmt.Sprintf("storage: negative write size %d", bytes))
	}
	now := s.sched.Now()
	s.advance(now)
	s.writes = append(s.writes, write{
		rank: rank, node: s.node(rank), tier: tier,
		remaining: float64(bytes), bytes: bytes, start: now, drained: drained,
	})
	s.mark(rank, MarkStoreBegin, bytes)
	s.join(&s.writes[len(s.writes)-1], +1)
	if n := len(s.writes); n > s.stats.PeakWriters {
		s.stats.PeakWriters = n
	}
	s.reschedule()
}

// join updates the membership counts by delta for w's resource.
func (s *Store) join(w *write, delta int) {
	if w.tier == TierNode {
		s.nodeCount[w.node] += delta
	} else {
		s.globalCount += delta
	}
}

// rate returns w's current fair share in bytes/sec given the membership
// counts. Unconstrained tiers drain infinitely fast.
func (s *Store) rate(w *write) float64 {
	if w.tier == TierNode {
		if s.p.NodeBytesPerSec <= 0 {
			return math.Inf(1)
		}
		return s.p.NodeBytesPerSec / float64(s.nodeCount[w.node])
	}
	r := math.Inf(1)
	if s.p.AggregateBytesPerSec > 0 {
		r = s.p.AggregateBytesPerSec / float64(s.globalCount)
	}
	if s.p.PerWriterBytesPerSec > 0 && s.p.PerWriterBytesPerSec < r {
		r = s.p.PerWriterBytesPerSec
	}
	return r
}

// advance drains every active write from lastAt to now at the rates implied
// by the current (unchanged since lastAt) membership.
func (s *Store) advance(now simtime.Time) {
	dt := now.Sub(s.lastAt).Seconds()
	for i := range s.writes {
		w := &s.writes[i]
		r := s.rate(w)
		if math.IsInf(r, 1) {
			// Unconstrained tier: the write drains instantly even across a
			// zero-width interval.
			w.remaining = 0
			continue
		}
		if dt > 0 {
			w.remaining -= r * dt
			if w.remaining < 0 {
				w.remaining = 0
			}
		}
	}
	s.lastAt = now
}

// completionEps absorbs float residue when deciding a write has drained:
// well below one byte, and far below what any realistic rate moves per
// nanosecond, so it can neither strand a finished write nor complete a real
// one early.
const completionEps = 1e-3

// reschedule arms (or re-arms) the next completion timer. Superseded timers
// are invalidated by the generation counter.
func (s *Store) reschedule() {
	s.gen++
	if len(s.writes) == 0 {
		return
	}
	minDt := math.Inf(1)
	for i := range s.writes {
		w := &s.writes[i]
		r := s.rate(w)
		var dt float64
		if math.IsInf(r, 1) || w.remaining <= completionEps {
			dt = 0
		} else {
			dt = w.remaining / r
		}
		if dt < minDt {
			minDt = dt
		}
	}
	s.sched.AtOwned(s.lastAt.Add(ceilSeconds(minDt)), s, storeTick, int64(s.gen))
}

// OnTimer receives the store's pending work: completion timers (arg is the
// scheduling generation; stale generations are superseded no-ops, and the
// firing time is the scheduler's current Now), and the grant and drain of
// a Write's CPU seizure (arg is the rank).
func (s *Store) OnTimer(kind uint8, arg int64) {
	switch kind {
	case storeTick:
		if uint64(arg) == s.gen {
			s.onTimer(s.sched.Now())
		}
	case storeGranted:
		s.grant(int(arg))
	case storeDrained:
		s.sched.(*sim.Context).ReleaseSeizure(int(arg))
	}
}

// onTimer fires at the projected next completion: advance, retire every
// drained write, recompute shares for the survivors. The retired writes are
// copied into the reused done buffer before any drained callback runs, so
// a callback may Begin new writes; the buffer is detached meanwhile, so
// even a nested tick could not overwrite it.
func (s *Store) onTimer(t simtime.Time) {
	s.advance(t)
	done := s.done[:0]
	s.done = nil
	kept := s.writes[:0]
	for _, w := range s.writes {
		if w.remaining <= completionEps {
			done = append(done, w)
			s.join(&w, -1)
		} else {
			kept = append(kept, w)
		}
	}
	s.writes = kept
	s.reschedule()
	for i := range done {
		w := &done[i]
		s.mark(w.rank, MarkStoreEnd, w.bytes)
		s.stats.Writes++
		s.stats.Bytes += w.bytes
		if wait := t.Sub(w.start) - s.LoneDuration(w.tier, w.bytes); wait > 0 {
			s.stats.WaitTime += wait
		}
		if d := w.drained; d.Owner != nil {
			d.Owner.OnTimer(d.Kind, d.Arg)
		}
	}
	s.done = done
}

// ceilSeconds converts a float64 second count to a Duration, rounding up so
// completions never precede the last byte.
func ceilSeconds(sec float64) simtime.Duration {
	v := math.Ceil(sec * 1e9)
	if v >= float64(math.MaxInt64) {
		return simtime.Forever
	}
	if v <= 0 {
		return 0
	}
	return simtime.Duration(v)
}
