package storage

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"testing"

	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
)

// fakeSched is a minimal deterministic event loop: earliest time first,
// insertion order breaking ties — the same discipline as the real engine.
type fakeSched struct {
	now simtime.Time
	seq int
	q   []fakeEvent
}

type fakeEvent struct {
	t   simtime.Time
	seq int
	fn  func()
}

func (f *fakeSched) Now() simtime.Time { return f.now }

// NumRanks implements Sched: enough ranks for every test's writers.
func (f *fakeSched) NumRanks() int { return 64 }

func (f *fakeSched) At(t simtime.Time, fn func()) {
	if t < f.now {
		panic(fmt.Sprintf("fakeSched: At(%v) in the past (now %v)", t, f.now))
	}
	f.q = append(f.q, fakeEvent{t: t, seq: f.seq, fn: fn})
	f.seq++
}

// AtOwned implements Sched.
func (f *fakeSched) AtOwned(t simtime.Time, o sim.TimerOwner, kind uint8, arg int64) {
	f.At(t, func() { o.OnTimer(kind, arg) })
}

// recorder is a drain continuation that stores the completion time.
type recorder struct {
	sched *fakeSched
	out   *simtime.Time
}

func (r recorder) OnTimer(uint8, int64) { *r.out = r.sched.now }

// run drains the queue to completion.
func (f *fakeSched) run() {
	for len(f.q) > 0 {
		best := 0
		for i := 1; i < len(f.q); i++ {
			if f.q[i].t < f.q[best].t ||
				(f.q[i].t == f.q[best].t && f.q[i].seq < f.q[best].seq) {
				best = i
			}
		}
		ev := f.q[best]
		f.q = append(f.q[:best], f.q[best+1:]...)
		f.now = ev.t
		ev.fn()
	}
}

func gbps(v float64) float64 { return v * 1e9 }

func TestParamsValidate(t *testing.T) {
	if err := (Params{}).Validate(); err != nil {
		t.Errorf("zero params rejected: %v", err)
	}
	bad := []Params{
		{AggregateBytesPerSec: -1},
		{PerWriterBytesPerSec: -1},
		{NodeBytesPerSec: -1},
		{RanksPerNode: -2},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted: %+v", i, p)
		}
		if _, err := New(p); err == nil {
			t.Errorf("New accepted bad params %d", i)
		}
	}
}

func TestUnlimitedPredicates(t *testing.T) {
	u := Unlimited()
	if u.TierLimited(TierGlobal) || u.TierLimited(TierNode) {
		t.Error("Unlimited store reports constraints")
	}
	s, err := New(Params{AggregateBytesPerSec: gbps(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !s.TierLimited(TierGlobal) {
		t.Error("aggregate-limited store not global-limited")
	}
	if s.TierLimited(TierNode) {
		t.Error("node tier limited without node bandwidth")
	}
	// A per-writer cap alone still makes the global tier finite.
	s2, err := New(Params{PerWriterBytesPerSec: gbps(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !s2.TierLimited(TierGlobal) {
		t.Error("per-writer cap ignored by TierLimited")
	}
}

func TestLoneDurationAndBytesFor(t *testing.T) {
	s, err := New(Params{AggregateBytesPerSec: gbps(10), PerWriterBytesPerSec: gbps(1)})
	if err != nil {
		t.Fatal(err)
	}
	// Lone writer is capped at 1 GB/s: 1e6 bytes take exactly 1ms.
	if d := s.LoneDuration(TierGlobal, 1e6); d != simtime.Millisecond {
		t.Errorf("lone duration = %v, want 1ms", d)
	}
	if b := s.BytesFor(TierGlobal, simtime.Millisecond); b != 1e6 {
		t.Errorf("BytesFor(1ms) = %d, want 1e6", b)
	}
	if d := s.LoneDuration(TierNode, 1e6); d != 0 {
		t.Errorf("unconstrained node tier lone duration = %v, want 0", d)
	}
	if b := s.BytesFor(TierNode, simtime.Millisecond); b != 0 {
		t.Errorf("unconstrained BytesFor = %d, want 0", b)
	}
}

// begin starts a write and records its completion time in *out.
func begin(s *Store, rank int, tier Tier, bytes int64, out *simtime.Time) {
	s.Begin(rank, tier, bytes, sim.Call{Owner: recorder{s.sched.(*fakeSched), out}})
}

func TestSoloWrite(t *testing.T) {
	s, _ := New(Params{AggregateBytesPerSec: gbps(1)})
	sched := &fakeSched{}
	s.Bind(sched)
	var end simtime.Time
	sched.At(0, func() { begin(s, 0, TierGlobal, 1e6, &end) })
	sched.run()
	if end != simtime.Time(simtime.Millisecond) {
		t.Errorf("solo 1e6B at 1GB/s ended at %v, want 1ms", end)
	}
	st := s.Stats()
	if st.Writes != 1 || st.Bytes != 1e6 || st.WaitTime != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFairShareTwoWriters(t *testing.T) {
	// Two equal writers from t=0 split the aggregate: both finish at 2x the
	// solo duration.
	s, _ := New(Params{AggregateBytesPerSec: gbps(1)})
	sched := &fakeSched{}
	s.Bind(sched)
	var e0, e1 simtime.Time
	sched.At(0, func() {
		begin(s, 0, TierGlobal, 1e6, &e0)
		begin(s, 1, TierGlobal, 1e6, &e1)
	})
	sched.run()
	want := simtime.Time(2 * simtime.Millisecond)
	if e0 != want || e1 != want {
		t.Errorf("two-writer ends = %v, %v, want %v", e0, e1, want)
	}
	if s.Stats().PeakWriters != 2 {
		t.Errorf("peak writers = %d", s.Stats().PeakWriters)
	}
}

func TestLateJoinerSlowsFirst(t *testing.T) {
	// Writer A (2e6 B at 1 GB/s, solo 2ms) is joined at 1ms by writer B
	// (1e6 B). From 1ms on they share: A's remaining 1e6 B and B's 1e6 B
	// drain at 0.5 GB/s each — both finish at 3ms.
	s, _ := New(Params{AggregateBytesPerSec: gbps(1)})
	sched := &fakeSched{}
	s.Bind(sched)
	var ea, eb simtime.Time
	sched.At(0, func() { begin(s, 0, TierGlobal, 2e6, &ea) })
	sched.At(simtime.Time(simtime.Millisecond), func() { begin(s, 1, TierGlobal, 1e6, &eb) })
	sched.run()
	want := simtime.Time(3 * simtime.Millisecond)
	if ea != want || eb != want {
		t.Errorf("ends = %v, %v, want %v both", ea, eb, want)
	}
	if s.Stats().WaitTime != 2*simtime.Millisecond {
		// A waited 1ms beyond its 2ms solo time, B 1ms beyond its 1ms.
		t.Errorf("wait time = %v, want 2ms", s.Stats().WaitTime)
	}
}

func TestPerWriterCapBindsBeforeAggregate(t *testing.T) {
	// Aggregate 10 GB/s, cap 1 GB/s: four writers are cap-bound, not
	// share-bound — no contention among them.
	s, _ := New(Params{AggregateBytesPerSec: gbps(10), PerWriterBytesPerSec: gbps(1)})
	sched := &fakeSched{}
	s.Bind(sched)
	ends := make([]simtime.Time, 4)
	sched.At(0, func() {
		for i := range ends {
			begin(s, i, TierGlobal, 1e6, &ends[i])
		}
	})
	sched.run()
	for i, e := range ends {
		if e != simtime.Time(simtime.Millisecond) {
			t.Errorf("writer %d ended at %v, want 1ms (cap-bound)", i, e)
		}
	}
	if s.Stats().WaitTime != 0 {
		t.Errorf("cap-bound writers accumulated wait %v", s.Stats().WaitTime)
	}
}

func TestAggregateBindsBeyondCap(t *testing.T) {
	// Aggregate 2 GB/s, cap 1 GB/s, four writers: share 0.5 GB/s each.
	s, _ := New(Params{AggregateBytesPerSec: gbps(2), PerWriterBytesPerSec: gbps(1)})
	sched := &fakeSched{}
	s.Bind(sched)
	ends := make([]simtime.Time, 4)
	sched.At(0, func() {
		for i := range ends {
			begin(s, i, TierGlobal, 1e6, &ends[i])
		}
	})
	sched.run()
	for i, e := range ends {
		if e != simtime.Time(2*simtime.Millisecond) {
			t.Errorf("writer %d ended at %v, want 2ms (share-bound)", i, e)
		}
	}
}

func TestNodeTierIsPerNode(t *testing.T) {
	// Two ranks per node, node bandwidth 1 GB/s. Ranks 0,1 share node 0;
	// rank 2 is alone on node 1. Global tier stays untouched.
	s, _ := New(Params{NodeBytesPerSec: gbps(1), RanksPerNode: 2})
	sched := &fakeSched{}
	s.Bind(sched)
	var e0, e1, e2 simtime.Time
	sched.At(0, func() {
		begin(s, 0, TierNode, 1e6, &e0)
		begin(s, 1, TierNode, 1e6, &e1)
		begin(s, 2, TierNode, 1e6, &e2)
	})
	sched.run()
	if e0 != simtime.Time(2*simtime.Millisecond) || e1 != simtime.Time(2*simtime.Millisecond) {
		t.Errorf("co-located ranks ended at %v, %v, want 2ms", e0, e1)
	}
	if e2 != simtime.Time(simtime.Millisecond) {
		t.Errorf("solo-node rank ended at %v, want 1ms", e2)
	}
}

func TestTiersDoNotContend(t *testing.T) {
	// A global writer and a node writer are independent resources.
	s, _ := New(Params{AggregateBytesPerSec: gbps(1), NodeBytesPerSec: gbps(1)})
	sched := &fakeSched{}
	s.Bind(sched)
	var eg, en simtime.Time
	sched.At(0, func() {
		begin(s, 0, TierGlobal, 1e6, &eg)
		begin(s, 1, TierNode, 1e6, &en)
	})
	sched.run()
	if eg != simtime.Time(simtime.Millisecond) || en != simtime.Time(simtime.Millisecond) {
		t.Errorf("cross-tier contention: global %v, node %v, want 1ms each", eg, en)
	}
}

func TestZeroByteWriteCompletesImmediately(t *testing.T) {
	s, _ := New(Params{AggregateBytesPerSec: gbps(1)})
	sched := &fakeSched{}
	s.Bind(sched)
	end := simtime.Time(-1)
	sched.At(simtime.Time(5), func() { begin(s, 0, TierGlobal, 0, &end) })
	sched.run()
	if end != simtime.Time(5) {
		t.Errorf("zero-byte write ended at %v, want 5ns", end)
	}
}

func TestUnconstrainedTierCompletesImmediately(t *testing.T) {
	s, _ := New(Params{AggregateBytesPerSec: gbps(1)}) // node tier unconstrained
	sched := &fakeSched{}
	s.Bind(sched)
	end := simtime.Time(-1)
	sched.At(simtime.Time(7), func() { begin(s, 0, TierNode, 1e9, &end) })
	sched.run()
	if end != simtime.Time(7) {
		t.Errorf("unconstrained write ended at %v, want 7ns", end)
	}
}

func TestSameTimeJoinOrderIrrelevant(t *testing.T) {
	// Three writers starting at the same instant complete at the same times
	// regardless of Begin call order.
	run := func(order []int) []simtime.Time {
		s, _ := New(Params{AggregateBytesPerSec: gbps(1), PerWriterBytesPerSec: gbps(1)})
		sched := &fakeSched{}
		s.Bind(sched)
		ends := make([]simtime.Time, 3)
		sizes := []int64{1e6, 2e6, 3e6}
		sched.At(0, func() {
			for _, i := range order {
				begin(s, i, TierGlobal, sizes[i], &ends[i])
			}
		})
		sched.run()
		return ends
	}
	a := run([]int{0, 1, 2})
	b := run([]int{2, 0, 1})
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("writer %d: order changed completion %v -> %v", i, a[i], b[i])
		}
	}
	// And the PS closed form holds: with sizes 1,2,3 MB at 1 GB/s shared,
	// completions at 3ms, 5ms, 6ms.
	want := []simtime.Time{
		simtime.Time(3 * simtime.Millisecond),
		simtime.Time(5 * simtime.Millisecond),
		simtime.Time(6 * simtime.Millisecond),
	}
	for i := range want {
		if a[i] != want[i] {
			t.Errorf("writer %d ended at %v, want %v", i, a[i], want[i])
		}
	}
}

func TestBindTwiceSameSchedOK(t *testing.T) {
	s, _ := New(Params{AggregateBytesPerSec: gbps(1)})
	sched := &fakeSched{}
	s.Bind(sched)
	s.Bind(sched) // idempotent
	defer func() {
		if recover() == nil {
			t.Error("binding a second scheduler did not panic")
		}
	}()
	s.Bind(&fakeSched{})
}

func TestBeginBeforeBindPanics(t *testing.T) {
	s, _ := New(Params{AggregateBytesPerSec: gbps(1)})
	defer func() {
		if recover() == nil {
			t.Error("Begin before Bind did not panic")
		}
	}()
	s.Begin(0, TierGlobal, 1, sim.Call{})
}

func TestTierString(t *testing.T) {
	if TierGlobal.String() != "global" || TierNode.String() != "node" {
		t.Error("tier names drifted")
	}
	if Tier(9).String() != "tier(9)" {
		t.Error("unknown tier formatting drifted")
	}
}

func TestParamsString(t *testing.T) {
	p := Params{AggregateBytesPerSec: gbps(8), PerWriterBytesPerSec: gbps(1)}
	got := p.String()
	want := "storage{agg=8 GB/s writer=1 GB/s node=inf ranks/node=1}"
	if got != want {
		t.Errorf("Params.String() = %q, want %q", got, want)
	}
}

// TestManyWritersConservation drives a burst of staggered writers and
// checks the aggregate-bandwidth conservation law end to end.
func TestManyWritersConservation(t *testing.T) {
	const n = 32
	s, _ := New(Params{AggregateBytesPerSec: gbps(1)})
	sched := &fakeSched{}
	s.Bind(sched)
	ends := make([]simtime.Time, n)
	for i := 0; i < n; i++ {
		i := i
		sched.At(simtime.Time(i)*simtime.Time(100*simtime.Microsecond), func() {
			begin(s, i, TierGlobal, 1e6, &ends[i])
		})
	}
	sched.run()
	sorted := append([]simtime.Time(nil), ends...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	last := sorted[n-1]
	// 32 MB through a 1 GB/s pipe needs >= 32ms no matter the schedule.
	if min := simtime.Time(32 * simtime.Millisecond); last < min {
		t.Errorf("32MB drained by %v — faster than the 1GB/s pipe allows (%v)", last, min)
	}
	if got := s.Stats().Bytes; got != 32e6 {
		t.Errorf("drained bytes = %d, want 32e6", got)
	}
}

// BindFlags reads bandwidths in GB/s into the bytes/s fields and keeps the
// current values as defaults.
func TestBindFlags(t *testing.T) {
	p := Params{NodeBytesPerSec: 4e9}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	p.BindFlags(fs)
	if got := fs.Lookup("store-node").DefValue; got != "4" {
		t.Errorf("-store-node default renders as %q, want 4", got)
	}
	if err := fs.Parse([]string{"-store-agg", "2", "-store-writer", "0.3", "-ranks-per-node", "8"}); err != nil {
		t.Fatal(err)
	}
	want := Params{AggregateBytesPerSec: 2e9, PerWriterBytesPerSec: 0.3 * 1e9, NodeBytesPerSec: 4e9, RanksPerNode: 8}
	if p != want {
		t.Errorf("bound %+v, want %+v", p, want)
	}
	if err := fs.Parse([]string{"-store-agg", "fast"}); err == nil {
		t.Error("-store-agg fast accepted")
	}
}
