package eventq

import (
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"checkpointsim/internal/rng"
	"checkpointsim/internal/simtime"
)

func TestEmptyQueue(t *testing.T) {
	var q Queue[int]
	if q.Len() != 0 {
		t.Error("new queue not empty")
	}
}

func TestPopPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pop on empty did not panic")
		}
	}()
	var q Queue[int]
	q.Pop()
}

// TestPushBeforeLastPopPanics pins the monotone contract: once an event at
// time 20 has popped, a push at 19 panics, and a push at 20 does not.
func TestPushBeforeLastPopPanics(t *testing.T) {
	var q Queue[int]
	q.Push(10, 0)
	q.Push(20, 1)
	q.Push(30, 2)
	q.Pop()
	q.Pop()
	q.Push(20, 3)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Push before the last popped time did not panic")
			}
		}()
		q.Push(19, 4)
	}()
	for _, want := range []int{3, 2} {
		if _, v := q.Pop(); v != want {
			t.Fatalf("popped %d, want %d", v, want)
		}
	}
	if q.Len() != 0 {
		t.Errorf("Len = %d after draining, want 0", q.Len())
	}
}

// TestLoadTiesOutOfOrderPanics: events tied on time must be loaded in
// sequence order. Loaded the other way round, they reach the head out of
// order, and the queue panics instead of popping them in load order.
func TestLoadTiesOutOfOrderPanics(t *testing.T) {
	var q Queue[int]
	q.Load(5, 2, 2)
	q.Load(5, 1, 1)
	defer func() {
		if recover() == nil {
			t.Error("ties loaded in descending sequence order did not panic")
		}
	}()
	q.Pop()
}

func TestOrderingByTime(t *testing.T) {
	var q Queue[string]
	q.Push(30, "c")
	q.Push(10, "a")
	q.Push(20, "b")
	for _, want := range []string{"a", "b", "c"} {
		if _, v := q.Pop(); v != want {
			t.Errorf("pop = %q, want %q", v, want)
		}
	}
}

func TestFIFOAtSameTime(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 100; i++ {
		q.Push(5, i)
	}
	for i := 0; i < 100; i++ {
		_, v := q.Pop()
		if v != i {
			t.Fatalf("same-time events out of insertion order: got %d want %d", v, i)
		}
	}
}

func TestHeapSortsRandomInput(t *testing.T) {
	r := rng.New(42)
	var q Queue[int]
	n := 5000
	times := make([]int64, n)
	for i := 0; i < n; i++ {
		tm := int64(r.Intn(1000))
		times[i] = tm
		q.Push(simtime.Time(tm), i)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	prev := simtime.Time(-1)
	for i := 0; i < n; i++ {
		tm, _ := q.Pop()
		if tm < prev {
			t.Fatalf("pop %d out of order: %d after %d", i, tm, prev)
		}
		if int64(tm) != times[i] {
			t.Fatalf("pop %d time %d, want %d", i, tm, times[i])
		}
		prev = tm
	}
}

func TestInterleavedPushPop(t *testing.T) {
	r := rng.New(7)
	var q Queue[int64]
	var popped []int64
	now := simtime.Time(0)
	for i := 0; i < 10000; i++ {
		if q.Len() == 0 || r.Float64() < 0.6 {
			// schedule in the future relative to last popped time
			q.Push(now+simtime.Time(r.Intn(100)), int64(i))
		} else {
			tm, _ := q.Pop()
			if tm < now {
				t.Fatalf("time went backwards: %d < %d", tm, now)
			}
			now = tm
			popped = append(popped, int64(tm))
		}
	}
	for i := 1; i < len(popped); i++ {
		if popped[i] < popped[i-1] {
			t.Fatal("popped sequence not monotone")
		}
	}
}

// Property: for any set of times, popping yields them in sorted order.
func TestQuickSortsAnything(t *testing.T) {
	f := func(ts []uint16) bool {
		var q Queue[int]
		for i, v := range ts {
			q.Push(simtime.Time(v), i)
		}
		want := append([]uint16(nil), ts...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			tm, _ := q.Pop()
			if tm != simtime.Time(want[i]) {
				return false
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: determinism — identical operation sequences produce identical
// pop sequences.
func TestQuickDeterministic(t *testing.T) {
	f := func(seed uint32) bool {
		run := func() []int {
			r := rng.New(uint64(seed))
			var q Queue[int]
			var out []int
			var now simtime.Time
			for i := 0; i < 200; i++ {
				if q.Len() == 0 || r.Float64() < 0.5 {
					q.Push(now+simtime.Time(r.Intn(50)), i)
				} else {
					var v int
					now, v = q.Pop()
					out = append(out, v)
				}
			}
			for q.Len() > 0 {
				_, v := q.Pop()
				out = append(out, v)
			}
			return out
		}
		a, b := run(), run()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	r := rng.New(1)
	var q Queue[int]
	for i := 0; i < 1024; i++ {
		q.Push(simtime.Time(r.Intn(1<<20)), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm, v := q.Pop()
		q.Push(tm+simtime.Time(r.Intn(1024)), v)
	}
}

// TestMemoryBoundedByPopulation runs BenchmarkPushPop's hold model — a
// constant 1024 queued events, each pop pushed back under 1024 ns later —
// and requires the queue to stop allocating once it holds its population:
// 200k operations may allocate under 1 MB in total. A structure whose
// internal state grows with the operation count rather than the population
// fails here long before it runs a real simulation out of memory.
func TestMemoryBoundedByPopulation(t *testing.T) {
	r := rng.New(1)
	var q Queue[int]
	for i := 0; i < 1024; i++ {
		q.Push(simtime.Time(r.Intn(1<<20)), i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 200_000; i++ {
		tm, v := q.Pop()
		q.Push(tm+simtime.Time(r.Intn(1024)), v)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("200k hold operations at depth 1024 allocated %d bytes, want < 1 MB", grew)
	}
	if q.Len() != 1024 {
		t.Errorf("Len = %d after the hold loop, want 1024", q.Len())
	}
}

// TestItemsLoadRoundTrip drives the snapshot-support API: Items must visit
// in pop order, and reloading its items in that order with Load/SetSeq into
// a fresh queue must reproduce the exact pop sequence — (time, insertion
// order) both preserved — and leave the sequence counter positioned so
// future pushes sort after every restored event.
func TestItemsLoadRoundTrip(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		var q Queue[int]
		n := r.Intn(64) + 1
		for i := 0; i < n; i++ {
			// A tight time range forces plenty of ties, so the sequence
			// component actually decides order.
			q.Push(simtime.Time(r.Intn(8)), i)
		}
		// Pop a few to move the heap away from pure insertion shape.
		var now simtime.Time
		for i := 0; i < n/3; i++ {
			now, _ = q.Pop()
		}

		var restored Queue[int]
		count := 0
		var lastT simtime.Time
		var lastSeq uint64
		q.Items(func(tm simtime.Time, seq uint64, v int) {
			// Pop order, whatever the heap's layout: a snapshot's bytes
			// depend on the queued keys alone.
			if count > 0 && (tm < lastT || tm == lastT && seq <= lastSeq) {
				t.Fatalf("Items visited (%v, %d) after (%v, %d)", tm, seq, lastT, lastSeq)
			}
			lastT, lastSeq = tm, seq
			restored.Load(tm, seq, v)
			count++
		})
		if count != q.Len() {
			t.Fatalf("Items visited %d of %d items", count, q.Len())
		}
		restored.SetSeq(q.Seq())
		if restored.Seq() != q.Seq() {
			t.Fatalf("SetSeq(%d) reads back %d", q.Seq(), restored.Seq())
		}

		// Both queues now pop identically, including after interleaved
		// fresh pushes (which must order consistently after restored ties).
		for step := 0; q.Len() > 0 || restored.Len() > 0; step++ {
			if q.Len() != restored.Len() {
				t.Fatalf("length diverged: %d vs %d", q.Len(), restored.Len())
			}
			if step == 2 {
				q.Push(now, 777)
				restored.Push(now, 777)
			}
			t1, v1 := q.Pop()
			t2, v2 := restored.Pop()
			if t1 != t2 || v1 != v2 {
				t.Fatalf("pop %d diverged: (%v,%v) vs (%v,%v)", step, t1, v1, t2, v2)
			}
			now = t1
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSameTimeCascade holds 1024 events at one instant and pushes each
// popped event straight back at that instant: 200k operations must pop in
// strict FIFO order and allocate under 1 MB in total. This is the shape that
// let the old calendar queue grow with the operation count rather than the
// population.
func TestSameTimeCascade(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 1024; i++ {
		q.Push(7, i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 200_000; i++ {
		tm, v := q.Pop()
		if tm != 7 || v != i%1024 {
			t.Fatalf("op %d popped (%d, %d), want (7, %d)", i, tm, v, i%1024)
		}
		q.Push(7, v)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("200k same-time operations at depth 1024 allocated %d bytes, want < 1 MB", grew)
	}
	if q.Len() != 1024 {
		t.Errorf("Len = %d after the cascade, want 1024", q.Len())
	}
}
