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

func TestClear(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 10; i++ {
		q.Push(simtime.Time(i), i)
	}
	q.Clear()
	if q.Len() != 0 {
		t.Error("Clear did not empty")
	}
	// Still usable and still ordered after Clear (sequence keeps rising).
	q.Push(2, 2)
	q.Push(1, 1)
	if _, v := q.Pop(); v != 1 {
		t.Error("queue broken after Clear")
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
			for i := 0; i < 200; i++ {
				if q.Len() == 0 || r.Float64() < 0.5 {
					q.Push(simtime.Time(r.Intn(50)), i)
				} else {
					_, v := q.Pop()
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
// in pop order, and reloading its items with Load/SetSeq into a fresh
// queue must reproduce the exact pop sequence — (time, insertion order)
// both preserved — and leave the sequence counter positioned so future
// pushes sort after every restored event.
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
		for i := 0; i < n/3; i++ {
			q.Pop()
		}

		var restored Queue[int]
		restored.Push(999, -1) // pre-existing content must not survive Clear
		restored.Clear()
		if restored.Len() != 0 {
			t.Fatal("Clear left items behind")
		}
		count := 0
		var lastT simtime.Time
		var lastSeq uint64
		q.Items(func(tm simtime.Time, seq uint64, v int) bool {
			// Pop order, whatever the heap's layout: a snapshot's bytes
			// depend on the queued keys alone.
			if count > 0 && (tm < lastT || tm == lastT && seq <= lastSeq) {
				t.Fatalf("Items visited (%v, %d) after (%v, %d)", tm, seq, lastT, lastSeq)
			}
			lastT, lastSeq = tm, seq
			restored.Load(tm, seq, v)
			count++
			return true
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
				q.Push(0, 777)
				restored.Push(0, 777)
			}
			t1, v1 := q.Pop()
			t2, v2 := restored.Pop()
			if t1 != t2 || v1 != v2 {
				t.Fatalf("pop %d diverged: (%v,%v) vs (%v,%v)", step, t1, v1, t2, v2)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestItemsEarlyStop: a visitor returning false stops the walk.
func TestItemsEarlyStop(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 10; i++ {
		q.Push(simtime.Time(i), i)
	}
	visits := 0
	q.Items(func(simtime.Time, uint64, int) bool {
		visits++
		return visits < 3
	})
	if visits != 3 {
		t.Errorf("visited %d items after stopping at 3", visits)
	}
	if q.Len() != 10 {
		t.Errorf("Items disturbed the queue: %d items left", q.Len())
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

// TestLoadEqualTimesAnyOrder pins Load's contract that a restore may load
// events in any order: events tied on time pop by sequence whatever order
// they were loaded in. Blobs written before the queue was encoded sorted
// store it unsorted, and restoring them depends on this. The test loads
// ties behind an earlier event into a fresh queue, then ties at exactly the
// last popped time, then a whole queue's items in a random order.
func TestLoadEqualTimesAnyOrder(t *testing.T) {
	r := rng.New(5)
	expect := func(q *Queue[int], tm simtime.Time, seqs int) {
		t.Helper()
		for s := 1; s <= seqs; s++ {
			if gt, v := q.Pop(); gt != tm || v != s {
				t.Fatalf("popped (%d, seq %d), want (%d, seq %d)", gt, v, tm, s)
			}
		}
	}

	var q Queue[int]
	for _, p := range r.Perm(16) {
		q.Load(100, uint64(p+1), p+1) // the payload is the sequence
	}
	q.Load(50, 99, 0)
	if tm, v := q.Pop(); tm != 50 || v != 0 {
		t.Fatalf("popped (%d, %d), want the earlier event (50, 0)", tm, v)
	}
	expect(&q, 100, 16)

	// The queue last popped time 100: these ties load straight into the
	// bucket it pops from.
	q.Load(300, 50, 50)
	for _, p := range r.Perm(16) {
		q.Load(100, uint64(p+1), p+1)
	}
	expect(&q, 100, 16)
	if tm, v := q.Pop(); tm != 300 || v != 50 || q.Len() != 0 {
		t.Fatalf("popped (%d, %d) with %d left, want (300, 50) last", tm, v, q.Len())
	}

	// A whole queue, dense in ties, reloaded in a random order pops exactly
	// as the original does, fresh pushes included.
	var orig, restored Queue[int]
	for i := 0; i < 2000; i++ {
		orig.Push(simtime.Time(1000+r.Intn(32)), i)
	}
	for i := 0; i < 500; i++ {
		tm, v := orig.Pop()
		orig.Push(tm+simtime.Time(r.Intn(4)), v)
	}
	type item struct {
		t   simtime.Time
		seq uint64
		v   int
	}
	var items []item
	orig.Items(func(tm simtime.Time, seq uint64, v int) bool {
		items = append(items, item{tm, seq, v})
		return true
	})
	for _, p := range r.Perm(len(items)) {
		restored.Load(items[p].t, items[p].seq, items[p].v)
	}
	restored.SetSeq(orig.Seq())
	for step := 0; orig.Len() > 0; step++ {
		if step%7 == 0 {
			tm := simtime.Time(1000 + r.Intn(64))
			orig.Push(tm, -step)
			restored.Push(tm, -step)
		}
		t1, v1 := orig.Pop()
		t2, v2 := restored.Pop()
		if t1 != t2 || v1 != v2 {
			t.Fatalf("pop %d diverged: (%d, %d) vs (%d, %d)", step, t1, v1, t2, v2)
		}
	}
	if restored.Len() != 0 {
		t.Fatalf("restored queue has %d leftover events", restored.Len())
	}
}
