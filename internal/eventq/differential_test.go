package eventq

import (
	"container/heap"
	"testing"
	"testing/quick"

	"checkpointsim/internal/rng"
	"checkpointsim/internal/simtime"
)

// refEvent / refHeap are a textbook container/heap binary heap on the full
// (t, seq) key. The differential tests below drive it and the queue through
// identical operation sequences and demand identical results, so any
// divergence of the queue's internals (bucket refills, the node slab and
// its free list) from the documented total order shows up as a concrete
// counterexample.
type refEvent struct {
	t   simtime.Time
	seq uint64
	v   int
}

type refHeap struct {
	evs []refEvent
	seq uint64
}

func (h *refHeap) Len() int { return len(h.evs) }
func (h *refHeap) Less(i, j int) bool {
	a, b := h.evs[i], h.evs[j]
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}
func (h *refHeap) Swap(i, j int)      { h.evs[i], h.evs[j] = h.evs[j], h.evs[i] }
func (h *refHeap) Push(x interface{}) { h.evs = append(h.evs, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := h.evs
	n := len(old)
	ev := old[n-1]
	h.evs = old[:n-1]
	return ev
}

func (h *refHeap) push(t simtime.Time, v int) {
	heap.Push(h, refEvent{t: t, seq: h.seq, v: v})
	h.seq++
}

func (h *refHeap) pop() (simtime.Time, int) {
	ev := heap.Pop(h).(refEvent)
	return ev.t, ev.v
}

// schedule generators covering the regimes a simulation produces: each
// returns the next time to push given the current pop time, never before
// it.
var schedules = []struct {
	name string
	next func(r *rng.Source, now simtime.Time) simtime.Time
}{
	// Near-monotonic with small gaps: the common LogGOPS case, events land
	// at or just ahead of the cursor.
	{"near-monotonic", func(r *rng.Source, now simtime.Time) simtime.Time {
		return now + simtime.Time(r.Intn(1000))
	}},
	// Same-timestamp clusters: only the sequence orders most pops.
	{"same-time-clusters", func(r *rng.Source, now simtime.Time) simtime.Time {
		if r.Intn(4) > 0 {
			return now
		}
		return now + simtime.Time(r.Intn(16)+1)
	}},
	// Bimodal near/far: failure-clock-style far-future pushes sit deep in
	// the heap while near events churn above them.
	{"far-future-mix", func(r *rng.Source, now simtime.Time) simtime.Time {
		if r.Intn(8) == 0 {
			return now + simtime.Time(1+r.Intn(1<<40))
		}
		return now + simtime.Time(r.Intn(200))
	}},
	// Wide uniform spread: pushes land anywhere in the heap.
	{"uniform-wide", func(r *rng.Source, now simtime.Time) simtime.Time {
		return now + simtime.Time(r.Intn(1<<20))
	}},
	// Extreme timestamps, including runs of simtime.Infinity sentinels that
	// only the sequence component orders. Near Infinity the cursor itself
	// bounds the pushes from below, and additions saturate.
	{"extreme-times", func(r *rng.Source, now simtime.Time) simtime.Time {
		switch r.Intn(4) {
		case 0:
			return simtime.Infinity
		case 1:
			return max(now, simtime.Infinity-simtime.Time(r.Intn(4)))
		default:
			return now.Add(simtime.Duration(r.Intn(100)))
		}
	}},
}

// TestDifferentialSchedules drives the queue and the reference heap
// through identical interleaved push/pop sequences across every schedule
// shape and demands identical (time, value) pop streams — which pins the
// full (t, seq) order, since values are unique.
func TestDifferentialSchedules(t *testing.T) {
	for _, sc := range schedules {
		t.Run(sc.name, func(t *testing.T) {
			for seed := uint64(0); seed < 8; seed++ {
				r := rng.New(seed*7919 + 17)
				var q Queue[int]
				var h refHeap
				now := simtime.Time(0)
				for i := 0; i < 4000; i++ {
					if q.Len() != h.Len() {
						t.Fatalf("seed %d step %d: Len %d vs %d", seed, i, q.Len(), h.Len())
					}
					// Bursts of pushes grow the population; drain phases
					// shrink it back.
					if q.Len() == 0 || r.Intn(100) < 55 {
						tm := sc.next(r, now)
						q.Push(tm, i)
						h.push(tm, i)
					} else {
						t1, v1 := q.Pop()
						t2, v2 := h.pop()
						if t1 != t2 || v1 != v2 {
							t.Fatalf("seed %d step %d: pop (%d,%d) vs (%d,%d)",
								seed, i, t1, v1, t2, v2)
						}
						now = t1
					}
				}
				for q.Len() > 0 {
					t1, v1 := q.Pop()
					t2, v2 := h.pop()
					if t1 != t2 || v1 != v2 {
						t.Fatalf("seed %d drain: pop (%d,%d) vs (%d,%d)", seed, t1, v1, t2, v2)
					}
				}
				if h.Len() != 0 {
					t.Fatalf("seed %d: reference has %d leftover events", seed, h.Len())
				}
			}
		})
	}
}

// TestDifferentialAdversarial hits hand-picked hard cases: strictly
// descending times (every push sifts to the root), descending pairs with
// pops interleaved, sawtooth bursts (alternating growth and drain), and a
// sparse head over a dense far cluster.
func TestDifferentialAdversarial(t *testing.T) {
	run := func(t *testing.T, ops func(push func(simtime.Time), pop func())) {
		var q Queue[int]
		var h refHeap
		n := 0
		push := func(tm simtime.Time) {
			q.Push(tm, n)
			h.push(tm, n)
			n++
		}
		pop := func() {
			if q.Len() == 0 {
				return
			}
			t1, v1 := q.Pop()
			t2, v2 := h.pop()
			if t1 != t2 || v1 != v2 {
				t.Fatalf("pop (%d,%d) vs (%d,%d)", t1, v1, t2, v2)
			}
		}
		ops(push, pop)
		for q.Len() > 0 {
			pop()
		}
		if h.Len() != 0 {
			t.Fatalf("reference has %d leftover events", h.Len())
		}
	}

	t.Run("descending", func(t *testing.T) {
		run(t, func(push func(simtime.Time), pop func()) {
			for i := 0; i < 3000; i++ {
				push(simtime.Time(3000-i) * 1000)
			}
		})
	})
	t.Run("descending-interleaved", func(t *testing.T) {
		// Pairs of adjacent times land ever earlier, each pair before the
		// last, with pops interleaved. The pops take a floor of earlier
		// events first, so no pair lands before the last popped time.
		run(t, func(push func(simtime.Time), pop func()) {
			push(1 << 30)
			pop()
			for i := 1; i <= 200; i++ {
				push(1<<30 + simtime.Time(i))
			}
			for i := 0; i < 500; i++ {
				base := simtime.Time(1<<30) + simtime.Time((500-i)*100000)
				push(base)
				push(base + 1)
				if i%3 == 0 {
					pop()
				}
			}
		})
	})
	t.Run("sawtooth", func(t *testing.T) {
		run(t, func(push func(simtime.Time), pop func()) {
			tm := simtime.Time(0)
			for cycle := 0; cycle < 6; cycle++ {
				for i := 0; i < 400*(cycle+1); i++ {
					tm += simtime.Time(i % 7)
					push(tm)
				}
				for i := 0; i < 350*(cycle+1); i++ {
					pop()
				}
			}
		})
	})
	t.Run("thin-window-dense-cluster", func(t *testing.T) {
		run(t, func(push func(simtime.Time), pop func()) {
			// A sparse head drains while a dense far cluster of
			// heavily tied timestamps waits below it.
			for i := 0; i < 64; i++ {
				push(simtime.Time(i) << 30)
			}
			far := simtime.Time(1) << 50
			for i := 0; i < 2000; i++ {
				push(far + simtime.Time(i%17))
			}
			for i := 0; i < 64; i++ {
				pop()
			}
		})
	})
}

// TestDifferentialRestore round-trips the queue through Items/Load/SetSeq
// at a random mid-run point of every schedule and then continues the
// differential run on the restored copy: the restore path must reproduce
// the exact pop stream the reference heap produces, including ties decided
// by sequence numbers assigned after the restore.
func TestDifferentialRestore(t *testing.T) {
	f := func(seed uint16) bool {
		for _, sc := range schedules {
			r := rng.New(uint64(seed) + 3)
			var q Queue[int]
			var h refHeap
			now := simtime.Time(0)
			n := 1500
			for i := 0; i < n; i++ {
				if q.Len() == 0 || r.Intn(100) < 60 {
					tm := sc.next(r, now)
					q.Push(tm, i)
					h.push(tm, i)
				} else {
					t1, _ := q.Pop()
					h.pop()
					now = t1
				}
			}

			// Snapshot and restore into a fresh queue mid-stream.
			var restored Queue[int]
			count := 0
			q.Items(func(tm simtime.Time, seq uint64, v int) {
				restored.Load(tm, seq, v)
				count++
			})
			if count != q.Len() {
				t.Fatalf("%s seed %d: Items visited %d of %d events", sc.name, seed, count, q.Len())
			}
			restored.SetSeq(q.Seq())

			// The restored queue continues against the reference.
			for i := 0; i < 800; i++ {
				if restored.Len() != h.Len() {
					t.Fatalf("%s seed %d: post-restore Len %d vs %d", sc.name, seed, restored.Len(), h.Len())
				}
				if restored.Len() == 0 || r.Intn(100) < 40 {
					tm := sc.next(r, now)
					restored.Push(tm, n+i)
					h.push(tm, n+i)
				} else {
					t1, v1 := restored.Pop()
					t2, v2 := h.pop()
					if t1 != t2 || v1 != v2 {
						t.Fatalf("%s seed %d: post-restore pop (%d,%d) vs (%d,%d)", sc.name, seed, t1, v1, t2, v2)
					}
					now = t1
				}
			}
			for restored.Len() > 0 {
				t1, v1 := restored.Pop()
				t2, v2 := h.pop()
				if t1 != t2 || v1 != v2 {
					t.Fatalf("%s seed %d: drain pop (%d,%d) vs (%d,%d)", sc.name, seed, t1, v1, t2, v2)
				}
			}
			if h.Len() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestLoadAdvancesSeq is the regression test for the Load/SetSeq footgun:
// Load inserts with an explicit sequence, and a restore path that forgets
// the closing SetSeq must still never be handed a duplicate sequence
// number. Under the old behavior (Load leaving q.seq untouched) the first
// fresh push after a restore reused sequence 0 and popped before the
// restored event it tied with.
func TestLoadAdvancesSeq(t *testing.T) {
	var q Queue[string]
	q.Load(5, 7, "restored")
	if got := q.Seq(); got != 8 {
		t.Fatalf("Seq after Load(seq=7) = %d, want 8", got)
	}
	q.Push(5, "fresh") // same t: order must fall to sequence
	if _, v := q.Pop(); v != "restored" {
		t.Fatalf("first pop = %q, want the restored event", v)
	}
	if _, v := q.Pop(); v != "fresh" {
		t.Fatal("fresh push lost")
	}

	// Loading an older sequence than the counter must not move it backward.
	// (The Push above consumed sequence 8, leaving the counter at 9.)
	q.Load(9, 2, "old")
	if got := q.Seq(); got != 9 {
		t.Fatalf("Seq after Load(seq=2) = %d, want 9 (unchanged)", got)
	}
}
