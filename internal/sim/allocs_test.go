package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/workload"
)

// With tracing off, the steady-state event loop must not allocate per
// event: messages come from the engine's free list, seize/held accounting
// indexes interned-reason arrays, and per-channel arrival tracking is a
// flat slice. Engine construction still allocates (queues, rank state),
// and the event heap pays a handful of capacity doublings, but none of
// that scales with iteration count — so the allocation difference between
// a short run and a 4x-longer run of the same ring bounds the per-message
// cost, and it must stay near zero. Before the pooling/interning pass this
// difference was several allocations per extra message.
func TestRunAllocsIndependentOfIterations(t *testing.T) {
	const (
		p     = 8
		short = 10
		long  = 40
	)
	measure := func(iters int) float64 {
		prog := ring(p, iters, 1024, 1000)
		return testing.AllocsPerRun(5, func() {
			e, err := New(Config{Net: network.DefaultParams(), Program: prog, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	extraMsgs := p * (long - short) // messages the longer run adds
	extra := measure(long) - measure(short)
	// Allow a few heap doublings and runtime noise, nothing per-message.
	if extra > 32 {
		t.Errorf("long run allocates %.0f more than short (for %d extra messages); "+
			"per-event path is allocating again", extra, extraMsgs)
	}
}

// Attaching no tracer must keep Run itself allocation-free apart from the
// final Result construction: the trace-off fast path must not build the
// "seize:<reason>" labels or per-event strings speculatively.
func TestResultOnlyAllocationsStayBounded(t *testing.T) {
	prog := ring(4, 5, 512, 1000)
	warm, err := New(Config{Net: network.DefaultParams(), Program: prog, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Run(); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(10, func() {
		e, err := New(Config{Net: network.DefaultParams(), Program: prog, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	// 4 ranks x 5 iterations = 20 messages; the whole run (engine build,
	// event loop, result) must cost far less than one alloc per message
	// would. The bound is loose against runtime drift but tight against
	// reintroducing per-event allocation.
	if got > 200 {
		t.Errorf("full run allocates %.0f times; expected bounded engine-construction cost", got)
	}
}

// TestHotRecordsPointerFree pins the records the engine copies per event:
// jobs and events stay small, and none of them, nor the rank states and
// slab records they name, holds anything the GC must scan, so queue and
// list copies need no write barriers.
func TestHotRecordsPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(job{}); n > 16 {
		t.Errorf("job is %d bytes, want at most 16", n)
	}
	if n := unsafe.Sizeof(event{}); n > 24 {
		t.Errorf("event is %d bytes, want at most 24", n)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Func, reflect.Chan, reflect.String:
			t.Errorf("%s is a %s", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	for _, v := range []any{job{}, event{}, message{}, seizeRec{}, rankState{},
		slabNode[job]{}, slabNode[postedRecv]{}, slabNode[int32]{}} {
		typ := reflect.TypeOf(v)
		walk(typ.Name(), typ)
	}
}

// stencil builds the stencil2d program at p ranks and iters iterations.
func stencil(t testing.TB, p, iters int) *goal.Program {
	t.Helper()
	prog, err := workload.FromName("stencil2d", workload.CommonConfig{
		Base:  workload.Base{Ranks: p, Iterations: iters, Compute: simtime.Millisecond, Seed: 1},
		Bytes: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestRunAllocsIndependentOfRanks: a rank costs the engine no allocation of
// its own. Its queues thread through engine-wide slabs, and its side data
// is allocated for all ranks at once and only when a hold, scale or fabric
// needs it, so at about equal op counts a 1024-rank run allocates about as
// often as a 64-rank one. When each rank grew its own queue buffers, the
// larger run made about five allocations more per rank.
func TestRunAllocsIndependentOfRanks(t *testing.T) {
	measure := func(p, iters int) float64 {
		prog := stencil(t, p, iters)
		return testing.AllocsPerRun(2, func() {
			e, err := New(Config{Net: network.DefaultParams(), Program: prog, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(64, 320), measure(1024, 20)
	if d := large - small; d >= 64 || d <= -64 {
		t.Errorf("P=1024 run allocates %.0f times, P=64 run %.0f: the difference %.0f "+
			"grows with the rank count", large, small, d)
	}
}

// BenchmarkEngineScaling runs stencil2d with no protocol at about equal op
// counts on 16 ranks (5120 iterations) and on 2048 ranks (40 iterations),
// and reports for each the wall time and the allocations of New and Run
// per event, and the P=2048 / P=16 ratio of the time per event: an engine
// whose cost per event does not grow with P keeps it near 1.
//
//	go test -run '^$' -bench EngineScaling -benchtime 1x -benchmem ./internal/sim
func BenchmarkEngineScaling(b *testing.B) {
	cases := []struct{ p, iters int }{{16, 5120}, {2048, 40}}
	progs := make([]*goal.Program, len(cases))
	for k, c := range cases {
		progs[k] = stencil(b, c.p, c.iters)
	}
	b.ResetTimer()
	nsPer := make([]float64, len(cases))
	for k, c := range cases {
		var before, after runtime.MemStats
		var events, allocs uint64
		var elapsed time.Duration
		for i := 0; i < b.N; i++ {
			runtime.ReadMemStats(&before)
			start := time.Now()
			e, err := New(Config{Net: network.DefaultParams(), Program: progs[k], Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			res, err := e.Run()
			if err != nil {
				b.Fatal(err)
			}
			elapsed += time.Since(start)
			runtime.ReadMemStats(&after)
			events += uint64(res.Events)
			allocs += after.Mallocs - before.Mallocs
		}
		nsPer[k] = float64(elapsed.Nanoseconds()) / float64(events)
		b.ReportMetric(nsPer[k], fmt.Sprintf("ns/event-P%d", c.p))
		b.ReportMetric(float64(allocs)/float64(events), fmt.Sprintf("allocs/event-P%d", c.p))
	}
	b.ReportMetric(nsPer[1]/nsPer[0], "ratio-P2048/P16")
}

// TestRankStateFitsTwoCacheLines pins the rank layout: two 64-byte lines,
// the first holding every field dispatch and jobDone read on every event.
func TestRankStateFitsTwoCacheLines(t *testing.T) {
	var st rankState
	if n := unsafe.Sizeof(st); n > 128 {
		t.Errorf("rankState is %d bytes, want at most 128", n)
	}
	for name, end := range map[string]uintptr{
		"runningJob": unsafe.Offsetof(st.runningJob) + unsafe.Sizeof(st.runningJob),
		"jobStart":   unsafe.Offsetof(st.jobStart) + unsafe.Sizeof(st.jobStart),
		"seizeQ":     unsafe.Offsetof(st.seizeQ) + unsafe.Sizeof(st.seizeQ),
		"ctlQ":       unsafe.Offsetof(st.ctlQ) + unsafe.Sizeof(st.ctlQ),
		"appQ":       unsafe.Offsetof(st.appQ) + unsafe.Sizeof(st.appQ),
		"posted":     unsafe.Offsetof(st.posted) + unsafe.Sizeof(st.posted),
		"held":       unsafe.Offsetof(st.held) + unsafe.Sizeof(st.held),
		"running":    unsafe.Offsetof(st.running) + unsafe.Sizeof(st.running),
		"releasing":  unsafe.Offsetof(st.releasing) + unsafe.Sizeof(st.releasing),
		"scaled":     unsafe.Offsetof(st.scaled) + unsafe.Sizeof(st.scaled),
	} {
		if end > 64 {
			t.Errorf("rankState.%s ends at byte %d, past the first cache line", name, end)
		}
	}
}

// TestSeizeQueueMemoryBoundedByDepth drives one rank's seize queue through
// 100k pushes that never drain it, as a capped run's seize queue does, and
// requires the job slab to stay within twice the deepest backlog.
func TestSeizeQueueMemoryBoundedByDepth(t *testing.T) {
	const pushes, maxDepth = 100_000, 64
	e, err := New(Config{Net: network.DefaultParams(), Program: ring(2, 1, 8, 1), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := &e.ranks[1].seizeQ
	depth, next, want := 0, 0, 0
	pop := func() {
		if j := e.jobs.pop(q); j.cost != simtime.Duration(want) {
			t.Fatalf("pop %d returned job %d", want, j.cost)
		}
		want++
		depth--
	}
	for next < pushes {
		e.jobs.push(q, job{cost: simtime.Duration(next)})
		next++
		depth++
		// A sawtooth between half the cap and the cap: never empty, and
		// the live items reuse freed nodes out of slab order.
		if depth == maxDepth {
			for depth > maxDepth/2 {
				pop()
			}
		}
		if n := cap(e.jobs.nodes); n > 2*maxDepth {
			t.Fatalf("after %d pushes at depth %d: %d slab nodes, want at most %d",
				next, depth, n, 2*maxDepth)
		}
	}
	for !q.empty() {
		pop()
	}
	if want != pushes {
		t.Fatalf("popped %d of %d jobs", want, pushes)
	}
}

// queued returns the items of list l, head first.
func queued[T any](s *slab[T], l list) []T {
	var out []T
	for i := l.head; i != 0; i = s.nodes[i].next {
		out = append(out, s.nodes[i].val)
	}
	return out
}
