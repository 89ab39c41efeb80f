package sim

import (
	"reflect"
	"testing"
	"unsafe"

	"checkpointsim/internal/network"
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
// jobs and events stay small, and none of them, nor the slab records they
// name, holds anything the GC must scan, so queue and ring copies need no
// write barriers.
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
	for _, v := range []any{job{}, event{}, message{}, seizeRec{}} {
		typ := reflect.TypeOf(v)
		walk(typ.Name(), typ)
	}
}
