package sim

import (
	"testing"

	"checkpointsim/internal/simtime"
)

// TestFifoMemoryBoundedByDepth drives one queue through 100k pushes that
// never drain it, as a capped run's seize queue does, and requires its
// backing array to stay within twice the deepest it has been.
func TestFifoMemoryBoundedByDepth(t *testing.T) {
	const pushes, maxDepth = 100_000, 64
	var f fifo[job]
	next, want := 0, 0
	pop := func() {
		if j := f.pop(); j.cost != simtime.Duration(want) {
			t.Fatalf("pop %d returned job %d", want, j.cost)
		}
		want++
	}
	for next < pushes {
		f.push(job{cost: simtime.Duration(next)})
		next++
		// A sawtooth between half the cap and the cap: never empty, and
		// the live items wrap round the ring.
		if f.n == maxDepth {
			for f.n > maxDepth/2 {
				pop()
			}
		}
		if f.n == 0 || f.n > maxDepth {
			t.Fatalf("after %d pushes: depth %d, want 1..%d", next, f.n, maxDepth)
		}
		if len(f.buf) > 2*maxDepth {
			t.Fatalf("after %d pushes at depth %d: %d slots, want at most %d",
				next, f.n, len(f.buf), 2*maxDepth)
		}
	}
	for !f.empty() {
		pop()
	}
	if want != pushes {
		t.Fatalf("popped %d of %d jobs", want, pushes)
	}
}
