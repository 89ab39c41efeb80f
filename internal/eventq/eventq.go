// Package eventq implements the time-ordered event queue at the heart of the
// discrete-event simulator.
//
// Events are ordered by (time, sequence): earlier times first, then
// insertion order. The sequence component makes the ordering total, which
// is what guarantees deterministic simulation — two events at the same
// instant always pop in the order they were scheduled, on every run and
// platform.
//
// Internally the queue is a 4-ary min-heap of 24-byte pointer-free keys:
// payloads are parked once in a slot arena at push and read back exactly
// once at pop, so sift moves never copy payload bytes. Memory is bounded by
// the peak population: a steady-state queue does not allocate.
package eventq

import (
	"cmp"
	"math/bits"
	"slices"

	"checkpointsim/internal/simtime"
)

// arity is the heap's branching factor: a 4-ary heap is half as deep as a
// binary one, and a node's four children share one or two cache lines.
const arity = 4

// ref is one queued event's full ordering key plus the index of its payload
// in the queue's slot arena. It is deliberately pointer-free, so sifts are
// plain word copies with no GC write barriers.
type ref struct {
	t   simtime.Time
	seq uint64
	idx int32
}

// signBit flips a time's sign so that signed order becomes unsigned order.
const signBit = 1 << 63

// less orders by time, then insertion sequence. It compares (t, seq) as one
// 128-bit unsigned number, t in the high word with its sign bit flipped so
// negative times still order first: a < b exactly when a - b borrows. The
// borrow chain has no branch for the sift loops to mispredict.
func less(a, b *ref) bool {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.t)^signBit, uint64(b.t)^signBit, borrow)
	return borrow != 0
}

// Queue is a min-heap of events carrying payloads of type T.
// The zero value is an empty, usable queue.
type Queue[T any] struct {
	heap []ref

	// vals is the payload slot arena refs point into; free lists the
	// reusable slots. Payloads are written once at push, read once at pop,
	// and never move in between.
	vals []T
	free []int32

	seq uint64
}

// putVal parks a payload in the slot arena and returns its index.
func (q *Queue[T]) putVal(v T) int32 {
	if n := len(q.free); n > 0 {
		i := q.free[n-1]
		q.free = q.free[:n-1]
		q.vals[i] = v
		return i
	}
	q.vals = append(q.vals, v)
	return int32(len(q.vals) - 1)
}

// takeVal removes a payload from the slot arena and recycles its index.
// The slot is not zeroed: the LIFO freelist overwrites it on the next push,
// so a popped payload pins its referents only until then — bounded by the
// peak queue population, and far cheaper than clearing 64 bytes per pop.
func (q *Queue[T]) takeVal(i int32) T {
	q.free = append(q.free, i)
	return q.vals[i]
}

// Len returns the number of queued events.
func (q *Queue[T]) Len() int { return len(q.heap) }

// Push schedules v at time t. Among events at the same time, earlier
// pushes pop first.
func (q *Queue[T]) Push(t simtime.Time, v T) {
	q.push(ref{t: t, seq: q.seq, idx: q.putVal(v)})
	q.seq++
}

// Pop removes and returns the earliest event. It panics on an empty queue;
// check Len first. The last leaf moves to the root and sifts down to the
// smallest of each node's children.
func (q *Queue[T]) Pop() (simtime.Time, T) {
	if len(q.heap) == 0 {
		panic("eventq: Pop on empty queue")
	}
	n := len(q.heap) - 1
	top, it := q.heap[0], q.heap[n]
	// Reslicing the field in place stores only its length: no GC write
	// barrier on the slice's pointer.
	q.heap = q.heap[:n]
	h := q.heap
	if n > 0 {
		i := 0
		for {
			c := arity*i + 1
			if c >= n {
				break
			}
			m := c
			for j, end := c+1, min(c+arity, n); j < end; j++ {
				if less(&h[j], &h[m]) {
					m = j
				}
			}
			if !less(&h[m], &it) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = it
	}
	return top.t, q.takeVal(top.idx)
}

// Items calls visit for every queued event with its full ordering key
// (time, insertion sequence), in pop order, until visit returns false.
// Snapshot encoding uses it to serialize the queue without disturbing it:
// the visit order depends on the queued keys alone, never on the heap's
// layout, and because the (t, seq) pair totally orders events, re-Loading
// the visited items in any order reproduces the exact pop sequence.
func (q *Queue[T]) Items(visit func(t simtime.Time, seq uint64, v T) bool) {
	refs := slices.Clone(q.heap)
	slices.SortFunc(refs, func(a, b ref) int {
		return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.seq, b.seq))
	})
	for _, it := range refs {
		if !visit(it.t, it.seq, q.vals[it.idx]) {
			return
		}
	}
}

// Load inserts an event with an explicit insertion sequence, bypassing the
// queue's own counter. Restore paths use it to reload a serialized queue;
// pair it with SetSeq to position the counter exactly. Load itself advances
// the counter to max(current, seq+1), so a caller that forgets SetSeq can
// never be handed a duplicate sequence number — which would silently break
// deterministic tie-ordering.
func (q *Queue[T]) Load(t simtime.Time, seq uint64, v T) {
	q.push(ref{t: t, seq: seq, idx: q.putVal(v)})
	if seq >= q.seq {
		q.seq = seq + 1
	}
}

// Seq returns the next insertion sequence number the queue would assign.
func (q *Queue[T]) Seq() uint64 { return q.seq }

// SetSeq sets the next insertion sequence number (snapshot restore).
func (q *Queue[T]) SetSeq(seq uint64) { q.seq = seq }

// Clear discards all queued events while keeping the allocated capacity.
func (q *Queue[T]) Clear() {
	q.heap = q.heap[:0]
	var zero T
	for i := range q.vals {
		q.vals[i] = zero // release payloads for GC
	}
	q.vals = q.vals[:0]
	q.free = q.free[:0]
}

// push adds it to the heap and sifts it up.
func (q *Queue[T]) push(it ref) {
	q.heap = append(q.heap, it)
	h := q.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / arity
		if !less(&it, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
}
