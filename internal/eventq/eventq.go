// Package eventq implements the time-ordered event queue at the heart of the
// discrete-event simulator.
//
// Events are ordered by (time, sequence): earlier times first, then
// insertion order. The sequence component makes the ordering total, which
// is what guarantees deterministic simulation — two events at the same
// instant always pop in the order they were scheduled, on every run and
// platform.
//
// Internally the queue is a monotone radix heap (Ahuja, Mehlhorn, Orlin and
// Tarjan, "Faster algorithms for the shortest path problem", JACM 1990). A
// simulation's clock never runs backwards, so every event must lie at or
// after the last popped time; the queue panics on one that does not. An
// event waits in the bucket named by the highest bit in which its time
// differs from that time; bucket 0 holds the events at exactly that time,
// in sequence order, and a pop takes its head. Only when bucket 0 runs dry
// does a pop refill it, by relinking the lowest non-empty bucket's events
// into lower buckets: an event moves down at most 64 times in its life,
// and no pop sifts.
// Buckets are linked lists threaded through one node slab with its own free
// list, so memory is bounded by the peak population: a steady-state queue
// does not allocate.
package eventq

import (
	"cmp"
	"math/bits"
	"slices"

	"checkpointsim/internal/simtime"
)

// signBit flips a time's sign so that signed order becomes unsigned order:
// a key is uint64(t) ^ signBit, and negative times still order first.
const signBit = 1 << 63

// node is one queued event. next links it into its bucket's list, or into
// the free list once popped; index 0 of the slab is the nil link.
type node[T any] struct {
	key  uint64
	seq  uint64
	next int32
	val  T
}

// bucket is one linked list of nodes plus the smallest key ever linked into
// it since it was last empty: the baseline a refill moves to.
type bucket struct {
	head, tail int32
	min        uint64
}

// Queue is a priority queue of events carrying payloads of type T.
// The zero value is an empty, usable queue.
type Queue[T any] struct {
	nodes []node[T]
	free  int32 // head of the free list threaded through nodes

	// buckets[b] for b ≥ 1 holds the events whose key first differs from
	// last at bit b-1, counting from bit 0; buckets[0] holds the events at
	// exactly last. Bit b-1 of mask is set while buckets[b] is non-empty.
	buckets [65]bucket
	mask    uint64
	last    uint64

	n   int
	seq uint64
}

// Len returns the number of queued events.
func (q *Queue[T]) Len() int { return q.n }

// Push schedules v at time t. Among events at the same time, earlier
// pushes pop first. It panics if t lies before the last popped time.
func (q *Queue[T]) Push(t simtime.Time, v T) {
	q.insert(uint64(t)^signBit, q.seq, v)
	q.seq++
}

// Pop removes and returns the earliest event. It panics on an empty queue;
// check Len first.
func (q *Queue[T]) Pop() (simtime.Time, T) {
	i := q.buckets[0].head
	if i == 0 {
		if q.mask == 0 {
			panic("eventq: Pop on empty queue")
		}
		q.refill()
		i = q.buckets[0].head
	}
	nd := &q.nodes[i]
	q.buckets[0].head = nd.next
	q.release(i)
	// The payload is not zeroed: the LIFO free list overwrites the node on
	// the next push, so a popped payload pins its referents only until
	// then — bounded by the peak queue population.
	return simtime.Time(q.last ^ signBit), nd.val
}

// Items calls visit for every queued event with its full ordering key
// (time, insertion sequence), in pop order. Snapshot encoding uses it to
// serialize the queue without disturbing it: the visit order depends on
// the queued keys alone, never on the buckets' layout, and re-Loading the
// visited items in that order reproduces the exact pop sequence.
func (q *Queue[T]) Items(visit func(t simtime.Time, seq uint64, v T)) {
	idx := make([]int32, 0, q.n)
	for b := range q.buckets {
		for i := q.buckets[b].head; i != 0; i = q.nodes[i].next {
			idx = append(idx, i)
		}
	}
	slices.SortFunc(idx, func(a, b int32) int {
		x, y := &q.nodes[a], &q.nodes[b]
		return cmp.Or(cmp.Compare(x.key, y.key), cmp.Compare(x.seq, y.seq))
	})
	for _, i := range idx {
		nd := &q.nodes[i]
		visit(simtime.Time(nd.key^signBit), nd.seq, nd.val)
	}
}

// Load inserts an event with an explicit insertion sequence, bypassing the
// queue's own counter. Restore paths use it to reload a serialized queue
// in (time, sequence) order; events tied on time must arrive in sequence
// order, and the queue panics when it finds two that did not. Pair it with
// SetSeq to position the counter exactly. Load itself advances the counter
// to max(current, seq+1), so a caller that forgets SetSeq can never be
// handed a duplicate sequence number — which would silently break
// deterministic tie-ordering.
func (q *Queue[T]) Load(t simtime.Time, seq uint64, v T) {
	q.insert(uint64(t)^signBit, seq, v)
	if seq >= q.seq {
		q.seq = seq + 1
	}
}

// Seq returns the next insertion sequence number the queue would assign.
func (q *Queue[T]) Seq() uint64 { return q.seq }

// SetSeq sets the next insertion sequence number (snapshot restore).
func (q *Queue[T]) SetSeq(seq uint64) { q.seq = seq }

// insert queues v under (key, seq).
func (q *Queue[T]) insert(key, seq uint64, v T) {
	if key < q.last {
		panic("eventq: event before the last popped time")
	}
	i := q.alloc()
	nd := &q.nodes[i]
	nd.key, nd.seq, nd.next, nd.val = key, seq, 0, v
	q.n++
	q.link(i, key, seq)
}

// link appends node i to the bucket its key names. Pushes carry rising
// sequence numbers, so appending keeps bucket 0 in sequence order; only a
// Load out of order (or a SetSeq back in time) can break it, and link
// panics on that.
func (q *Queue[T]) link(i int32, key, seq uint64) {
	d := bits.Len64(key ^ q.last)
	b := &q.buckets[d]
	if b.head == 0 {
		b.head, b.min = i, key
		// Bit d-1 for buckets 1..64, no bit for bucket 0.
		q.mask |= signBit >> (64 - d)
	} else {
		tail := &q.nodes[b.tail]
		if d == 0 && seq < tail.seq {
			panic("eventq: events tied on time out of sequence order")
		}
		tail.next = i
		b.min = min(b.min, key)
	}
	b.tail = i
}

// refill empties bucket 0's lowest non-empty successor: the baseline moves
// to that bucket's smallest key, and each of its events relinks into the
// bucket it names from there. All of them land below it, in buckets that
// are empty, and they keep their relative order, so equal times pushed in
// sequence order stay in it.
func (q *Queue[T]) refill() {
	d := bits.TrailingZeros64(q.mask) + 1
	q.mask &^= 1 << (d - 1)
	b := &q.buckets[d]
	i := b.head
	b.head = 0
	q.last = b.min
	for i != 0 {
		nd := &q.nodes[i]
		next := nd.next
		nd.next = 0
		q.link(i, nd.key, nd.seq)
		i = next
	}
}

// alloc takes a node from the free list, or grows the slab by one.
func (q *Queue[T]) alloc() int32 {
	if i := q.free; i != 0 {
		q.free = q.nodes[i].next
		return i
	}
	if len(q.nodes) == 0 {
		q.nodes = append(q.nodes, node[T]{}) // index 0 is the nil link
	}
	q.nodes = append(q.nodes, node[T]{})
	return int32(len(q.nodes) - 1)
}

// release returns a popped node to the free list.
func (q *Queue[T]) release(i int32) {
	q.nodes[i].next = q.free
	q.free = i
	q.n--
}
