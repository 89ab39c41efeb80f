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
// simulation's clock never runs backwards, so every pushed event lies at or
// after the last popped time. An event waits in the bucket named by the
// highest bit in which its time differs from that time; bucket 0 holds the
// events at exactly that time, in sequence order, and a pop takes its head.
// Only when bucket 0 runs dry does a pop refill it, by relinking the lowest
// non-empty bucket's events into lower buckets: an event moves down at most
// 64 times in its life, and no pop sifts.
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
	// unsorted records that bucket 0 took an event whose sequence is below
	// its tail's; the next pop restores sequence order.
	unsorted bool

	// behind is a binary min-heap of events pushed before last. A
	// simulation never makes one; it keeps the queue an exact (t, seq)
	// priority queue for any caller. Its events are all earlier than every
	// bucketed event, so it drains first.
	behind []int32

	n   int
	seq uint64
}

// Len returns the number of queued events.
func (q *Queue[T]) Len() int { return q.n }

// Push schedules v at time t. Among events at the same time, earlier
// pushes pop first.
func (q *Queue[T]) Push(t simtime.Time, v T) {
	q.insert(uint64(t)^signBit, q.seq, v)
	q.seq++
}

// Pop removes and returns the earliest event. It panics on an empty queue;
// check Len first.
func (q *Queue[T]) Pop() (simtime.Time, T) {
	if len(q.behind) > 0 {
		return q.popBehind()
	}
	i := q.buckets[0].head
	if i == 0 {
		if q.mask == 0 {
			panic("eventq: Pop on empty queue")
		}
		q.refill()
		i = q.buckets[0].head
	}
	if q.unsorted {
		q.sortFirst()
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
// (time, insertion sequence), in pop order, until visit returns false.
// Snapshot encoding uses it to serialize the queue without disturbing it:
// the visit order depends on the queued keys alone, never on the buckets'
// layout, and because the (t, seq) pair totally orders events, re-Loading
// the visited items in any order reproduces the exact pop sequence.
func (q *Queue[T]) Items(visit func(t simtime.Time, seq uint64, v T) bool) {
	idx := make([]int32, 0, q.n)
	idx = append(idx, q.behind...)
	for b := range q.buckets {
		for i := q.buckets[b].head; i != 0; i = q.nodes[i].next {
			idx = append(idx, i)
		}
	}
	slices.SortFunc(idx, q.compare)
	for _, i := range idx {
		nd := &q.nodes[i]
		if !visit(simtime.Time(nd.key^signBit), nd.seq, nd.val) {
			return
		}
	}
}

// Load inserts an event with an explicit insertion sequence, bypassing the
// queue's own counter. Restore paths use it to reload a serialized queue,
// in any order; pair it with SetSeq to position the counter exactly. Load
// itself advances the counter to max(current, seq+1), so a caller that
// forgets SetSeq can never be handed a duplicate sequence number — which
// would silently break deterministic tie-ordering.
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

// Clear discards all queued events while keeping the allocated capacity.
// The next event may lie at any time, as in a new queue.
func (q *Queue[T]) Clear() {
	clear(q.nodes) // release payloads for GC
	q.nodes = q.nodes[:0]
	q.free = 0
	q.buckets = [65]bucket{}
	q.mask, q.last, q.unsorted = 0, 0, false
	q.behind = q.behind[:0]
	q.n = 0
}

// insert queues v under (key, seq).
func (q *Queue[T]) insert(key, seq uint64, v T) {
	i := q.alloc()
	nd := &q.nodes[i]
	nd.key, nd.seq, nd.next, nd.val = key, seq, 0, v
	q.n++
	if key < q.last {
		q.pushBehind(i)
		return
	}
	q.link(i, key, seq)
}

// link appends node i to the bucket its key names. Pushes carry rising
// sequence numbers, so appending keeps bucket 0 in sequence order; only a
// Load (or a SetSeq back in time) can break it, and link flags that.
func (q *Queue[T]) link(i int32, key, seq uint64) {
	d := bits.Len64(key ^ q.last)
	b := &q.buckets[d]
	if b.head == 0 {
		b.head, b.min = i, key
		// Bit d-1 for buckets 1..64, no bit for bucket 0.
		q.mask |= signBit >> (64 - d)
	} else {
		tail := &q.nodes[b.tail]
		tail.next = i
		b.min = min(b.min, key)
		if d == 0 && seq < tail.seq {
			q.unsorted = true
		}
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

// sortFirst puts bucket 0, whose events all lie at one time, back in
// sequence order.
func (q *Queue[T]) sortFirst() {
	q.unsorted = false
	var s []int32
	for i := q.buckets[0].head; i != 0; i = q.nodes[i].next {
		s = append(s, i)
	}
	slices.SortFunc(s, func(a, b int32) int { return cmp.Compare(q.nodes[a].seq, q.nodes[b].seq) })
	for k, i := range s[:len(s)-1] {
		q.nodes[i].next = s[k+1]
	}
	q.nodes[s[len(s)-1]].next = 0
	q.buckets[0].head, q.buckets[0].tail = s[0], s[len(s)-1]
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

// compare orders two nodes by (key, seq).
func (q *Queue[T]) compare(a, b int32) int {
	x, y := &q.nodes[a], &q.nodes[b]
	return cmp.Or(cmp.Compare(x.key, y.key), cmp.Compare(x.seq, y.seq))
}

// pushBehind adds node i to the behind heap and sifts it up.
func (q *Queue[T]) pushBehind(i int32) {
	q.behind = append(q.behind, i)
	h := q.behind
	c := len(h) - 1
	for c > 0 {
		p := (c - 1) / 2
		if q.compare(i, h[p]) >= 0 {
			break
		}
		h[c] = h[p]
		c = p
	}
	h[c] = i
}

// popBehind removes the behind heap's earliest event.
func (q *Queue[T]) popBehind() (simtime.Time, T) {
	h := q.behind
	top, n := h[0], len(h)-1
	it := h[n]
	h = h[:n]
	q.behind = h
	p := 0
	for {
		c := 2*p + 1
		if c >= n {
			break
		}
		if c+1 < n && q.compare(h[c+1], h[c]) < 0 {
			c++
		}
		if q.compare(h[c], it) >= 0 {
			break
		}
		h[p] = h[c]
		p = c
	}
	if n > 0 {
		h[p] = it
	}
	nd := &q.nodes[top]
	q.release(top)
	return simtime.Time(nd.key ^ signBit), nd.val
}
