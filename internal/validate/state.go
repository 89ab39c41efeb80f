package validate

import (
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
)

// msgState tracks one wire traversal from injection until it settles.
type msgState struct {
	arriveAt simtime.Time // scheduled arrival (TraceInject.End)
	bytes    int64
	src, dst int32
	kind     sim.TraceKind
	arrived  bool
	matched  bool
}

// matchable reports whether m is an application send — an eager message
// or a rendezvous request — which a receive must match.
func (m *msgState) matchable() bool { return m.kind == sim.KindEager || m.kind == sim.KindRTS }

// settled reports whether no later record can make m fail a check that
// needs more than its kind and its matched bit: it has arrived, and it is
// matched or no receive may match it.
func (m *msgState) settled() bool {
	return m.arrived && (m.matched || !m.matchable()) && m.kind <= retiredKind
}

// Bits of a retired message's byte in msgTable.retired. The low bits keep
// the kind; kinds above retiredKind (none the engine emits) never retire.
const (
	retiredKind    = 0x3f
	retiredMatched = 0x40
	retiredFlag    = 0x80
)

// pageBits sizes the pages of the message table: 1024 entries each.
const pageBits = 10

// msgPage holds the state of 1024 consecutive message IDs; settled counts
// those of them that have retired.
type msgPage struct {
	m       [1 << pageBits]msgState
	settled int
}

// msgTable holds messages by ID while they are in flight. Entry id-1 of
// the page directory's pages holds message id from its injection until it
// settles; a page whose 1024 messages have all settled goes to a free list
// and holds the next page of IDs injected. A retired ID keeps one byte:
// its kind and whether it was matched.
type msgTable struct {
	dir     []*msgPage // by (id-1)>>pageBits; nil before injection and after retirement
	free    []*msgPage
	retired []uint8 // by id-1: 0 while the message is live
}

// add returns the entry of the next message, id = len(retired)+1, for the
// caller to fill; a reused page still holds a retired message's state.
func (t *msgTable) add() *msgState {
	i := len(t.retired)
	if i == 0 {
		t.retired = make([]uint8, 0, 1<<pageBits)
	}
	t.retired = append(t.retired, 0)
	p := i >> pageBits
	if p == len(t.dir) {
		t.dir = append(t.dir, nil)
	}
	if t.dir[p] == nil {
		if n := len(t.free); n > 0 {
			t.dir[p], t.free = t.free[n-1], t.free[:n-1]
		} else {
			t.dir[p] = new(msgPage)
		}
	}
	return &t.dir[p].m[i&(1<<pageBits-1)]
}

// live returns the state of the injected message at index i (id-1), or nil
// once it has retired.
func (t *msgTable) live(i int) *msgState {
	if t.retired[i] != 0 {
		return nil
	}
	return &t.dir[i>>pageBits].m[i&(1<<pageBits-1)]
}

// retire drops the state of message index i, which settled, keeping its
// retired byte; the page is freed when its last message retires.
func (t *msgTable) retire(i int, m *msgState) {
	b := retiredFlag | uint8(m.kind)
	if m.matched {
		b |= retiredMatched
	}
	t.retired[i] = b
	pg := t.dir[i>>pageBits]
	if pg.settled++; pg.settled == 1<<pageBits {
		pg.settled = 0
		t.dir[i>>pageBits] = nil
		t.free = append(t.free, pg)
	}
}

// table is an open-addressing hash map from non-negative keys to V, with
// linear probing and backward-shift deletion. It allocates only when it
// grows past half full — never per insert or delete — so its size follows
// the peak number of keys it holds at once.
type table[V any] struct {
	slots []slot[V]
	n     int
	shift uint // 64 - log2(len(slots))
}

// slot is one table entry; key is the key plus one, and 0 marks an empty
// slot.
type slot[V any] struct {
	key uint64
	val V
}

// home returns k's preferred slot (Fibonacci hashing).
func (t *table[V]) home(k uint64) int { return int((k * 0x9e3779b97f4a7c15) >> t.shift) }

// find returns the slot holding k, or -1.
func (t *table[V]) find(k uint64) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case k + 1:
			return i
		case 0:
			return -1
		}
	}
}

// put returns k's value, inserting a zero value first when k is absent;
// fresh reports that it was.
func (t *table[V]) put(k uint64) (v *V, fresh bool) {
	if i := t.find(k); i >= 0 {
		return &t.slots[i].val, false
	}
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	i := t.home(k)
	for t.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = slot[V]{key: k + 1}
	t.n++
	return &t.slots[i].val, true
}

// del empties slot i, moving later entries of its probe run back so that
// every key stays reachable from its home slot.
func (t *table[V]) del(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		// Entry j may fill the hole at i unless its home lies cyclically
		// in (i, j].
		if h := t.home(t.slots[j].key - 1); (j-h)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i].key = 0
	t.n--
}

// grow doubles the slot count (64 at first) and reinserts every entry.
func (t *table[V]) grow() {
	old := t.slots
	size := max(2*len(old), 64)
	t.slots, t.n = make([]slot[V], size), 0
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	for _, e := range old {
		if e.key != 0 {
			v, _ := t.put(e.key - 1)
			*v = e.val
		}
	}
}

// ready is a receive's state from readiness to completion.
type ready struct {
	at    simtime.Time // when the matched message became available
	bytes int64        // its payload
}

// fifo is a queue that reuses its buffer: pops advance a head index, and a
// push compacts the live entries to the front only when the buffer is
// full.
type fifo struct {
	buf  []int64
	head int
}

func (q *fifo) push(v int64) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// front returns the oldest entry; ok is false when the queue is empty.
func (q *fifo) front() (v int64, ok bool) {
	if q.head == len(q.buf) {
		return 0, false
	}
	return q.buf[q.head], true
}

// pop drops the oldest entry of a non-empty queue.
func (q *fifo) pop() {
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}
