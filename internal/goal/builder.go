package goal

import (
	"fmt"

	"checkpointsim/internal/simtime"
)

// Builder constructs a Program incrementally. It is not safe for concurrent
// use. Build validates and freezes the graph.
type Builder struct {
	numRanks int
	ops      []Op
	edges    []edge // dependency edges in Requires order
}

// edge is one Requires pair: op must not start before dep completes.
type edge struct{ op, dep OpID }

// NewBuilder returns a Builder for a program with the given number of ranks.
// It panics if numRanks is not positive.
func NewBuilder(numRanks int) *Builder {
	if numRanks <= 0 {
		panic(fmt.Sprintf("goal: NewBuilder(%d)", numRanks))
	}
	return &Builder{numRanks: numRanks}
}

// NumRanks returns the rank count the builder was created with.
func (b *Builder) NumRanks() int { return b.numRanks }

// Grow reserves capacity for at least n additional operations and twice as
// many dependency edges (generated programs carry one to two per op).
// Generators that can count their ops from the geometry call it once up
// front, so a 100k-op program is not re-copied a dozen times while
// doubling. The op table becomes the program's, so an overestimate wastes
// its capacity for the program's lifetime.
func (b *Builder) Grow(n int) {
	if n > cap(b.ops)-len(b.ops) {
		ops := make([]Op, len(b.ops), len(b.ops)+n)
		copy(ops, b.ops)
		b.ops = ops
	}
	if 2*n > cap(b.edges)-len(b.edges) {
		edges := make([]edge, len(b.edges), len(b.edges)+2*n)
		copy(edges, b.edges)
		b.edges = edges
	}
}

func (b *Builder) add(op Op) OpID {
	b.ops = append(b.ops, op)
	return OpID(len(b.ops) - 1)
}

// Calc adds a computation of the given duration on rank.
func (b *Builder) Calc(rank int, work simtime.Duration) OpID {
	return b.add(Op{Kind: KindCalc, Rank: int32(rank), Work: work})
}

// Send adds a send of bytes from rank to peer with the given tag.
func (b *Builder) Send(rank, peer, tag int, bytes int64) OpID {
	return b.add(Op{Kind: KindSend, Rank: int32(rank), Peer: int32(peer),
		Tag: int32(tag), Bytes: bytes})
}

// Recv adds a receive on rank expecting bytes from peer (which may be
// AnySource) with the given tag (which may be AnyTag).
func (b *Builder) Recv(rank int, peer int32, tag int32, bytes int64) OpID {
	return b.add(Op{Kind: KindRecv, Rank: int32(rank), Peer: peer,
		Tag: tag, Bytes: bytes})
}

// Requires declares that op must not start before all of deps complete.
// Duplicate edges are tolerated and deduplicated at Build time.
func (b *Builder) Requires(op OpID, deps ...OpID) {
	if op < 0 || int(op) >= len(b.ops) {
		panic(fmt.Sprintf("goal: Requires on unknown op %d", op))
	}
	for _, d := range deps {
		if d < 0 || int(d) >= len(b.ops) {
			panic(fmt.Sprintf("goal: Requires dep %d unknown", d))
		}
		b.edges = append(b.edges, edge{op, d})
	}
}

// Build validates the graph and returns the immutable Program, marked
// validated. It reads the op table once: each op is checked as Validate
// checks it, its dependencies are deduplicated and checked and its reverse
// edges counted, all in one pass.
func (b *Builder) Build() (*Program, error) {
	p := &Program{NumRanks: b.numRanks, Ops: b.ops}
	edges := b.edges
	// The builder gives up ownership and starts over empty.
	b.ops, b.edges = nil, nil
	// Every op's deps are a segment of one arena, filled by a stable
	// counting sort of the Requires pairs: end[i] counts, then prefix-sums
	// to op i's start, and the scatter advances it to op i's end. end is
	// depOff[1:], so once the segments are compacted below, depOff[0] = 0
	// and depOff[i+1] = end[i] are the program's dependency offsets.
	depOff := make([]int32, len(p.Ops)+1)
	end := depOff[1:]
	for _, e := range edges {
		end[e.op]++
	}
	var sum int32
	for i, n := range end {
		end[i] = sum
		sum += n
	}
	arena := make([]OpID, len(edges))
	for _, e := range edges {
		arena[end[e.op]] = e.dep
		end[e.op]++
	}
	outOff := make([]int32, len(p.Ops)+1)
	// Each op's deduplicated deps move to the front of the arena, after
	// the previous op's, keeping first occurrences in order: kept ends at
	// or before the segment it reads from. Typical lists are a handful of
	// entries (a join of a few forks), where a quadratic scan beats
	// allocating a set; genuinely wide joins (a farm master collecting
	// from every worker) fall back to one. end[i] becomes the end of op
	// i's compacted segment.
	var start, w int32
	forward := false
	for i := range p.Ops {
		seg := arena[start:end[i]]
		start = end[i]
		kept := arena[w:w]
		if len(seg) <= 32 {
		scan:
			for _, d := range seg {
				for _, k := range kept {
					if k == d {
						continue scan
					}
				}
				kept = append(kept, d)
			}
		} else {
			seen := make(map[OpID]struct{}, len(seg))
			for _, d := range seg {
				if _, dup := seen[d]; !dup {
					seen[d] = struct{}{}
					kept = append(kept, d)
				}
			}
		}
		w += int32(len(kept))
		end[i] = w
		fwd, err := checkOp(p.Ops, kept, i, p.NumRanks)
		if err != nil {
			return nil, err
		}
		forward = forward || fwd
		for _, d := range kept {
			outOff[d+1]++
		}
	}
	// The reverse edges are a counted arena too, scattered from the
	// compacted deps without reading the ops again: outs[outOff[d]:...]
	// uses outOff[d] as op d's cursor, which afterwards holds op d's end,
	// op d+1's start, so one shift restores the offsets.
	for i := range p.Ops {
		outOff[i+1] += outOff[i]
	}
	outs := make([]OpID, w)
	start = 0
	for i := range p.Ops {
		for _, d := range arena[start:end[i]] {
			outs[outOff[d]] = OpID(i)
			outOff[d]++
		}
		start = end[i]
	}
	copy(outOff[1:], outOff[:len(p.Ops)])
	outOff[0] = 0
	p.deps, p.depOff = arena[:w:w], depOff
	p.outs, p.outOff = outs, outOff
	if forward {
		if err := checkAcyclic(len(p.Ops), outs, outOff); err != nil {
			return nil, err
		}
	}
	p.validated.Store(true)
	return p, nil
}

// MustBuild is Build that panics on error, for tests and generators whose
// construction is known-correct.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// Sequencer chains operations on a single rank in program order: each
// operation added through it automatically depends on the previous one.
// This mirrors how an MPI process executes: a straight-line code path with
// blocking calls.
type Sequencer struct {
	b    *Builder
	rank int
	last OpID
}

// Seq returns a Sequencer for rank whose first operation has no
// dependencies.
func (b *Builder) Seq(rank int) *Sequencer {
	return &Sequencer{b: b, rank: rank, last: NoOp}
}

// SeqAfter returns a Sequencer for rank whose first operation depends on
// the given op (NoOp for none).
func (b *Builder) SeqAfter(rank int, after OpID) *Sequencer {
	return &Sequencer{b: b, rank: rank, last: after}
}

func (s *Sequencer) chain(id OpID) OpID {
	if s.last != NoOp {
		s.b.Requires(id, s.last)
	}
	s.last = id
	return id
}

// Calc appends a computation.
func (s *Sequencer) Calc(work simtime.Duration) OpID {
	return s.chain(s.b.Calc(s.rank, work))
}

// Send appends a blocking send.
func (s *Sequencer) Send(peer, tag int, bytes int64) OpID {
	return s.chain(s.b.Send(s.rank, peer, tag, bytes))
}

// Recv appends a blocking receive.
func (s *Sequencer) Recv(peer int32, tag int32, bytes int64) OpID {
	return s.chain(s.b.Recv(s.rank, peer, tag, bytes))
}

// Join makes the next operation additionally depend on the given ops —
// used to merge forked non-blocking work back into the sequence.
func (s *Sequencer) Join(ids ...OpID) {
	if len(ids) == 0 {
		return
	}
	// Insert a zero-length calc as a join node so the sequence has a single
	// chainable tail.
	join := s.b.Calc(s.rank, 0)
	s.b.Requires(join, ids...)
	if s.last != NoOp {
		s.b.Requires(join, s.last)
	}
	s.last = join
}

// Fork adds an operation that depends on the current tail but does not
// advance it — a non-blocking operation running concurrently with the
// sequence. Returns the forked op for a later Join.
func (s *Sequencer) Fork(kind Kind, peer int32, tag int32, bytes int64) OpID {
	var id OpID
	switch kind {
	case KindSend:
		id = s.b.Send(s.rank, int(peer), int(tag), bytes)
	case KindRecv:
		id = s.b.Recv(s.rank, peer, tag, bytes)
	default:
		panic("goal: Fork supports send and recv only")
	}
	if s.last != NoOp {
		s.b.Requires(id, s.last)
	}
	return id
}

// Last returns the current tail of the sequence (NoOp when empty).
func (s *Sequencer) Last() OpID { return s.last }
