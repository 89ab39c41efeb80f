// Package goal represents message-passing programs as dependency graphs of
// operations, in the style of LogGOPSim's GOAL (Group Operation Assembly
// Language).
//
// A program is a set of operations — send, recv, calc — each bound to a
// rank, connected by happens-before dependencies. The simulator executes any
// operation whose dependencies are satisfied, subject to CPU and NIC
// availability; nothing else constrains ordering. Collective algorithms and
// application workloads are compiled down to these three primitives, which
// is what lets checkpoint-induced delays propagate realistically: a rank
// that is late sending delays exactly the ranks whose recvs depend on that
// message, and no others.
//
// The package provides an in-memory Builder API, a Sequencer convenience for
// program-order chains, validation (rank bounds, acyclicity, send/recv
// balance), and a textual format with a parser and serializer (see
// text.go).
package goal

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"checkpointsim/internal/simtime"
)

// Kind identifies the operation type.
type Kind uint8

// Operation kinds.
const (
	// KindCalc models local computation for a fixed duration.
	KindCalc Kind = iota
	// KindSend transmits Bytes to rank Peer with tag Tag.
	KindSend
	// KindRecv blocks until a message from Peer (or AnySource) with Tag
	// (or AnyTag) arrives.
	KindRecv
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindCalc:
		return "calc"
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Wildcards for receive matching.
const (
	// AnySource matches a message from any sender.
	AnySource int32 = -1
	// AnyTag matches a message with any tag.
	AnyTag int32 = -1
)

// OpID indexes an operation within its Program.
type OpID int32

// NoOp is the invalid OpID.
const NoOp OpID = -1

// Op is a single operation in the dependency graph. Its ID is its index in
// Program.Ops and its dependencies live in the program (Program.Deps), so
// an Op is 32 bytes and holds no pointer: two fit in a cache line, and the
// garbage collector does not scan an op table.
type Op struct {
	Kind  Kind
	Rank  int32
	Peer  int32            // send: destination; recv: source or AnySource
	Tag   int32            // send: tag; recv: tag or AnyTag
	Bytes int64            // message size for send/recv
	Work  simtime.Duration // computation time for calc
}

// Program is an immutable operation graph over NumRanks ranks. Build and
// Widen make whole programs. A Program assembled from bare ops (NumRanks
// and Ops alone) has no dependencies: Validate checks its ops, Deps is
// empty, and it has no per-rank or reverse index.
type Program struct {
	NumRanks int
	Ops      []Op

	byRank [][]OpID // ops of each rank, in creation order

	// deps[depOff[i]:depOff[i+1]] are the ops op i depends on, and
	// outs[outOff[i]:outOff[i+1]] the ops that depend on op i, in
	// ascending ID order: two counted arenas, each the other's reverse.
	deps   []OpID
	depOff []int32
	outs   []OpID
	outOff []int32

	// validated memoizes a successful Validate. Programs are immutable once
	// built, and experiment sweeps run the same program through many engines
	// (one per replication, possibly on parallel workers), so the O(ops)
	// structural re-check is pure overhead after the first pass.
	validated atomic.Bool

	// digestOnce memoizes Digest on the program itself, for the same
	// reason: a cached fingerprint lives and dies with its program.
	digestOnce sync.Once
	digest     [sha256.Size]byte
}

// RankOps returns the IDs of all operations bound to the given rank, in
// creation order. The returned slice must not be modified.
func (p *Program) RankOps(rank int) []OpID { return p.byRank[rank] }

// Op returns the operation with the given ID.
func (p *Program) Op(id OpID) *Op { return &p.Ops[id] }

// Deps returns the operations that must complete before op id may start:
// its Requires, deduplicated to their first occurrences, in Requires order.
// A Program assembled from bare ops has none. The returned slice must not
// be modified.
func (p *Program) Deps(id OpID) []OpID {
	if p.depOff == nil {
		return nil
	}
	lo, hi := p.depOff[id], p.depOff[id+1]
	return p.deps[lo:hi:hi]
}

// Outs returns the operations that depend on op id, in ascending ID order,
// for a program made by Build or Widen. The returned slice must not be
// modified.
func (p *Program) Outs(id OpID) []OpID { return p.outs[p.outOff[id]:p.outOff[id+1]] }

// Stats summarizes a program.
type Stats struct {
	NumRanks  int
	NumOps    int
	NumCalc   int
	NumSend   int
	NumRecv   int
	NumDeps   int
	TotalSent int64            // bytes across all sends
	TotalWork simtime.Duration // sum of calc durations across all ranks
	MaxWork   simtime.Duration // max per-rank sum of calc durations
}

// Stats computes summary statistics for the program.
func (p *Program) Stats() Stats {
	s := Stats{NumRanks: p.NumRanks, NumOps: len(p.Ops), NumDeps: len(p.deps)}
	perRank := make([]simtime.Duration, p.NumRanks)
	for i := range p.Ops {
		op := &p.Ops[i]
		switch op.Kind {
		case KindCalc:
			s.NumCalc++
			s.TotalWork += op.Work
			perRank[op.Rank] += op.Work
		case KindSend:
			s.NumSend++
			s.TotalSent += op.Bytes
		case KindRecv:
			s.NumRecv++
		}
	}
	for _, w := range perRank {
		if w > s.MaxWork {
			s.MaxWork = w
		}
	}
	return s
}

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("ranks=%d ops=%d (calc=%d send=%d recv=%d) deps=%d bytes=%d work=%v",
		s.NumRanks, s.NumOps, s.NumCalc, s.NumSend, s.NumRecv, s.NumDeps,
		s.TotalSent, s.TotalWork)
}

// Validate checks each op's structural invariants: rank and peer bounds,
// non-negative sizes and durations, a known kind. A successful check is
// memoized — repeat calls (one per simulation of a shared program) return
// immediately, and Build and Widen mark the programs they make. Mutating a
// program after a successful Validate is not supported.
//
// Validate checks no dependencies. They reach a program only through
// Requires, which admits only existing ops, and Build, which checks that
// each is on its op's rank and that they are acyclic; the programs Build
// does not make are assembled from bare ops, which have none.
func (p *Program) Validate() error {
	if p.validated.Load() {
		return nil
	}
	if p.NumRanks <= 0 {
		return fmt.Errorf("goal: program has %d ranks", p.NumRanks)
	}
	for i := range p.Ops {
		if _, err := checkOp(p.Ops, nil, i, p.NumRanks); err != nil {
			return err
		}
	}
	p.validated.Store(true)
	return nil
}

// checkOp checks op i of ops on its own and against deps, its
// dependencies: its rank, its kind's peer, tag, size and work bounds, and
// that no dependency is the op itself or on another rank. It reports
// whether the op depends on a later one, which only a topological sort can
// clear. Validate and Build both check each op through it.
func checkOp(ops []Op, deps []OpID, i, numRanks int) (forward bool, err error) {
	op := &ops[i]
	if op.Rank < 0 || int(op.Rank) >= numRanks {
		return false, fmt.Errorf("goal: op %d rank %d out of range [0,%d)", i, op.Rank, numRanks)
	}
	switch op.Kind {
	case KindSend:
		if op.Peer < 0 || int(op.Peer) >= numRanks {
			return false, fmt.Errorf("goal: send op %d peer %d out of range", i, op.Peer)
		}
		if op.Peer == op.Rank {
			return false, fmt.Errorf("goal: send op %d is a self-send", i)
		}
		if op.Bytes < 0 {
			return false, fmt.Errorf("goal: send op %d negative size", i)
		}
		if op.Tag < 0 {
			return false, fmt.Errorf("goal: send op %d negative tag", i)
		}
	case KindRecv:
		if op.Peer != AnySource && (op.Peer < 0 || int(op.Peer) >= numRanks) {
			return false, fmt.Errorf("goal: recv op %d peer %d out of range", i, op.Peer)
		}
		if op.Peer == op.Rank {
			return false, fmt.Errorf("goal: recv op %d is a self-recv", i)
		}
		if op.Bytes < 0 {
			return false, fmt.Errorf("goal: recv op %d negative size", i)
		}
		if op.Tag != AnyTag && op.Tag < 0 {
			return false, fmt.Errorf("goal: recv op %d negative tag", i)
		}
	case KindCalc:
		if op.Work < 0 {
			return false, fmt.Errorf("goal: calc op %d negative work", i)
		}
	default:
		return false, fmt.Errorf("goal: op %d has unknown kind %d", i, op.Kind)
	}
	// Requires admits only ops that exist, so every d is in range.
	for _, d := range deps {
		if d == OpID(i) {
			return false, fmt.Errorf("goal: op %d depends on itself", i)
		}
		forward = forward || d > OpID(i)
		if ops[d].Rank != op.Rank {
			// Cross-rank ordering must be expressed with messages; a
			// bare dependency edge has no physical realization.
			return false, fmt.Errorf("goal: op %d (rank %d) depends on op %d (rank %d): cross-rank deps are not allowed",
				i, op.Rank, d, ops[d].Rank)
		}
	}
	return forward, nil
}

// digestBlock is the size of the buffer Digest encodes into before each
// write to the hash: one call per block instead of one per word.
const digestBlock = 64 << 10

// Digest returns the SHA-256 fingerprint of everything in the program that
// determines a simulation: the rank count and each op's kind, rank, peer,
// tag, bytes, work, dependency count and dependencies, in op order, each as
// a zigzag varint. The reverse edges are derived from the dependencies, so
// they are not hashed. The O(ops) hash runs once per program; later calls
// return the memoized value. Mutating a program after its first Digest is
// not supported.
func (p *Program) Digest() [sha256.Size]byte {
	p.digestOnce.Do(func() {
		h := sha256.New()
		// The varints are appended to one buffer and hashed a block at a
		// time. The buffer is flushed once it passes digestBlock, checked
		// before each op's seven words and before each dependency, so it
		// never outgrows its capacity.
		buf := make([]byte, 0, digestBlock+7*binary.MaxVarintLen64)
		buf = binary.AppendVarint(buf, int64(p.NumRanks))
		buf = binary.AppendVarint(buf, int64(len(p.Ops)))
		for i := range p.Ops {
			if len(buf) > digestBlock {
				h.Write(buf)
				buf = buf[:0]
			}
			op := &p.Ops[i]
			buf = binary.AppendVarint(buf, int64(op.Kind))
			buf = binary.AppendVarint(buf, int64(op.Rank))
			buf = binary.AppendVarint(buf, int64(op.Peer))
			buf = binary.AppendVarint(buf, int64(op.Tag))
			buf = binary.AppendVarint(buf, op.Bytes)
			buf = binary.AppendVarint(buf, int64(op.Work))
			deps := p.Deps(OpID(i))
			buf = binary.AppendVarint(buf, int64(len(deps)))
			for _, d := range deps {
				if len(buf) > digestBlock {
					h.Write(buf)
					buf = buf[:0]
				}
				buf = binary.AppendVarint(buf, int64(d))
			}
		}
		h.Write(buf)
		h.Sum(p.digest[:0])
	})
	return p.digest
}

// checkAcyclic runs Kahn's algorithm over n ops whose reverse edges are
// outs[off[i]:off[i+1]]; the in-degrees are the edge counts per target.
func checkAcyclic(n int, outs []OpID, off []int32) error {
	indeg := make([]int32, n)
	for _, out := range outs {
		indeg[out]++
	}
	queue := make([]OpID, 0, n)
	for i := range indeg {
		if indeg[i] == 0 {
			queue = append(queue, OpID(i))
		}
	}
	seen := 0
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, out := range outs[off[id]:off[id+1]] {
			indeg[out]--
			if indeg[out] == 0 {
				queue = append(queue, out)
			}
		}
	}
	if seen != n {
		return fmt.Errorf("goal: dependency graph has a cycle (%d of %d ops reachable)",
			seen, n)
	}
	return nil
}

// CheckBalanced verifies that every (src, dst, tag) channel has equally many
// sends and non-wildcard recvs, and that wildcard recvs on each rank are
// covered by surplus sends. A balanced program is guaranteed to terminate
// under the simulator (no recv waits forever), provided it is acyclic.
func (p *Program) CheckBalanced() error {
	type channel struct {
		src, dst, tag int32
	}
	sends := make(map[channel]int)
	var wildcards int
	for i := range p.Ops {
		op := &p.Ops[i]
		switch op.Kind {
		case KindSend:
			sends[channel{op.Rank, op.Peer, op.Tag}]++
		case KindRecv:
			if op.Peer == AnySource || op.Tag == AnyTag {
				wildcards++
				continue
			}
			sends[channel{op.Peer, op.Rank, op.Tag}]--
		}
	}
	surplus := 0
	for ch, n := range sends {
		if n < 0 {
			return fmt.Errorf("goal: channel %d->%d tag %d has %d more recvs than sends",
				ch.src, ch.dst, ch.tag, -n)
		}
		surplus += n
	}
	if surplus < wildcards {
		return fmt.Errorf("goal: %d wildcard recvs but only %d unmatched sends",
			wildcards, surplus)
	}
	if surplus > wildcards {
		return fmt.Errorf("goal: %d sends have no matching recv", surplus-wildcards)
	}
	return nil
}
