// Package collective compiles MPI-style collective operations into GOAL
// dependency graphs.
//
// Each generator takes a builder, a per-rank entry dependency (the op each
// rank must complete before participating; goal.NoOp for none), a tag, and
// message sizes, and returns a per-rank exit op: the operation whose
// completion marks that rank's local completion of the collective, exactly
// like the return of a blocking MPI call. Workloads chain collectives by
// feeding exits back in as entries.
//
// The algorithms are the classic implementations the paper's era of MPI
// libraries used: binomial trees for broadcast/reduce/gather/scatter,
// recursive doubling (with the standard non-power-of-two fold) for
// allreduce, dissemination for barrier, ring for allgather, and a shifted
// exchange for alltoall. Their logarithmic depth is what makes coordination
// cost grow with scale — and what lets a single late rank delay every other
// rank in O(log P) hops.
package collective

import (
	"fmt"
	"math/bits"

	"checkpointsim/internal/goal"
)

// validate checks the common argument contract.
func validate(b *goal.Builder, entry []goal.OpID, bytes int64) {
	if entry != nil && len(entry) != b.NumRanks() {
		panic(fmt.Sprintf("collective: entry has %d ranks, builder has %d",
			len(entry), b.NumRanks()))
	}
	if bytes < 0 {
		panic("collective: negative message size")
	}
}

// entryOf returns the entry dependency for rank, tolerating a nil slice.
func entryOf(entry []goal.OpID, rank int) goal.OpID {
	if entry == nil {
		return goal.NoOp
	}
	return entry[rank]
}

// seqs builds one Sequencer per rank rooted at the entries.
func seqs(b *goal.Builder, entry []goal.OpID) []goal.Sequencer {
	out := make([]goal.Sequencer, b.NumRanks())
	for i := range out {
		out[i] = *b.SeqAfter(i, entryOf(entry, i))
	}
	return out
}

// exits collects the per-rank tails.
func exits(ss []goal.Sequencer) []goal.OpID {
	out := make([]goal.OpID, len(ss))
	for i := range ss {
		out[i] = ss[i].Last()
	}
	return out
}

// log2ceil returns ceil(log2(p)) for p >= 1.
func log2ceil(p int) int {
	if p <= 1 {
		return 0
	}
	return bits.Len(uint(p - 1))
}

// Bcast builds a binomial-tree broadcast of bytes from root. Message count
// is P-1 and tree depth is ceil(log2 P).
func Bcast(b *goal.Builder, root int, entry []goal.OpID, tag int, bytes int64) []goal.OpID {
	validate(b, entry, bytes)
	p := b.NumRanks()
	if root < 0 || root >= p {
		panic(fmt.Sprintf("collective: bcast root %d out of range", root))
	}
	ss := seqs(b, entry)
	rounds := log2ceil(p)
	for v := 0; v < p; v++ {
		rank := (v + root) % p
		s := &ss[rank]
		k := rounds // root "received" before round 0
		if v != 0 {
			lsb := v & -v
			k = bits.TrailingZeros(uint(v))
			parent := ((v - lsb) + root) % p
			s.Recv(int32(parent), int32(tag), bytes)
		}
		for j := k - 1; j >= 0; j-- {
			cv := v + 1<<j
			if cv < p {
				s.Send((cv+root)%p, tag, bytes)
			}
		}
	}
	return exits(ss)
}

// Reduce builds a binomial-tree reduction of bytes to root (the mirror of
// Bcast): each rank receives its children's contributions and forwards the
// combined value to its parent. Message count is P-1.
func Reduce(b *goal.Builder, root int, entry []goal.OpID, tag int, bytes int64) []goal.OpID {
	validate(b, entry, bytes)
	p := b.NumRanks()
	if root < 0 || root >= p {
		panic(fmt.Sprintf("collective: reduce root %d out of range", root))
	}
	ss := seqs(b, entry)
	rounds := log2ceil(p)
	for v := 0; v < p; v++ {
		rank := (v + root) % p
		s := &ss[rank]
		k := rounds
		if v != 0 {
			k = bits.TrailingZeros(uint(v))
		}
		for j := 0; j < k; j++ {
			cv := v + 1<<j
			if cv < p {
				s.Recv(int32((cv+root)%p), int32(tag), bytes)
			}
		}
		if v != 0 {
			parent := ((v - (v & -v)) + root) % p
			s.Send(parent, tag, bytes)
		}
	}
	return exits(ss)
}

// ReduceOps is the number of ops Reduce adds on p ranks: a send and a recv
// per message.
func ReduceOps(p int) int { return 2 * (p - 1) }

// Allreduce builds a recursive-doubling allreduce of bytes. For
// non-power-of-two P it applies the standard fold: the first 2·(P-pof2)
// ranks pair up, odd members hand their contribution to their even partner
// before the exchange and receive the result after it. Message count is
// pof2·log2(pof2) + 2·(P-pof2).
func Allreduce(b *goal.Builder, entry []goal.OpID, tag int, bytes int64) []goal.OpID {
	validate(b, entry, bytes)
	p := b.NumRanks()
	ss := seqs(b, entry)
	if p == 1 {
		return exits(ss)
	}
	pof2 := 1 << (bits.Len(uint(p)) - 1)
	if pof2 > p {
		pof2 >>= 1
	}
	rem := p - pof2

	// Fold phase: odd ranks among the first 2·rem send to their partner.
	for i := 0; i < 2*rem; i += 2 {
		ss[i+1].Send(i, tag, bytes)
		ss[i].Recv(int32(i+1), int32(tag), bytes)
	}
	// mapped id -> actual rank
	unmap := func(m int) int {
		if m < rem {
			return 2 * m
		}
		return m + rem
	}
	// Exchange phase among pof2 participants.
	for step := 1; step < pof2; step <<= 1 {
		for m := 0; m < pof2; m++ {
			rank := unmap(m)
			partner := unmap(m ^ step)
			s := &ss[rank]
			sd := s.Fork(goal.KindSend, int32(partner), int32(tag), bytes)
			rv := s.Fork(goal.KindRecv, int32(partner), int32(tag), bytes)
			s.Join(sd, rv)
		}
	}
	// Unfold phase: even ranks return the result to their odd partner.
	for i := 0; i < 2*rem; i += 2 {
		ss[i].Send(i+1, tag, bytes)
		ss[i+1].Recv(int32(i), int32(tag), bytes)
	}
	return exits(ss)
}

// AllreduceOps is the number of ops Allreduce adds on p ranks: a send and a
// recv per fold and unfold message, and per exchange step a send, a recv
// and a join on each of the pof2 participants.
func AllreduceOps(p int) int {
	if p <= 1 {
		return 0
	}
	pof2 := 1 << (bits.Len(uint(p)) - 1)
	return 4*(p-pof2) + 3*pof2*(bits.Len(uint(pof2))-1)
}

// Barrier builds a dissemination barrier: ceil(log2 P) rounds in which rank
// i signals (i + 2^k) mod P and waits for (i - 2^k) mod P. No rank's exit
// can precede any rank's entry — the property that makes it a barrier.
func Barrier(b *goal.Builder, entry []goal.OpID, tag int) []goal.OpID {
	validate(b, entry, 0)
	p := b.NumRanks()
	ss := seqs(b, entry)
	if p == 1 {
		return exits(ss)
	}
	const signalBytes = 1
	for step := 1; step < p; step <<= 1 {
		for i := 0; i < p; i++ {
			s := &ss[i]
			to := (i + step) % p
			from := (i - step + p) % p
			sd := s.Fork(goal.KindSend, int32(to), int32(tag), signalBytes)
			rv := s.Fork(goal.KindRecv, int32(from), int32(tag), signalBytes)
			s.Join(sd, rv)
		}
	}
	return exits(ss)
}

// Allgather builds a ring allgather: P-1 steps in which each rank forwards
// the block it received in the previous step to its right neighbor.
// blockBytes is the per-rank contribution.
func Allgather(b *goal.Builder, entry []goal.OpID, tag int, blockBytes int64) []goal.OpID {
	validate(b, entry, blockBytes)
	p := b.NumRanks()
	ss := seqs(b, entry)
	for step := 0; step < p-1; step++ {
		for i := 0; i < p; i++ {
			s := &ss[i]
			right := (i + 1) % p
			left := (i - 1 + p) % p
			sd := s.Fork(goal.KindSend, int32(right), int32(tag), blockBytes)
			rv := s.Fork(goal.KindRecv, int32(left), int32(tag), blockBytes)
			s.Join(sd, rv)
		}
	}
	return exits(ss)
}

// Alltoall builds a shifted pairwise exchange: in step k each rank sends
// bytes to (rank+k) mod P and receives from (rank-k) mod P. Message count
// is P·(P-1) — the quadratic pattern that makes transposes communication-
// bound at scale.
func Alltoall(b *goal.Builder, entry []goal.OpID, tag int, bytes int64) []goal.OpID {
	validate(b, entry, bytes)
	p := b.NumRanks()
	ss := seqs(b, entry)
	for step := 1; step < p; step++ {
		for i := 0; i < p; i++ {
			s := &ss[i]
			to := (i + step) % p
			from := (i - step + p) % p
			sd := s.Fork(goal.KindSend, int32(to), int32(tag), bytes)
			rv := s.Fork(goal.KindRecv, int32(from), int32(tag), bytes)
			s.Join(sd, rv)
		}
	}
	return exits(ss)
}

// AlltoallOps is the number of ops Alltoall adds on p ranks: a send, a recv
// and a join per rank per step.
func AlltoallOps(p int) int { return 3 * p * (p - 1) }

// Gather builds a binomial-tree gather to root. Inner messages carry whole
// subtrees, so sizes grow toward the root: the child at offset 2^j sends
// min(2^j, remaining)·blockBytes.
func Gather(b *goal.Builder, root int, entry []goal.OpID, tag int, blockBytes int64) []goal.OpID {
	validate(b, entry, blockBytes)
	p := b.NumRanks()
	if root < 0 || root >= p {
		panic(fmt.Sprintf("collective: gather root %d out of range", root))
	}
	ss := seqs(b, entry)
	rounds := log2ceil(p)
	subtree := func(v int) int64 {
		// size of the binomial subtree rooted at virtual rank v
		lsb := v & -v
		if v == 0 {
			return int64(p)
		}
		n := lsb
		if v+n > p {
			n = p - v
		}
		return int64(n)
	}
	for v := 0; v < p; v++ {
		rank := (v + root) % p
		s := &ss[rank]
		k := rounds
		if v != 0 {
			k = bits.TrailingZeros(uint(v))
		}
		for j := 0; j < k; j++ {
			cv := v + 1<<j
			if cv < p {
				s.Recv(int32((cv+root)%p), int32(tag), subtree(cv)*blockBytes)
			}
		}
		if v != 0 {
			parent := ((v - (v & -v)) + root) % p
			s.Send(parent, tag, subtree(v)*blockBytes)
		}
	}
	return exits(ss)
}

// Scatter builds a binomial-tree scatter from root (the mirror of Gather):
// parents forward whole-subtree blocks downward.
func Scatter(b *goal.Builder, root int, entry []goal.OpID, tag int, blockBytes int64) []goal.OpID {
	validate(b, entry, blockBytes)
	p := b.NumRanks()
	if root < 0 || root >= p {
		panic(fmt.Sprintf("collective: scatter root %d out of range", root))
	}
	ss := seqs(b, entry)
	rounds := log2ceil(p)
	subtree := func(v int) int64 {
		lsb := v & -v
		if v == 0 {
			return int64(p)
		}
		n := lsb
		if v+n > p {
			n = p - v
		}
		return int64(n)
	}
	for v := 0; v < p; v++ {
		rank := (v + root) % p
		s := &ss[rank]
		k := rounds
		if v != 0 {
			lsb := v & -v
			k = bits.TrailingZeros(uint(v))
			parent := ((v - lsb) + root) % p
			s.Recv(int32(parent), int32(tag), subtree(v)*blockBytes)
		}
		for j := k - 1; j >= 0; j-- {
			cv := v + 1<<j
			if cv < p {
				s.Send((cv+root)%p, tag, subtree(cv)*blockBytes)
			}
		}
	}
	return exits(ss)
}
