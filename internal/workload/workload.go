// Package workload generates synthetic applications with the communication
// skeletons of the production codes used in checkpointing studies of the
// paper's era: halo-exchange stencils (CTH/LAMMPS class), wavefront sweeps
// (Sweep3D/PARTISN class), allreduce-dominated iterative solvers (HPCCG/CG
// class), transpose-heavy codes (FFT class), bulk-synchronous master–worker
// farms, and embarrassingly parallel baselines.
//
// The generators substitute for the recorded MPI traces the original study
// replayed (which are not redistributable): what matters for delay
// propagation is the dependency skeleton — who waits on whom, how often,
// with what message sizes — and that is reproduced exactly. Per-iteration
// compute is a parameter, optionally jittered with a seeded, truncated
// normal distribution to model load imbalance.
//
// A CommonConfig is the whole description of a workload: each generator
// fixes the rest of its shape (see the constants below). Every generator
// pre-sizes its builder (goal.Builder.Grow) to the ops it is about to add,
// counted from its geometry and the collectives' own op counts, so the op
// table is allocated once and holds at most 5% more ops than it builds.
package workload

import (
	"fmt"
	"math"

	"checkpointsim/internal/collective"
	"checkpointsim/internal/goal"
	"checkpointsim/internal/rng"
	"checkpointsim/internal/simtime"
)

// Base holds the parameters common to all workloads.
type Base struct {
	// Ranks is the number of MPI ranks.
	Ranks int
	// Iterations is the number of outer timesteps.
	Iterations int
	// Compute is the mean per-rank computation per iteration.
	Compute simtime.Duration
	// Jitter is the relative standard deviation of per-iteration compute
	// (0 = perfectly balanced). Draws are truncated at zero.
	Jitter float64
	// Seed drives the jitter stream; equal seeds give equal programs.
	Seed uint64
}

// CommonConfig describes a workload: the parameters every generator shares
// and the dominant message size.
type CommonConfig struct {
	Base
	// Bytes is the dominant message size: the halo, wavefront edge,
	// transpose block, farm task and result, or pairwise exchange.
	Bytes int64
}

func (c CommonConfig) validate() error {
	switch {
	case c.Ranks <= 0:
		return fmt.Errorf("workload: %d ranks", c.Ranks)
	case c.Iterations <= 0:
		return fmt.Errorf("workload: %d iterations", c.Iterations)
	case c.Compute < 0:
		return fmt.Errorf("workload: negative compute")
	case !(c.Jitter >= 0) || math.IsInf(c.Jitter, 1):
		return fmt.Errorf("workload: bad jitter %v", c.Jitter)
	case float64(c.Compute)*(1+rng.NormalBound*c.Jitter) >= 1<<63:
		// Some draw could pass the int64 range of a simtime.Duration.
		return fmt.Errorf("workload: jitter %v overflows compute %v", c.Jitter, c.Compute)
	case c.Bytes < 0:
		return fmt.Errorf("workload: negative message size %d", c.Bytes)
	}
	return nil
}

// computeSource returns the deterministic jitter stream for this workload.
func (b Base) computeSource() *rng.Source { return rng.New(b.Seed).Split(0x77) }

// draw returns one per-iteration compute duration.
func (b Base) draw(r *rng.Source) simtime.Duration {
	if b.Jitter == 0 || b.Compute == 0 {
		return b.Compute
	}
	v := r.TruncNormal(float64(b.Compute), b.Jitter*float64(b.Compute), 0)
	return simtime.Duration(v)
}

// The fixed parts of each skeleton's shape.
const (
	// reduceEvery is the stencils' cadence of a residual/dt allreduce.
	reduceEvery = 10
	// dotsPerIter is the number of CG dot-product allreduces per iteration.
	dotsPerIter = 2
	// pairings is the number of random matchings drawn per iteration.
	pairings = 2
	// scalarBytes is the payload of a reduced scalar: the stencils'
	// residual, CG's dot products and EP's final result.
	scalarBytes = 8
)

// dims2 factors p into the most square (px, py) grid with px·py = p and
// px >= py.
func dims2(p int) (px, py int) {
	py = int(math.Sqrt(float64(p)))
	for py > 1 && p%py != 0 {
		py--
	}
	return p / py, py
}

// dims3 factors p into the most cubic (px, py, pz) with px ≥ py ≥ pz.
func dims3(p int) (px, py, pz int) {
	pz = int(math.Cbrt(float64(p)))
	for pz > 1 && p%pz != 0 {
		pz--
	}
	px, py = dims2(p / pz)
	return px, py, pz
}

// tag bases keep each workload's message classes distinct.
const (
	tagHalo   = 100
	tagReduce = 200
	tagSweep  = 300
	tagFarm   = 400
	tagPair   = 500
	tagFinal  = 600
)

// rankSeqs returns an empty sequencer for each of the builder's ranks.
func rankSeqs(b *goal.Builder) []goal.Sequencer {
	seqs := make([]goal.Sequencer, b.NumRanks())
	for i := range seqs {
		seqs[i] = *b.Seq(i)
	}
	return seqs
}

// collect runs a collective over the tails of every rank's sequence and
// continues each sequence from that rank's exit.
func collect(b *goal.Builder, seqs []goal.Sequencer,
	coll func(*goal.Builder, []goal.OpID, int, int64) []goal.OpID, tag int, bytes int64) {
	entries := make([]goal.OpID, len(seqs))
	for i := range seqs {
		entries[i] = seqs[i].Last()
	}
	for i, exit := range coll(b, entries, tag, bytes) {
		seqs[i] = *b.SeqAfter(i, exit)
	}
}

// gridNeighbors lists each rank's face neighbours on a non-periodic grid
// with the given extents, the first dimension varying fastest: for each
// dimension in turn, the lower neighbour then the upper one.
func gridNeighbors(dims ...int) [][]int32 {
	p := 1
	for _, d := range dims {
		p *= d
	}
	nbrs := make([][]int32, p)
	for rank := range nbrs {
		rest, stride := rank, 1
		for _, d := range dims {
			at := rest % d
			if at > 0 {
				nbrs[rank] = append(nbrs[rank], int32(rank-stride))
			}
			if at < d-1 {
				nbrs[rank] = append(nbrs[rank], int32(rank+stride))
			}
			rest /= d
			stride *= d
		}
	}
	return nbrs
}

// stencil2D builds a 5-point 2D halo-exchange stencil on the most square
// rank grid, with a residual allreduce every reduceEvery iterations.
func stencil2D(c CommonConfig) (*goal.Program, error) {
	return stencil(c, gridNeighbors(dims2(c.Ranks)), nil, true)
}

// stencil3D builds a 7-point 3D halo-exchange stencil (up to six
// neighbours per rank) on the most cubic rank grid, with a residual
// allreduce every reduceEvery iterations.
func stencil3D(c CommonConfig) (*goal.Program, error) {
	px, py, pz := dims3(c.Ranks)
	return stencil(c, gridNeighbors(px, py, pz), nil, true)
}

// stencil builds a halo exchange over the given neighbour lists: each
// iteration every rank computes, then exchanges halos with its neighbours
// via non-blocking send/recv pairs joined before the next step. A non-nil
// scale multiplies each rank's compute (static load imbalance); reduce adds
// the residual allreduce.
func stencil(c CommonConfig, nbrs [][]int32, scale []float64, reduce bool) (*goal.Program, error) {
	b := goal.NewBuilder(c.Ranks)
	est := c.Iterations * haloOps(nbrs)
	if reduce {
		est += c.Iterations / reduceEvery * collective.AllreduceOps(c.Ranks)
	}
	b.Grow(est)
	seqs := rankSeqs(b)
	r := c.computeSource()
	forks := make([]goal.OpID, 0, 6*2)
	for it := 0; it < c.Iterations; it++ {
		for rank := range seqs {
			s := &seqs[rank]
			w := c.draw(r)
			if scale != nil {
				w = w.Scale(scale[rank])
			}
			s.Calc(w)
			forks = forks[:0]
			for _, n := range nbrs[rank] {
				forks = append(forks,
					s.Fork(goal.KindSend, n, tagHalo, c.Bytes),
					s.Fork(goal.KindRecv, n, tagHalo, c.Bytes))
			}
			s.Join(forks...)
		}
		if reduce && (it+1)%reduceEvery == 0 {
			collect(b, seqs, collective.Allreduce, tagReduce, scalarBytes)
		}
	}
	return b.Build()
}

// haloOps counts the ops one stencil iteration adds: per rank a calc and,
// if it has neighbours, a send and a recv per neighbour and the join.
func haloOps(nbrs [][]int32) int {
	n := 0
	for _, l := range nbrs {
		n++
		if len(l) > 0 {
			n += 1 + 2*len(l)
		}
	}
	return n
}

// sweep builds a wavefront computation in the style of Sweep3D/PARTISN:
// ranks form a 2D grid, each sweep starts in one corner and propagates
// diagonally — a rank computes only after receiving from its upwind
// neighbors, then feeds its downwind neighbors. Sweeps alternate between
// the southwest and northeast corners. The long dependency chains make this
// the most delay-sensitive skeleton in the suite.
func sweep(c CommonConfig) (*goal.Program, error) {
	px, py := dims2(c.Ranks)
	rankOf := func(x, y int) int { return y*px + x }
	b := goal.NewBuilder(c.Ranks)
	// Per iteration a calc per rank, and a send and a recv per grid edge in
	// each of the two directions.
	b.Grow(c.Iterations * (c.Ranks + 2*((px-1)*py+px*(py-1))))
	seqs := rankSeqs(b)
	r := c.computeSource()
	for it := 0; it < c.Iterations; it++ {
		forward := it%2 == 0
		for y := 0; y < py; y++ {
			for x := 0; x < px; x++ {
				s := &seqs[rankOf(x, y)]
				// Upwind receives.
				if forward {
					if x > 0 {
						s.Recv(int32(rankOf(x-1, y)), tagSweep, c.Bytes)
					}
					if y > 0 {
						s.Recv(int32(rankOf(x, y-1)), tagSweep, c.Bytes)
					}
				} else {
					if x < px-1 {
						s.Recv(int32(rankOf(x+1, y)), tagSweep, c.Bytes)
					}
					if y < py-1 {
						s.Recv(int32(rankOf(x, y+1)), tagSweep, c.Bytes)
					}
				}
				s.Calc(c.draw(r))
				// Downwind sends.
				if forward {
					if x < px-1 {
						s.Send(rankOf(x+1, y), tagSweep, c.Bytes)
					}
					if y < py-1 {
						s.Send(rankOf(x, y+1), tagSweep, c.Bytes)
					}
				} else {
					if x > 0 {
						s.Send(rankOf(x-1, y), tagSweep, c.Bytes)
					}
					if y > 0 {
						s.Send(rankOf(x, y-1), tagSweep, c.Bytes)
					}
				}
			}
		}
	}
	return b.Build()
}

// cg builds an HPCCG/CG-class skeleton: each iteration does a halo exchange
// of Bytes with ring neighbors (the sparse matrix-vector product; none when
// Bytes is 0), a computation, and dotsPerIter scalar allreduces (the dot
// products). Latency-bound at scale: the allreduces synchronize all ranks
// every iteration.
func cg(c CommonConfig) (*goal.Program, error) {
	p := c.Ranks
	b := goal.NewBuilder(p)
	perIter := p + dotsPerIter*collective.AllreduceOps(p) // calcs, dots
	switch {
	case p > 2 && c.Bytes > 0:
		perIter += 5 * p // two send/recv pairs and a join per rank
	case p == 2 && c.Bytes > 0:
		perIter += 3 * p // one pair and a join
	}
	b.Grow(c.Iterations * perIter)
	seqs := rankSeqs(b)
	r := c.computeSource()
	for it := 0; it < c.Iterations; it++ {
		// Halo with ring neighbors (1D decomposition of the matrix rows).
		if p > 1 && c.Bytes > 0 {
			for i := 0; i < p; i++ {
				s := &seqs[i]
				right, left := (i+1)%p, (i-1+p)%p
				forks := [4]goal.OpID{
					s.Fork(goal.KindSend, int32(right), tagHalo, c.Bytes),
					s.Fork(goal.KindRecv, int32(left), tagHalo, c.Bytes)}
				n := 2
				if p > 2 {
					forks[2] = s.Fork(goal.KindSend, int32(left), tagHalo, c.Bytes)
					forks[3] = s.Fork(goal.KindRecv, int32(right), tagHalo, c.Bytes)
					n = 4
				}
				s.Join(forks[:n]...)
			}
		}
		for i := range seqs {
			seqs[i].Calc(c.draw(r))
		}
		for d := 0; d < dotsPerIter; d++ {
			collect(b, seqs, collective.Allreduce, tagReduce+d, scalarBytes)
		}
	}
	return b.Build()
}

// transpose builds an FFT-class skeleton: each iteration computes and then
// performs a full alltoall of Bytes per pair (the distributed transpose).
// Bandwidth-bound and maximally coupled: every rank waits on every other
// rank every iteration.
func transpose(c CommonConfig) (*goal.Program, error) {
	p := c.Ranks
	b := goal.NewBuilder(p)
	b.Grow(c.Iterations * (p + collective.AlltoallOps(p))) // calcs, transpose
	seqs := rankSeqs(b)
	r := c.computeSource()
	for it := 0; it < c.Iterations; it++ {
		for i := range seqs {
			seqs[i].Calc(c.draw(r))
		}
		if p > 1 {
			collect(b, seqs, collective.Alltoall, tagPair, c.Bytes)
		}
	}
	return b.Build()
}

// farm builds a master–worker farm: each round, rank 0 sends a task to
// every worker, workers compute (with jitter — the source of imbalance) and
// return results, which the master collects with AnySource receives (any
// completion order) before dispatching the next round. Tasks and results
// are both Bytes. The master is a serialization point: delay on any worker
// stalls the whole next round.
func farm(c CommonConfig) (*goal.Program, error) {
	if c.Ranks < 2 {
		return nil, fmt.Errorf("workload: farm needs at least 2 ranks")
	}
	p := c.Ranks
	workers := p - 1
	b := goal.NewBuilder(p)
	// Per round a send, a recv and three worker ops per worker, the two
	// joins and the aggregation.
	b.Grow(c.Iterations * (workers*5 + 3))
	seqs := rankSeqs(b)
	master, wseqs := &seqs[0], seqs[1:]
	r := c.computeSource()
	forks := make([]goal.OpID, workers) // one round's sends, then its receives
	for it := 0; it < c.Iterations; it++ {
		// Dispatch: tasks go out back to back.
		for w := range forks {
			forks[w] = master.Fork(goal.KindSend, int32(w+1), tagFarm, c.Bytes)
		}
		master.Join(forks...)
		// Workers compute and reply.
		for i := range wseqs {
			s := &wseqs[i]
			s.Recv(0, tagFarm, c.Bytes)
			s.Calc(c.draw(r))
			s.Send(0, tagFarm+1, c.Bytes)
		}
		// Collect in any order.
		for w := range forks {
			forks[w] = master.Fork(goal.KindRecv, goal.AnySource, tagFarm+1, c.Bytes)
		}
		master.Join(forks...)
		master.Calc(c.draw(r) / simtime.Duration(workers+1)) // cheap aggregation
	}
	return b.Build()
}

// ep builds the embarrassingly parallel baseline: pure computation per
// iteration, one scalar reduction at the very end (Bytes is unused). Its
// only coupling is the final reduce, so checkpoint delays cannot propagate
// — the control case for every propagation experiment.
func ep(c CommonConfig) (*goal.Program, error) {
	b := goal.NewBuilder(c.Ranks)
	b.Grow(c.Iterations*c.Ranks + collective.ReduceOps(c.Ranks))
	entries := make([]goal.OpID, c.Ranks)
	r := c.computeSource()
	for i := 0; i < c.Ranks; i++ {
		s := b.Seq(i)
		for it := 0; it < c.Iterations; it++ {
			s.Calc(c.draw(r))
		}
		entries[i] = s.Last()
	}
	if c.Ranks > 1 {
		collective.Reduce(b, 0, entries, tagFinal, scalarBytes)
	}
	return b.Build()
}

// randomNeighbor builds an unstructured communication pattern: every
// iteration draws pairings random perfect matchings of the ranks (seeded,
// deterministic) and each pair exchanges Bytes both ways. Models
// unstructured-mesh and particle codes whose neighbor sets have no
// exploitable geometry.
func randomNeighbor(c CommonConfig) (*goal.Program, error) {
	p := c.Ranks
	b := goal.NewBuilder(p)
	// Per iteration a calc per rank, and per pairing two forks and a join
	// on each matched rank.
	b.Grow(c.Iterations * (p + 6*pairings*(p/2)))
	seqs := rankSeqs(b)
	jr := c.computeSource()
	pr := rng.New(c.Seed).Split(0x99)
	for it := 0; it < c.Iterations; it++ {
		for i := range seqs {
			seqs[i].Calc(c.draw(jr))
		}
		for k := 0; k < pairings; k++ {
			perm := pr.Perm(p)
			for j := 0; j+1 < p; j += 2 {
				a, e := perm[j], perm[j+1]
				sa, se := &seqs[a], &seqs[e]
				fa1 := sa.Fork(goal.KindSend, int32(e), tagPair, c.Bytes)
				fa2 := sa.Fork(goal.KindRecv, int32(e), tagPair, c.Bytes)
				sa.Join(fa1, fa2)
				fe1 := se.Fork(goal.KindSend, int32(a), tagPair, c.Bytes)
				fe2 := se.Fork(goal.KindRecv, int32(a), tagPair, c.Bytes)
				se.Join(fe1, fe2)
			}
		}
	}
	return b.Build()
}

// Straggler builds a 2D stencil without the residual allreduce in which
// rank slow (clamped into range) computes factor× slower every iteration —
// the static-imbalance counterpart of noise injection. With a communicating
// workload the whole machine runs at the straggler's pace; experiment E13
// measures how checkpointing protocols interact with that (a coordinated
// round inherits the straggler's lateness, an aligned uncoordinated write
// hides inside the others' wait time).
func Straggler(c CommonConfig, slow int, factor float64) (*goal.Program, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	return straggler(c, slow, factor)
}

// straggler is Straggler on an already validated configuration.
func straggler(c CommonConfig, slow int, factor float64) (*goal.Program, error) {
	switch {
	case !(factor >= 1):
		return nil, fmt.Errorf("workload: straggler factor %v < 1", factor)
	case math.IsInf(factor, 1) || float64(c.Compute)*factor*(1+rng.NormalBound*c.Jitter) >= 1<<63:
		// The slow rank's work would saturate at simtime.Forever: the bound
		// validate puts on jitter, scaled by the factor.
		return nil, fmt.Errorf("workload: straggler factor %v with jitter %v overflows compute %v",
			factor, c.Jitter, c.Compute)
	}
	slow = min(max(slow, 0), c.Ranks-1)
	scale := make([]float64, c.Ranks)
	for i := range scale {
		scale[i] = 1
	}
	scale[slow] = factor
	return stencil(c, gridNeighbors(dims2(c.Ranks)), scale, false)
}
