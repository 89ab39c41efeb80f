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
package workload

import (
	"fmt"
	"math"

	"checkpointsim/internal/collective"
	"checkpointsim/internal/goal"
	"checkpointsim/internal/rng"
	"checkpointsim/internal/simtime"
)

// reserve pre-sizes the builder to the number of ops the generator is about
// to add, counted from its geometry and the collectives' own op counts, so
// the op table is allocated once, appended into place, and not larger than
// the program: every generator reserves within 5% of what it builds.
func reserve(b *goal.Builder, ops int) { b.Grow(ops) }

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

func (b Base) validate() error {
	if b.Ranks <= 0 {
		return fmt.Errorf("workload: %d ranks", b.Ranks)
	}
	if b.Iterations <= 0 {
		return fmt.Errorf("workload: %d iterations", b.Iterations)
	}
	if b.Compute < 0 {
		return fmt.Errorf("workload: negative compute")
	}
	if b.Jitter < 0 || math.IsNaN(b.Jitter) {
		return fmt.Errorf("workload: bad jitter %v", b.Jitter)
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

// Dims2 factors p into the most square (px, py) grid with px·py = p and
// px >= py.
func Dims2(p int) (px, py int) {
	py = int(math.Sqrt(float64(p)))
	for py > 1 && p%py != 0 {
		py--
	}
	return p / py, py
}

// Dims3 factors p into the most cubic (px, py, pz) with px ≥ py ≥ pz.
func Dims3(p int) (px, py, pz int) {
	pz = int(math.Cbrt(float64(p)))
	for pz > 1 && p%pz != 0 {
		pz--
	}
	rest := p / pz
	px, py = Dims2(rest)
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

// Stencil2DConfig configures a 2D halo-exchange stencil.
type Stencil2DConfig struct {
	Base
	// HaloBytes is the per-neighbor halo message size.
	HaloBytes int64
	// Periodic selects periodic (torus) boundaries; otherwise edge ranks
	// have fewer neighbors.
	Periodic bool
	// ReduceEvery inserts an 8-byte allreduce (a residual/dt check) every
	// this many iterations; 0 disables it.
	ReduceEvery int
	// ComputeScale optionally multiplies each rank's per-iteration compute
	// (nil = uniform). Length must equal Ranks. Models static load
	// imbalance: stragglers, hotspots, heterogeneous nodes.
	ComputeScale []float64
}

// Stencil2D builds a 5-point 2D halo-exchange stencil on the most square
// rank grid: each iteration computes, then exchanges halos with up to four
// neighbors via non-blocking send/recv pairs joined before the next step.
func Stencil2D(cfg Stencil2DConfig) (*goal.Program, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.HaloBytes < 0 {
		return nil, fmt.Errorf("workload: negative halo size")
	}
	if cfg.ComputeScale != nil && len(cfg.ComputeScale) != cfg.Ranks {
		return nil, fmt.Errorf("workload: ComputeScale has %d entries for %d ranks",
			len(cfg.ComputeScale), cfg.Ranks)
	}
	for _, f := range cfg.ComputeScale {
		if f < 0 || math.IsNaN(f) {
			return nil, fmt.Errorf("workload: bad compute scale %v", f)
		}
	}
	px, py := Dims2(cfg.Ranks)
	rankOf := func(x, y int) int { return y*px + x }
	type d struct{ dx, dy int }
	dirs := []d{{-1, 0}, {1, 0}, {0, -1}, {0, 1}}
	nbrs := make([][]int32, cfg.Ranks) // each rank's halo neighbours
	for rank := range nbrs {
		x, y := rank%px, rank/px
		for _, dd := range dirs {
			nx, ny := x+dd.dx, y+dd.dy
			if cfg.Periodic {
				nx, ny = (nx+px)%px, (ny+py)%py
			} else if nx < 0 || nx >= px || ny < 0 || ny >= py {
				continue
			}
			if n := rankOf(nx, ny); n != rank { // periodic wrap on a 1-wide dim
				nbrs[rank] = append(nbrs[rank], int32(n))
			}
		}
	}
	b := goal.NewBuilder(cfg.Ranks)
	est := cfg.Iterations * haloOps(nbrs)
	if cfg.ReduceEvery > 0 {
		est += cfg.Iterations / cfg.ReduceEvery * collective.AllreduceOps(cfg.Ranks)
	}
	reserve(b, est)
	seqs := make([]goal.Sequencer, cfg.Ranks)
	for i := range seqs {
		seqs[i] = *b.Seq(i)
	}
	r := cfg.computeSource()

	forks := make([]goal.OpID, 0, 2*len(dirs))
	for it := 0; it < cfg.Iterations; it++ {
		for y := 0; y < py; y++ {
			for x := 0; x < px; x++ {
				rank := rankOf(x, y)
				s := &seqs[rank]
				w := cfg.draw(r)
				if cfg.ComputeScale != nil {
					w = w.Scale(cfg.ComputeScale[rank])
				}
				s.Calc(w)
				forks = haloForks(s, forks[:0], nbrs[rank], cfg.HaloBytes)
				s.Join(forks...)
			}
		}
		if cfg.ReduceEvery > 0 && (it+1)%cfg.ReduceEvery == 0 {
			entries := make([]goal.OpID, cfg.Ranks)
			for i := range seqs {
				entries[i] = seqs[i].Last()
			}
			exits := collective.Allreduce(b, entries, tagReduce, 8)
			for i := range seqs {
				seqs[i] = *b.SeqAfter(i, exits[i])
			}
		}
	}
	return b.Build()
}

// Stencil3DConfig configures a 3D halo-exchange stencil.
type Stencil3DConfig struct {
	Base
	HaloBytes   int64
	Periodic    bool
	ReduceEvery int
}

// Stencil3D builds a 7-point 3D halo-exchange stencil (up to six
// neighbors per rank) on the most cubic rank grid.
func Stencil3D(cfg Stencil3DConfig) (*goal.Program, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.HaloBytes < 0 {
		return nil, fmt.Errorf("workload: negative halo size")
	}
	px, py, pz := Dims3(cfg.Ranks)
	rankOf := func(x, y, z int) int { return (z*py+y)*px + x }
	type d struct{ dx, dy, dz int }
	dirs := []d{{-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1}}
	nbrs := make([][]int32, cfg.Ranks) // each rank's halo neighbours
	for rank := range nbrs {
		x, y, z := rank%px, rank/px%py, rank/(px*py)
		for _, dd := range dirs {
			nx, ny, nz := x+dd.dx, y+dd.dy, z+dd.dz
			if cfg.Periodic {
				nx, ny, nz = (nx+px)%px, (ny+py)%py, (nz+pz)%pz
			} else if nx < 0 || nx >= px || ny < 0 || ny >= py || nz < 0 || nz >= pz {
				continue
			}
			if n := rankOf(nx, ny, nz); n != rank {
				nbrs[rank] = append(nbrs[rank], int32(n))
			}
		}
	}
	b := goal.NewBuilder(cfg.Ranks)
	est := cfg.Iterations * haloOps(nbrs)
	if cfg.ReduceEvery > 0 {
		est += cfg.Iterations / cfg.ReduceEvery * collective.AllreduceOps(cfg.Ranks)
	}
	reserve(b, est)
	seqs := make([]goal.Sequencer, cfg.Ranks)
	for i := range seqs {
		seqs[i] = *b.Seq(i)
	}
	r := cfg.computeSource()
	forks := make([]goal.OpID, 0, 2*len(dirs))
	for it := 0; it < cfg.Iterations; it++ {
		for z := 0; z < pz; z++ {
			for y := 0; y < py; y++ {
				for x := 0; x < px; x++ {
					rank := rankOf(x, y, z)
					s := &seqs[rank]
					s.Calc(cfg.draw(r))
					forks = haloForks(s, forks[:0], nbrs[rank], cfg.HaloBytes)
					s.Join(forks...)
				}
			}
		}
		if cfg.ReduceEvery > 0 && (it+1)%cfg.ReduceEvery == 0 {
			entries := make([]goal.OpID, cfg.Ranks)
			for i := range seqs {
				entries[i] = seqs[i].Last()
			}
			exits := collective.Allreduce(b, entries, tagReduce, 8)
			for i := range seqs {
				seqs[i] = *b.SeqAfter(i, exits[i])
			}
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

// haloForks appends to forks a non-blocking send and recv with each
// neighbour, forked off s's tail, and returns the extended slice.
func haloForks(s *goal.Sequencer, forks []goal.OpID, nbrs []int32, bytes int64) []goal.OpID {
	for _, n := range nbrs {
		forks = append(forks,
			s.Fork(goal.KindSend, n, tagHalo, bytes),
			s.Fork(goal.KindRecv, n, tagHalo, bytes))
	}
	return forks
}

// SweepConfig configures a 2D wavefront sweep.
type SweepConfig struct {
	Base
	// EdgeBytes is the size of the wavefront messages.
	EdgeBytes int64
}

// Sweep builds a wavefront computation in the style of Sweep3D/PARTISN:
// ranks form a 2D grid, each sweep starts in one corner and propagates
// diagonally — a rank computes only after receiving from its upwind
// neighbors, then feeds its downwind neighbors. Sweeps alternate between
// the southwest and northeast corners. The long dependency chains make this
// the most delay-sensitive skeleton in the suite.
func Sweep(cfg SweepConfig) (*goal.Program, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.EdgeBytes < 0 {
		return nil, fmt.Errorf("workload: negative edge size")
	}
	px, py := Dims2(cfg.Ranks)
	rankOf := func(x, y int) int { return y*px + x }
	b := goal.NewBuilder(cfg.Ranks)
	// Per iteration a calc per rank, and a send and a recv per grid edge in
	// each of the two directions.
	reserve(b, cfg.Iterations*(cfg.Ranks+2*((px-1)*py+px*(py-1))))
	seqs := make([]goal.Sequencer, cfg.Ranks)
	for i := range seqs {
		seqs[i] = *b.Seq(i)
	}
	r := cfg.computeSource()
	for it := 0; it < cfg.Iterations; it++ {
		forward := it%2 == 0
		for y := 0; y < py; y++ {
			for x := 0; x < px; x++ {
				rank := rankOf(x, y)
				s := &seqs[rank]
				// Upwind receives.
				if forward {
					if x > 0 {
						s.Recv(int32(rankOf(x-1, y)), tagSweep, cfg.EdgeBytes)
					}
					if y > 0 {
						s.Recv(int32(rankOf(x, y-1)), tagSweep, cfg.EdgeBytes)
					}
				} else {
					if x < px-1 {
						s.Recv(int32(rankOf(x+1, y)), tagSweep, cfg.EdgeBytes)
					}
					if y < py-1 {
						s.Recv(int32(rankOf(x, y+1)), tagSweep, cfg.EdgeBytes)
					}
				}
				s.Calc(cfg.draw(r))
				// Downwind sends.
				if forward {
					if x < px-1 {
						s.Send(rankOf(x+1, y), tagSweep, cfg.EdgeBytes)
					}
					if y < py-1 {
						s.Send(rankOf(x, y+1), tagSweep, cfg.EdgeBytes)
					}
				} else {
					if x > 0 {
						s.Send(rankOf(x-1, y), tagSweep, cfg.EdgeBytes)
					}
					if y > 0 {
						s.Send(rankOf(x, y-1), tagSweep, cfg.EdgeBytes)
					}
				}
			}
		}
	}
	return b.Build()
}

// CGConfig configures an allreduce-dominated iterative solver skeleton.
type CGConfig struct {
	Base
	// HaloBytes is the sparse-matvec halo exchange size (ring neighbors).
	HaloBytes int64
	// DotBytes is the allreduce payload (8 for a scalar dot product).
	DotBytes int64
	// DotsPerIter is the number of allreduces per iteration (CG does 2).
	DotsPerIter int
}

// CG builds an HPCCG/CG-class skeleton: each iteration does a halo exchange
// with ring neighbors (the sparse matrix-vector product), a computation,
// and DotsPerIter small allreduces (the dot products). Latency-bound at
// scale: the allreduces synchronize all ranks every iteration.
func CG(cfg CGConfig) (*goal.Program, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.HaloBytes < 0 || cfg.DotBytes < 0 {
		return nil, fmt.Errorf("workload: negative message size")
	}
	if cfg.DotsPerIter <= 0 {
		cfg.DotsPerIter = 2
	}
	if cfg.DotBytes == 0 {
		cfg.DotBytes = 8
	}
	p := cfg.Ranks
	b := goal.NewBuilder(p)
	perIter := p + cfg.DotsPerIter*collective.AllreduceOps(p) // calcs, dots
	switch {
	case p > 2 && cfg.HaloBytes > 0:
		perIter += 5 * p // two send/recv pairs and a join per rank
	case p == 2 && cfg.HaloBytes > 0:
		perIter += 3 * p // one pair and a join
	}
	reserve(b, cfg.Iterations*perIter)
	seqs := make([]goal.Sequencer, p)
	for i := range seqs {
		seqs[i] = *b.Seq(i)
	}
	r := cfg.computeSource()
	for it := 0; it < cfg.Iterations; it++ {
		// Halo with ring neighbors (1D decomposition of the matrix rows).
		if p > 1 && cfg.HaloBytes > 0 {
			for i := 0; i < p; i++ {
				s := &seqs[i]
				right, left := (i+1)%p, (i-1+p)%p
				var forks []goal.OpID
				forks = append(forks,
					s.Fork(goal.KindSend, int32(right), tagHalo, cfg.HaloBytes),
					s.Fork(goal.KindRecv, int32(left), tagHalo, cfg.HaloBytes))
				if p > 2 {
					forks = append(forks,
						s.Fork(goal.KindSend, int32(left), tagHalo, cfg.HaloBytes),
						s.Fork(goal.KindRecv, int32(right), tagHalo, cfg.HaloBytes))
				}
				s.Join(forks...)
			}
		}
		for i := range seqs {
			seqs[i].Calc(cfg.draw(r))
		}
		for d := 0; d < cfg.DotsPerIter; d++ {
			entries := make([]goal.OpID, p)
			for i := range seqs {
				entries[i] = seqs[i].Last()
			}
			exits := collective.Allreduce(b, entries, tagReduce+d, cfg.DotBytes)
			for i := range seqs {
				seqs[i] = *b.SeqAfter(i, exits[i])
			}
		}
	}
	return b.Build()
}

// TransposeConfig configures an alltoall-dominated (FFT-class) skeleton.
type TransposeConfig struct {
	Base
	// BlockBytes is the per-pair alltoall message size.
	BlockBytes int64
}

// Transpose builds an FFT-class skeleton: each iteration computes and then
// performs a full alltoall (the distributed transpose). Bandwidth-bound and
// maximally coupled: every rank waits on every other rank every iteration.
func Transpose(cfg TransposeConfig) (*goal.Program, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.BlockBytes < 0 {
		return nil, fmt.Errorf("workload: negative block size")
	}
	p := cfg.Ranks
	b := goal.NewBuilder(p)
	reserve(b, cfg.Iterations*(p+collective.AlltoallOps(p))) // calcs, transpose
	seqs := make([]goal.Sequencer, p)
	for i := range seqs {
		seqs[i] = *b.Seq(i)
	}
	r := cfg.computeSource()
	for it := 0; it < cfg.Iterations; it++ {
		for i := range seqs {
			seqs[i].Calc(cfg.draw(r))
		}
		if p > 1 {
			entries := make([]goal.OpID, p)
			for i := range seqs {
				entries[i] = seqs[i].Last()
			}
			exits := collective.Alltoall(b, entries, tagPair, cfg.BlockBytes)
			for i := range seqs {
				seqs[i] = *b.SeqAfter(i, exits[i])
			}
		}
	}
	return b.Build()
}

// FarmConfig configures a bulk-synchronous master–worker farm.
type FarmConfig struct {
	Base
	// TaskBytes is the master→worker task message size.
	TaskBytes int64
	// ResultBytes is the worker→master result size.
	ResultBytes int64
}

// Farm builds a master–worker farm: each round, rank 0 sends a task to
// every worker, workers compute (with jitter — the source of imbalance) and
// return results, which the master collects with AnySource receives (any
// completion order) before dispatching the next round. The master is a
// serialization point: delay on any worker stalls the whole next round.
func Farm(cfg FarmConfig) (*goal.Program, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Ranks < 2 {
		return nil, fmt.Errorf("workload: farm needs at least 2 ranks")
	}
	if cfg.TaskBytes < 0 || cfg.ResultBytes < 0 {
		return nil, fmt.Errorf("workload: negative message size")
	}
	p := cfg.Ranks
	workers := p - 1
	b := goal.NewBuilder(p)
	// Per round a send, a recv and three worker ops per worker, the two
	// joins and the aggregation.
	reserve(b, cfg.Iterations*(workers*5+3))
	master := b.Seq(0)
	wseqs := make([]goal.Sequencer, workers)
	for i := range wseqs {
		wseqs[i] = *b.Seq(i + 1)
	}
	r := cfg.computeSource()
	for it := 0; it < cfg.Iterations; it++ {
		// Dispatch: tasks go out back to back.
		var sends []goal.OpID
		for w := 0; w < workers; w++ {
			sends = append(sends, master.Fork(goal.KindSend, int32(w+1), tagFarm, cfg.TaskBytes))
		}
		master.Join(sends...)
		// Workers compute and reply.
		for i := range wseqs {
			s := &wseqs[i]
			s.Recv(0, tagFarm, cfg.TaskBytes)
			s.Calc(cfg.draw(r))
			s.Send(0, tagFarm+1, cfg.ResultBytes)
		}
		// Collect in any order.
		var recvs []goal.OpID
		for w := 0; w < workers; w++ {
			recvs = append(recvs, master.Fork(goal.KindRecv, goal.AnySource, tagFarm+1, cfg.ResultBytes))
		}
		master.Join(recvs...)
		master.Calc(cfg.draw(r) / simtime.Duration(workers+1)) // cheap aggregation
	}
	return b.Build()
}

// EPConfig configures the embarrassingly parallel baseline.
type EPConfig struct {
	Base
	// FinalReduceBytes is the size of the single final reduction (0 for
	// a one-shot 8-byte result).
	FinalReduceBytes int64
}

// EP builds the embarrassingly parallel baseline: pure computation per
// iteration, one reduction at the very end. Its only coupling is the final
// reduce, so checkpoint delays cannot propagate — the control case for
// every propagation experiment.
func EP(cfg EPConfig) (*goal.Program, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.FinalReduceBytes < 0 {
		return nil, fmt.Errorf("workload: negative reduce size")
	}
	if cfg.FinalReduceBytes == 0 {
		cfg.FinalReduceBytes = 8
	}
	b := goal.NewBuilder(cfg.Ranks)
	reserve(b, cfg.Iterations*cfg.Ranks+collective.ReduceOps(cfg.Ranks))
	entries := make([]goal.OpID, cfg.Ranks)
	r := cfg.computeSource()
	for i := 0; i < cfg.Ranks; i++ {
		s := b.Seq(i)
		for it := 0; it < cfg.Iterations; it++ {
			s.Calc(cfg.draw(r))
		}
		entries[i] = s.Last()
	}
	if cfg.Ranks > 1 {
		collective.Reduce(b, 0, entries, tagFinal, cfg.FinalReduceBytes)
	}
	return b.Build()
}

// RandomNeighborConfig configures the random-pairing workload.
type RandomNeighborConfig struct {
	Base
	// Pairings is the number of random pairings per iteration.
	Pairings int
	// Bytes is the per-exchange message size.
	Bytes int64
}

// RandomNeighbor builds an unstructured communication pattern: every
// iteration draws Pairings random perfect matchings of the ranks (seeded,
// deterministic) and each pair exchanges messages. Models unstructured-mesh
// and particle codes whose neighbor sets have no exploitable geometry.
func RandomNeighbor(cfg RandomNeighborConfig) (*goal.Program, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Pairings <= 0 {
		cfg.Pairings = 1
	}
	if cfg.Bytes < 0 {
		return nil, fmt.Errorf("workload: negative message size")
	}
	p := cfg.Ranks
	b := goal.NewBuilder(p)
	// Per iteration a calc per rank, and per pairing two forks and a join
	// on each matched rank.
	reserve(b, cfg.Iterations*(p+6*cfg.Pairings*(p/2)))
	seqs := make([]goal.Sequencer, p)
	for i := range seqs {
		seqs[i] = *b.Seq(i)
	}
	jr := cfg.computeSource()
	pr := rng.New(cfg.Seed).Split(0x99)
	for it := 0; it < cfg.Iterations; it++ {
		for i := range seqs {
			seqs[i].Calc(cfg.draw(jr))
		}
		for k := 0; k < cfg.Pairings; k++ {
			perm := pr.Perm(p)
			for j := 0; j+1 < p; j += 2 {
				a, c := perm[j], perm[j+1]
				sa, sc := &seqs[a], &seqs[c]
				fa1 := sa.Fork(goal.KindSend, int32(c), tagPair, cfg.Bytes)
				fa2 := sa.Fork(goal.KindRecv, int32(c), tagPair, cfg.Bytes)
				sa.Join(fa1, fa2)
				fc1 := sc.Fork(goal.KindSend, int32(a), tagPair, cfg.Bytes)
				fc2 := sc.Fork(goal.KindRecv, int32(a), tagPair, cfg.Bytes)
				sc.Join(fc1, fc2)
			}
		}
	}
	return b.Build()
}

// StragglerConfig configures a stencil with one persistently slow rank.
type StragglerConfig struct {
	Base
	HaloBytes int64
	// SlowRank is the straggling rank (clamped into range).
	SlowRank int
	// Factor multiplies the straggler's compute (>= 1).
	Factor float64
}

// Straggler builds a 2D stencil in which one rank computes Factor× slower
// every iteration — the static-imbalance counterpart of noise injection.
// With a communicating workload the whole machine runs at the straggler's
// pace; experiment E13 measures how checkpointing protocols interact with
// that (a coordinated round inherits the straggler's lateness, an aligned
// uncoordinated write hides inside the others' wait time).
func Straggler(cfg StragglerConfig) (*goal.Program, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Factor < 1 || math.IsNaN(cfg.Factor) {
		return nil, fmt.Errorf("workload: straggler factor %v < 1", cfg.Factor)
	}
	slow := cfg.SlowRank
	if slow < 0 {
		slow = 0
	}
	if slow >= cfg.Ranks {
		slow = cfg.Ranks - 1
	}
	scale := make([]float64, cfg.Ranks)
	for i := range scale {
		scale[i] = 1
	}
	scale[slow] = cfg.Factor
	return Stencil2D(Stencil2DConfig{
		Base:         cfg.Base,
		HaloBytes:    cfg.HaloBytes,
		ComputeScale: scale,
	})
}
