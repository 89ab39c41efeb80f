package exp

import (
	"testing"

	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/goal"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
)

// rotatedRing builds a symmetric P-rank ring under the rank relabeling
// σ(l) = (l+shift) mod P: logical rank l runs on physical rank σ(l) and
// talks to σ(l±1). Every relabeling describes the same computation, so
// observables must not depend on which physical rank hosts which role.
func rotatedRing(t *testing.T, ranks, iters, shift int, bytes int64, compute simtime.Duration) *goal.Program {
	t.Helper()
	b := goal.NewBuilder(ranks)
	seqs := make([]*goal.Sequencer, ranks)
	for i := range seqs {
		seqs[i] = b.Seq(i)
	}
	sigma := func(l int) int { return (l + shift) % ranks }
	for it := 0; it < iters; it++ {
		for l := 0; l < ranks; l++ {
			s := seqs[sigma(l)]
			s.Calc(compute)
			s.Join(
				s.Fork(goal.KindSend, int32(sigma((l+1)%ranks)), 7, bytes),
				s.Fork(goal.KindRecv, int32(sigma((l-1+ranks)%ranks)), 7, bytes),
			)
		}
	}
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// Relabeling the ranks of a symmetric workload must not move the
// makespan: scheduling, matching, and protocol timers may only depend on
// the communication structure, never on rank identity. Checked for the
// bare application and under an aligned uncoordinated protocol (whose
// per-rank timers are relabeling-symmetric), for both wire protocols.
func TestMakespanRankRelabelInvariance(t *testing.T) {
	o := DefaultOptions()
	o.Validate = true
	const ranks, iters = 6, 12
	for _, tc := range []struct {
		name  string
		bytes int64
	}{
		{"eager", 4 * 1024},
		{"rendezvous", 128 * 1024},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func(shift int, withProto bool) simtime.Time {
				prog := rotatedRing(t, ranks, iters, shift, tc.bytes, 50*simtime.Microsecond)
				cfg := run.Config{Net: o.net(), Program: prog, Seed: 1}
				if withProto {
					cfg.Protocol = checkpoint.Config{Kind: checkpoint.KindUncoordinated,
						Interval: 300 * simtime.Microsecond, Write: 100 * simtime.Microsecond,
						Offset: "aligned", Logging: checkpoint.LogParams{Alpha: 500, BetaNsPerByte: 0.01}}
				}
				r, err := execute(o, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return r.Makespan
			}
			for _, withProto := range []bool{false, true} {
				base := run(0, withProto)
				if base == 0 {
					t.Fatal("degenerate scenario: zero makespan")
				}
				for _, shift := range []int{1, 4} {
					if got := run(shift, withProto); got != base {
						t.Errorf("protocol=%v shift=%d: makespan %v != unshifted %v",
							withProto, shift, got, base)
					}
				}
			}
		})
	}
}

// Lengthening the checkpoint write can only delay work: with everything
// else fixed, the makespan under a coordinated protocol must be
// non-decreasing in the write duration δ, and strictly larger than the
// protocol-free baseline once δ > 0.
func TestOverheadMonotonicInWriteDuration(t *testing.T) {
	o := DefaultOptions()
	o.Validate = true
	prog, err := buildProg("stencil2d", 8, 30, ms(1), 4096, o.Seed)
	if err != nil {
		t.Fatal(err)
	}
	base, err := execute(o, run.Config{Net: o.net(), Program: prog, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	writes := []simtime.Duration{
		100 * simtime.Microsecond,
		500 * simtime.Microsecond,
		1 * simtime.Millisecond,
		2 * simtime.Millisecond,
		4 * simtime.Millisecond,
	}
	prev := base.Makespan
	for _, w := range writes {
		prog, err := buildProg("stencil2d", 8, 30, ms(1), 4096, o.Seed)
		if err != nil {
			t.Fatal(err)
		}
		r, err := execute(o, run.Config{Net: o.net(), Program: prog, Seed: 1,
			Protocol: checkpoint.Config{Kind: checkpoint.KindCoordinated,
				Interval: 5 * simtime.Millisecond, Write: w}})
		if err != nil {
			t.Fatal(err)
		}
		if r.Makespan < prev {
			t.Errorf("write=%v: makespan %v below previous point %v — overhead not monotone",
				w, r.Makespan, prev)
		}
		if r.Makespan <= base.Makespan {
			t.Errorf("write=%v: makespan %v not above protocol-free baseline %v",
				w, r.Makespan, base.Makespan)
		}
		prev = r.Makespan
	}
}
