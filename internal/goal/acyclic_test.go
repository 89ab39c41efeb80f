package goal_test

import (
	"sync"
	"testing"

	"checkpointsim/internal/goal"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/workload"
)

// Build proves acyclicity in one pass when every dependency points to a
// lower op ID, and falls back to a topological sort otherwise. These tests
// pin both paths and the shapes of program each one sees.

// forwardAcyclic has op 0 depend on op 1: a forward edge, but no cycle.
const forwardAcyclic = `num_ranks 2
rank 0 {
  a: calc 1us
  b: send 8b to 1 tag 0
  c: calc 2us
  a requires c
  b requires a
}
rank 1 {
  r: recv 8b from 0 tag 0
}
`

// forwardCycle has a two-op cycle through a forward edge; d is free.
const forwardCycle = `num_ranks 1
rank 0 {
  a: calc 1us
  b: calc 1us
  c: calc 1us
  d: calc 1us
  a requires b
  b requires a
  c requires a
}
`

func TestValidateForwardAcyclic(t *testing.T) {
	p, err := goal.ParseString(forwardAcyclic)
	if err != nil {
		t.Fatal(err)
	}
	if d := p.Deps(0); len(d) != 1 || d[0] != 2 {
		t.Fatalf("op 0 deps = %v, want [2]", d)
	}
	if outs := p.Outs(2); len(outs) != 1 || outs[0] != 0 {
		t.Errorf("Outs(2) = %v, want [0]", outs)
	}
}

func TestValidateForwardCycle(t *testing.T) {
	const want = "goal: dependency graph has a cycle (1 of 4 ops reachable)"
	if _, err := goal.ParseString(forwardCycle); err == nil || err.Error() != want {
		t.Fatalf("Parse error = %v, want %q", err, want)
	}
	b := goal.NewBuilder(1)
	x, y := b.Calc(0, 1), b.Calc(0, 1)
	b.Requires(x, y)
	b.Requires(y, x)
	if _, err := b.Build(); err == nil ||
		err.Error() != "goal: dependency graph has a cycle (0 of 2 ops reachable)" {
		t.Fatalf("Build error = %v", err)
	}
}

// TestGeneratorsEmitBackwardDeps keeps generated programs on the linear
// path: no generator may make an op depend on a later one.
func TestGeneratorsEmitBackwardDeps(t *testing.T) {
	base := workload.Base{Ranks: 6, Iterations: 12, Compute: simtime.Millisecond, Jitter: 0.1, Seed: 1}
	for _, name := range workload.Names() {
		p, err := workload.FromName(name, workload.CommonConfig{Base: base, Bytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		for i := range p.Ops {
			for _, d := range p.Deps(goal.OpID(i)) {
				if d > goal.OpID(i) {
					t.Fatalf("%s: op %d depends on later op %d", name, i, d)
				}
			}
		}
	}
}

// TestValidateBareOps validates Programs assembled from built programs'
// ops alone, with no dependencies and no reverse or per-rank index — the
// shape a benchmark uses to re-time Validate past the built program's memo
// — from several goroutines at once, as sweep workers share a program, and
// checks that such a program reports no dependencies rather than panic.
// Run it under -race.
func TestValidateBareOps(t *testing.T) {
	fwd, err := goal.ParseString(forwardAcyclic)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.FromName("stencil2d", workload.CommonConfig{
		Base: workload.Base{Ranks: 9, Iterations: 11, Compute: simtime.Millisecond, Seed: 1}, Bytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	progs := []*goal.Program{
		{NumRanks: fwd.NumRanks, Ops: fwd.Ops},
		{NumRanks: gen.NumRanks, Ops: gen.Ops},
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range progs {
				if err := p.Validate(); err != nil {
					t.Error(err)
				}
			}
			for id := range gen.Ops {
				gen.Outs(goal.OpID(id))
			}
		}()
	}
	wg.Wait()
	for _, p := range progs {
		if st := p.Stats(); st.NumDeps != 0 || len(p.Deps(0)) != 0 {
			t.Errorf("bare program reports %d deps, op 0 %v", st.NumDeps, p.Deps(0))
		}
		p.Digest()
	}
}
