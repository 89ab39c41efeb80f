package noise

import (
	"testing"

	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/workload"
)

func TestConfigValidate(t *testing.T) {
	good := Config{Period: simtime.Millisecond, Duration: 25 * simtime.Microsecond}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	bad := []Config{
		{Period: 0, Duration: 1},
		{Period: -1, Duration: 1},
		{Period: 10, Duration: -1},
		{Period: 10, Duration: 10}, // duty cycle 1
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := NewInjector(bad[0]); err == nil {
		t.Error("NewInjector accepted bad config")
	}
}

func epProg(t *testing.T, ranks, iters int, compute simtime.Duration) *goal.Program {
	t.Helper()
	p, err := workload.FromName("ep", workload.CommonConfig{
		Base: workload.Base{Ranks: ranks, Iterations: iters, Compute: compute, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNoiseSlowsEPByDutyCycle(t *testing.T) {
	// On an EP workload, slowdown ≈ 1/(1−duty) — noise cannot propagate.
	prog := epProg(t, 4, 100, simtime.Millisecond)
	base, err := sim.New(sim.Config{Net: network.DefaultParams(), Program: prog, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rBase, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{Period: simtime.Millisecond, Duration: 100 * simtime.Microsecond} // 10%
	inj, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog2 := epProg(t, 4, 100, simtime.Millisecond)
	e, err := sim.New(sim.Config{Net: network.DefaultParams(), Program: prog2,
		Agents: []sim.Agent{inj}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	slow := float64(r.Makespan) / float64(rBase.Makespan)
	// Expected ≈ 1.11 (10% duty); allow boundary effects.
	if slow < 1.05 || slow > 1.20 {
		t.Errorf("EP slowdown %v, want ~1.11", slow)
	}
	if r.SeizedCount[Reason] == 0 {
		t.Fatal("no noise recorded")
	}
	if want := simtime.Duration(r.SeizedCount[Reason]) * cfg.Duration; r.SeizedTime[Reason] != want {
		t.Errorf("engine seized %v over %d events, want %v", r.SeizedTime[Reason], r.SeizedCount[Reason], want)
	}
}

func TestPoissonNoiseRuns(t *testing.T) {
	cfg := Config{Period: simtime.Millisecond, Duration: 50 * simtime.Microsecond, Poisson: true}
	inj, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := epProg(t, 4, 50, simtime.Millisecond)
	e, err := sim.New(sim.Config{Net: network.DefaultParams(), Program: prog,
		Agents: []sim.Agent{inj}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := r.SeizedCount[Reason]; n < 50 {
		t.Errorf("only %d Poisson events over ~50ms x 4 ranks at 1kHz", n)
	}
}

func TestNoiseDeterministic(t *testing.T) {
	run := func() simtime.Time {
		inj, _ := NewInjector(Config{Period: simtime.Millisecond, Duration: 30 * simtime.Microsecond, Poisson: true})
		prog := epProg(t, 4, 20, simtime.Millisecond)
		e, _ := sim.New(sim.Config{Net: network.DefaultParams(), Program: prog,
			Agents: []sim.Agent{inj}, Seed: 99})
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r.Makespan
	}
	if run() != run() {
		t.Error("noise injection not deterministic")
	}
}
