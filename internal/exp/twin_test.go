package exp

import (
	"testing"

	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/network"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
)

// twinNet is off the default parameters, so a twin that dropped its
// network would run its variants on a different machine.
func twinNet() network.Params {
	net := network.DefaultParams()
	net.Latency *= 3
	return net
}

// twinVariants are a coordinated variant, which draws nothing random, and
// a random-offset uncoordinated one, whose makespan depends on the seed.
func twinVariants() map[string]run.Config {
	const tau, delta = 2 * simtime.Millisecond, 200 * simtime.Microsecond
	return map[string]run.Config{
		"coordinated": {Protocol: checkpoint.Config{Kind: checkpoint.KindCoordinated,
			Interval: tau, Write: delta}},
		"uncoord-random": {Protocol: checkpoint.Config{Kind: checkpoint.KindUncoordinated,
			Interval: tau, Write: delta, Offset: "random"}},
	}
}

// mustExecute runs cfg through execute, as the experiments did before the
// twin formed the pair.
func mustExecute(t *testing.T, o Options, cfg run.Config) *run.Result {
	t.Helper()
	r, err := execute(o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestTwinMatchesSeparateRuns checks that a twin's run returns the
// makespan and overhead of two explicit execute calls, baseline and
// variant, on the twin's network and seed, and that o.Events counts the
// baseline once however many variants run.
func TestTwinMatchesSeparateRuns(t *testing.T) {
	net := twinNet()
	prog, err := buildProg("stencil2d", 9, 8, ms(1), 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7
	for name, v := range twinVariants() {
		var twinEvents, sepEvents int64
		tw, err := newTwin(Options{Events: &twinEvents}, net, prog, seed)
		if err != nil {
			t.Fatal(err)
		}
		r, ov, err := tw.run(v)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := tw.run(v); err != nil {
			t.Fatal(err)
		}

		so := Options{Events: &sepEvents}
		base := mustExecute(t, so, run.Config{Net: net, Program: prog, Seed: seed})
		want := mustExecute(t, so, run.Config{Net: net, Program: prog, Seed: seed, Protocol: v.Protocol})
		if r.Makespan != want.Makespan || ov != want.OverheadPercent(base.Result) {
			t.Errorf("%s: twin gives makespan %v overhead %v%%, separate runs %v and %v%%",
				name, r.Makespan, ov, want.Makespan, want.OverheadPercent(base.Result))
		}
		if ov <= 0 {
			t.Errorf("%s: overhead %v%%, want a positive cost", name, ov)
		}
		if wantEv := base.Events + 2*want.Events; twinEvents != wantEv || sepEvents != base.Events+want.Events {
			t.Errorf("%s: twin counted %d events, want %d (one baseline, two variants); separate runs %d",
				name, twinEvents, wantEv, sepEvents)
		}
	}
	// The random-offset variant must see the twin's seed: at any other seed
	// it lands elsewhere, so a twin that dropped its seed would show above.
	random := twinVariants()["uncoord-random"].Protocol
	a := mustExecute(t, Options{}, run.Config{Net: net, Program: prog, Seed: seed, Protocol: random})
	b := mustExecute(t, Options{}, run.Config{Net: net, Program: prog, Protocol: random})
	if a.Makespan == b.Makespan {
		t.Fatalf("random offsets give makespan %v at seeds %d and 0: the check above is blind to the seed",
			a.Makespan, seed)
	}
}

// TestTwinBaselineIsSeedFree checks the assumption that lets E6, E7, E16
// and the trace suite share one twin across sweep points: a jitter-free
// stencil2d is the same program at every seed, and its protocol-free
// baseline draws nothing random. It also checks that at moves the
// variants, not the baseline, to the new seed.
func TestTwinBaselineIsSeedFree(t *testing.T) {
	net := twinNet()
	p1, err := buildProg("stencil2d", 16, 10, ms(1), 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := buildProg("stencil2d", 16, 10, ms(1), 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Digest() != p2.Digest() {
		t.Fatal("jitter-free stencil2d differs between seeds 1 and 2")
	}

	tw1, err := newTwin(Options{}, net, p1, 1)
	if err != nil {
		t.Fatal(err)
	}
	tw2, err := newTwin(Options{}, net, p2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tw1.base.Makespan != tw2.base.Makespan || tw1.base.Events != tw2.base.Events {
		t.Errorf("baseline at seed 1: %v, %d events; at seed 2: %v, %d events",
			tw1.base.Makespan, tw1.base.Events, tw2.base.Makespan, tw2.base.Events)
	}

	moved := tw1.at(2)
	if moved.base != tw1.base {
		t.Error("at reran or replaced the baseline")
	}
	v := twinVariants()["uncoord-random"]
	r1, _, err := tw1.run(v)
	if err != nil {
		t.Fatal(err)
	}
	rm, ovm, err := moved.run(v)
	if err != nil {
		t.Fatal(err)
	}
	r2, ov2, err := tw2.run(v)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Makespan != r2.Makespan || ovm != ov2 {
		t.Errorf("at(2) gives %v (%v%%), a twin built at seed 2 gives %v (%v%%)",
			rm.Makespan, ovm, r2.Makespan, ov2)
	}
	if r1.Makespan == r2.Makespan {
		t.Fatalf("random offsets give makespan %v at seeds 1 and 2: the at check is blind", r1.Makespan)
	}
}
