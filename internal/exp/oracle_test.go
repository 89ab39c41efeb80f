package exp

import (
	"testing"

	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/collective"
	"checkpointsim/internal/failure"
	"checkpointsim/internal/goal"
	"checkpointsim/internal/model"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/stats"
)

// The simulator implements the LogGOPS model, so a lone one-way message
// must cost exactly the closed form: SendCPU + Wire + RecvCPU for eager
// transfers, plus an RTS/CTS exchange of zero-byte wires for rendezvous.
// This is E1a's comparison as a hard oracle (0% tolerance) rather than a
// reported column.
func TestPointToPointMatchesLogGOPS(t *testing.T) {
	o := DefaultOptions()
	o.Validate = true
	net := o.net()
	for _, s := range []int64{1, 8, 512, 4096, 32 * 1024, 64 * 1024, 64*1024 + 1, 256 * 1024, 1 << 20} {
		b := goal.NewBuilder(2)
		b.Send(0, 1, 0, s)
		b.Recv(1, 0, 0, s)
		prog, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		r, err := execute(o, run.Config{Net: net, Program: prog, Seed: 1})
		if err != nil {
			t.Fatalf("%d bytes: %v", s, err)
		}
		var want simtime.Duration
		if net.Eager(s) {
			want = net.SendCPU(s) + net.Wire(s) + net.RecvCPU(s)
		} else {
			want = net.Overhead + net.Wire(0) + // RTS
				net.Overhead + net.Wire(0) + // CTS
				net.SendCPU(s) + net.Wire(s) + net.RecvCPU(s)
		}
		if got := simtime.Duration(r.Makespan); got != want {
			t.Errorf("%d bytes (eager=%v): simulated %v, LogGOPS closed form %v",
				s, net.Eager(s), got, want)
		}
	}
}

// Tree collectives must complete no faster than the depth lower bound
// (ratio ≥ 1 up to the barrier's zero-byte leaves) and within a small
// factor of it — the slack is endpoint serialization (o, g) the bound
// ignores. E1b reports the ratio; here it is asserted.
func TestCollectivesWithinDepthBound(t *testing.T) {
	o := DefaultOptions()
	o.Validate = true
	net := o.net()
	const cb = 8
	hop := net.SendCPU(cb) + net.Wire(cb) + net.RecvCPU(cb)
	makers := []struct {
		name  string
		build func(b *goal.Builder)
	}{
		{"bcast", func(b *goal.Builder) { collective.Bcast(b, 0, nil, 0, cb) }},
		{"barrier", func(b *goal.Builder) { collective.Barrier(b, nil, 0) }},
		{"allreduce", func(b *goal.Builder) { collective.Allreduce(b, nil, 0, cb) }},
	}
	for _, p := range []int{2, 4, 16, 64, 256} {
		for _, m := range makers {
			b := goal.NewBuilder(p)
			m.build(b)
			prog, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			r, err := execute(o, run.Config{Net: net, Program: prog, Seed: 1})
			if err != nil {
				t.Fatalf("%s P=%d: %v", m.name, p, err)
			}
			lb := simtime.Duration(model.TreeDepth(p)) * hop
			ratio := float64(r.Makespan) / float64(lb)
			// The barrier's leaf messages carry zero payload while the bound
			// prices cb bytes per hop, hence the sliver below 1.
			if ratio < 0.99 || ratio > 1.6 {
				t.Errorf("%s P=%d: sim %v vs depth bound %v (ratio %.4f) outside [0.99, 1.6]",
					m.name, p, simtime.Duration(r.Makespan), lb, ratio)
			}
		}
	}
}

// Under failures with global rollback, the simulated optimum must sit
// within ±20% of Daly's τ_opt — computed, as EXPERIMENTS.md's E6 analysis
// establishes, from the *effective* per-checkpoint cost: the measured
// round span (write + coordination + quiesce idle), not the raw write
// time Daly is naively fed. The sweep mirrors E6 (P=16, δ=10ms, R=10ms,
// θ_sys=250ms) with common random numbers so every interval faces the
// same failure clocks.
//
// The runtime curve is shallow near its minimum, so the oracle is phrased
// over the near-optimal plateau (means within 5% of the best) rather than
// a bare argmin: the self-consistent effective-Daly interval must fall
// within ±20% of some plateau point, and its achieved runtime within 20%
// of the best. A third check pins the documented failure mode of the
// naive interval: checkpointing at half the raw τ_Daly must cost well
// over the optimum.
func TestSimulatedOptimumNearDaly(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps many replicated failure runs")
	}
	o := DefaultOptions()
	net := o.net()
	const (
		ranks   = 16
		write   = 10 * simtime.Millisecond
		restart = 10 * simtime.Millisecond
		iters   = 300
	)
	nodeMTBF := 4 * simtime.Second
	sysMTBF := float64(nodeMTBF) / float64(ranks) / 1e9
	tauDaly := model.DalyInterval(write.Seconds(), sysMTBF)
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	factors := []float64{0.5, 0.7, 1.0, 1.3, 1.6, 2.0, 2.5}

	type point struct {
		tau          simtime.Duration
		mean, tauEff float64 // seconds
	}
	points := make([]point, 0, len(factors))
	for _, f := range factors {
		tau := simtime.FromSeconds(tauDaly * f)
		var spans []float64
		var roundSpanSum simtime.Duration
		var roundCount int64
		for _, seed := range seeds {
			prog, err := buildProg("stencil2d", ranks, iters, ms(1), 4096, o.Seed)
			if err != nil {
				t.Fatal(err)
			}
			r, err := execute(o, run.Config{Net: net, Program: prog, Seed: seed,
				MaxTime:  simtime.Time(300 * simtime.Second),
				Protocol: checkpoint.Config{Kind: checkpoint.KindCoordinated, Interval: tau, Write: write},
				Failures: &failure.Config{MTBF: nodeMTBF, Restart: restart}})
			if err != nil {
				t.Fatal(err)
			}
			spans = append(spans, simtime.Duration(r.Makespan).Seconds())
			roundSpanSum += r.Protocol.Stats().RoundSpan
			roundCount += r.Protocol.Stats().Rounds
		}
		if roundCount == 0 {
			t.Fatalf("factor %.2f: no completed rounds", f)
		}
		effDelta := (roundSpanSum / simtime.Duration(roundCount)).Seconds()
		points = append(points, point{
			tau:    tau,
			mean:   stats.Mean(spans),
			tauEff: model.DalyInterval(effDelta, sysMTBF),
		})
	}

	best := points[0].mean
	for _, p := range points[1:] {
		if p.mean < best {
			best = p.mean
		}
	}

	// Self-consistent effective optimum: the swept interval closest to the
	// Daly interval its own measured round span implies.
	target := points[0]
	for _, p := range points[1:] {
		if d := p.tau.Seconds() - p.tauEff; d*d < (target.tau.Seconds()-target.tauEff)*(target.tau.Seconds()-target.tauEff) {
			target = p
		}
	}

	inPlateau := false
	for _, p := range points {
		if p.mean > 1.05*best {
			continue
		}
		if r := p.tau.Seconds() / target.tauEff; r >= 0.8 && r <= 1.2 {
			inPlateau = true
		}
	}
	if !inPlateau {
		t.Errorf("no near-optimal interval within ±20%% of effective τ_Daly = %.1fms (raw τ_Daly = %.1fms)",
			target.tauEff*1000, tauDaly*1000)
	}
	if target.mean > 1.2*best {
		t.Errorf("runtime at effective τ_Daly is %.3fs, optimum is %.3fs — over 20%% apart",
			target.mean, best)
	}
	if points[0].mean < 1.5*best {
		t.Errorf("over-checkpointing at 0.5·τ_Daly costs %.3fs vs optimum %.3fs — expected a clear penalty",
			points[0].mean, best)
	}
}
