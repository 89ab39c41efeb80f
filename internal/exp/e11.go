package exp

import (
	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/report"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
)

// E11NonBlocking compares blocking and non-blocking (asynchronous,
// copy-on-write) coordinated checkpointing. The blocking protocol pays
// quiesce latency, gate time, and an exclusive write; the non-blocking
// variant spreads the same write volume over a window while the
// application runs slowed. The sweep varies the interference factor and
// window stretch to show where asynchrony stops paying. One sweep point =
// one workload: baseline, blocking reference, and every variant.
func E11NonBlocking(o Options) ([]*report.Table, error) {
	net := o.net()
	ranks := pick(o, 64, 16)
	iters := pick(o, 60, 25)
	workloads := pick(o, []string{"stencil2d", "cg"}, []string{"stencil2d"})
	const tau, delta = 10 * simtime.Millisecond, 2 * simtime.Millisecond

	t := report.NewTable("E11: blocking vs non-blocking coordinated (τ=10ms, δ=2ms)",
		"workload", "protocol", "window", "slowdown", "overhead%", "rounds")
	err := sweep(t, o, "E11", workloads, func(i int, w string) (rows, error) {
		sd := pointSeed(o, "E11", i)
		base, err := buildProg(w, ranks, iters, ms(1), 4096, sd)
		if err != nil {
			return nil, err
		}
		rBase, err := execute(o, run.Config{Net: net, Program: base, Seed: sd})
		if err != nil {
			return nil, err
		}

		// Blocking reference. Same spec and seed as base: reuse the
		// immutable program.
		r, err := execute(o, run.Config{Net: net, Program: base, Seed: sd,
			Protocol: checkpoint.Config{Kind: checkpoint.KindCoordinated, Interval: tau, Write: delta}})
		if err != nil {
			return nil, err
		}
		var rs rows
		rs.add(w, "blocking", "-", "-", overheadPct(r, rBase), r.Protocol.Stats().Rounds)

		type variant struct {
			window   simtime.Duration
			slowdown float64
		}
		variants := pick(o,
			[]variant{
				{2 * simtime.Millisecond, 1.0},  // instantaneous background, free
				{4 * simtime.Millisecond, 1.25}, // 2x stretch, 25% interference
				{8 * simtime.Millisecond, 1.25},
				{8 * simtime.Millisecond, 1.5},
			},
			[]variant{{4 * simtime.Millisecond, 1.25}})
		for _, v := range variants {
			r, err := execute(o, run.Config{Net: net, Program: base, Seed: sd,
				Protocol: checkpoint.Config{Kind: checkpoint.KindNonBlocking, Interval: tau,
					Write: delta, Window: v.window, Slowdown: v.slowdown}})
			if err != nil {
				return nil, err
			}
			rs.add(w, "non-blocking", v.window.String(), v.slowdown,
				overheadPct(r, rBase), r.Protocol.Stats().Rounds)
		}
		return rs, nil
	})
	if err != nil {
		return nil, err
	}
	t.AddNote("non-blocking charges no quiesce or gate; interference = (slowdown-1) during window")
	return []*report.Table{t}, nil
}
