package exp

import (
	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/failure"
	"checkpointsim/internal/model"
	"checkpointsim/internal/report"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
)

// E8Crossover maps the (scale × logging overhead) grid and reports which
// protocol wins each cell: by simulation (with failures) at simulable
// scales, and by the first-order analytic projection both there and at the
// extreme scales the paper extrapolates to. The expected shape: coordinated
// wins at small P and expensive logging; uncoordinated wins as P grows.
//
// One sweep point = one scale P; every β row within a scale shares the
// point's RNG stream (common random numbers, as in E6). The coordinated run
// does not depend on β, so it is simulated once per scale and paired against
// each β's uncoordinated run under identical failure clocks — winner flips
// along the β axis then come from logging cost, never from seed luck. That
// pairing matters most at P=256, where the system MTBF (~16ms) puts the
// coordinated protocol in a heavy-tailed rollback regime: a run that fails
// to settle within the time cap is reported as a capped cell (the protocol
// diverged at that scale) rather than aborting the sweep. The analytic
// projection is closed-form and stays serial.
func E8Crossover(o Options) ([]*report.Table, error) {
	if err := o.Storage.Validate(); err != nil {
		return nil, errf("E8", err)
	}
	net := o.net()
	scales := pick(o, []int{16, 64, 256}, []int{16, 64})
	betas := pick(o, []float64{0, 0.2, 0.5, 1.0}, []float64{0, 0.5})
	iters := pick(o, 80, 30)
	const (
		write   = 2 * simtime.Millisecond
		restart = 2 * simtime.Millisecond
		mtbf    = 4 * simtime.Second // per node
		capT    = simtime.Time(300 * simtime.Second)
	)

	t := report.NewTable("E8a: simulated crossover grid (stencil2d, δ=2ms, θ=4s/node)",
		"P", "beta(ns/B)", "coord-makespan", "uncoord-makespan", "sim-winner")
	err := sweep(t, o, "E8", scales, func(sd uint64, p int) (rows, error) {
		sys := mtbf.Seconds() / float64(p)
		tau := simtime.FromSeconds(model.DalyInterval(write.Seconds(), sys))

		// One immutable program serves every protocol variant at this scale:
		// the coordinated run and each β's uncoordinated run share it.
		prog, err := buildProg("stencil2d", p, iters, ms(1), 4096, sd)
		if err != nil {
			return nil, err
		}

		// A run that hits the time cap is a capped cell, not a failed sweep.
		mkC, capC, _, err := executeCapped(o, run.Config{Net: net, Program: prog, Seed: sd,
			MaxTime: capT, Storage: o.Storage,
			Protocol: checkpoint.Config{Kind: checkpoint.KindCoordinated, Interval: tau, Write: write},
			Failures: &failure.Config{MTBF: mtbf, Restart: restart}})
		if err != nil {
			return nil, err
		}

		var rs rows
		for _, beta := range betas {
			mkU, capU, _, err := executeCapped(o, run.Config{Net: net, Program: prog, Seed: sd,
				MaxTime: capT, Storage: o.Storage,
				Protocol: checkpoint.Config{Kind: checkpoint.KindUncoordinated, Interval: tau,
					Write: write, Logging: checkpoint.LogParams{BetaNsPerByte: beta}},
				Failures: &failure.Config{MTBF: mtbf, Restart: restart}})
			if err != nil {
				return nil, err
			}
			winner := "coordinated"
			switch {
			case capC && capU:
				winner = "neither (capped)"
			case capC:
				winner = "uncoordinated"
			case capU:
				// keep coordinated
			case mkU < mkC:
				winner = "uncoordinated"
			}
			rs.add(p, beta, cappedCell(mkC, capC), cappedCell(mkU, capU), winner)
		}
		return rs, nil
	})
	if err != nil {
		return nil, err
	}

	// Analytic projection to extreme scale.
	mt := report.NewTable("E8b: analytic crossover projection (δ=60s, R=120s, θ=5y/node)",
		"P", "log-overhead", "eff-coordinated", "eff-uncoordinated", "model-winner")
	projScales := []int{1024, 16384, 131072, 1048576}
	for _, p := range projScales {
		for _, lo := range []float64{0.02, 0.10, 0.30} {
			pr := model.ProtocolProjection{
				Nodes:       p,
				NodeMTBF:    5 * 365.25 * 86400,
				Write:       60,
				Restart:     120,
				CoordDelay:  model.CoordinationDelay(p, net),
				LogOverhead: lo,
			}
			ce, ue := model.CoordinatedEfficiency(pr), model.UncoordinatedEfficiency(pr)
			winner := "coordinated"
			if ue > ce {
				winner = "uncoordinated"
			}
			mt.AddRow(p, lo, ce, ue, winner)
		}
	}
	return []*report.Table{t, mt}, nil
}
