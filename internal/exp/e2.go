package exp

import (
	"checkpointsim/internal/noise"
	"checkpointsim/internal/report"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
)

// E2Propagation measures how local, uncoordinated interruptions (noise with
// checkpoint-like amplitude) slow each communication pattern. The
// amplification column — overhead divided by duty cycle — is the headline:
// 1.0 means the pattern absorbs interruptions perfectly (EP); larger values
// mean the dependency structure propagates and compounds them.
//
// One sweep point = one workload: the baseline and every duty-cycle run
// share the point's RNG stream so the comparison stays paired.
func E2Propagation(o Options) ([]*report.Table, error) {
	net := o.net()
	ranks := pick(o, 64, 16)
	// Runs must span many noise periods: for fixed-period noise the EP
	// amplification floor is ~1 + period/T, so T >= 100ms keeps it near 1.
	iters := pick(o, 160, 100)
	workloads := pick(o,
		[]string{"ep", "stencil2d", "stencil3d", "sweep", "cg", "transpose"},
		[]string{"ep", "stencil2d", "sweep"})
	duties := pick(o, []float64{0.025, 0.05, 0.10, 0.20}, []float64{0.05, 0.20})
	const period = 10 * simtime.Millisecond

	t := report.NewTable("E2: slowdown from local interruptions (noise period 10ms, random phase)",
		"workload", "duty%", "slowdown", "overhead%", "amplification")
	err := sweep(t, o, "E2", workloads, func(i int, w string) (rows, error) {
		sd := pointSeed(o, "E2", i)
		base, err := buildProg(w, ranks, iters, ms(1), 4096, sd)
		if err != nil {
			return nil, err
		}
		rBase, err := execute(o, run.Config{Net: net, Program: base, Seed: sd})
		if err != nil {
			return nil, err
		}
		var rs rows
		for _, duty := range duties {
			// The program is a pure function of its spec and immutable once
			// built: reuse base instead of rebuilding it per duty cycle.
			r, err := execute(o, run.Config{Net: net, Program: base, Seed: sd,
				Noise: &noise.Config{Period: period, Duration: period.Scale(duty)}})
			if err != nil {
				return nil, err
			}
			ov := overheadPct(r, rBase)
			rs.add(w, duty*100, r.Slowdown(rBase.Result), ov, ov/(duty*100))
		}
		return rs, nil
	})
	if err != nil {
		return nil, err
	}
	t.AddNote("amplification 1.0 = interruptions fully absorbed; >1 = propagated through messages")
	return []*report.Table{t}, nil
}
