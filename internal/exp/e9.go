package exp

import (
	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/report"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
)

// E9Stagger ablates the uncoordinated offset policy: with a substantial
// write duty cycle (δ/τ = 20%), aligned offsets behave like coordination-
// free gang checkpointing, while staggering trades that for a rolling
// pattern whose delays communication-heavy workloads must absorb every
// interval. One sweep point = one workload with all three policies.
func E9Stagger(o Options) ([]*report.Table, error) {
	net := o.net()
	ranks := pick(o, 64, 16)
	iters := pick(o, 60, 20)
	workloads := pick(o, []string{"ep", "stencil2d", "stencil3d", "cg"},
		[]string{"ep", "stencil2d"})

	t := report.NewTable("E9: uncoordinated offset policy ablation (δ/τ = 20%, no logging)",
		"workload", "policy", "overhead%", "writes")
	err := sweep(t, o, "E9", workloads, func(i int, w string) (rows, error) {
		sd := pointSeed(o, "E9", i)
		base, err := buildProg(w, ranks, iters, ms(1), 4096, sd)
		if err != nil {
			return nil, err
		}
		rBase, err := execute(o, run.Config{Net: net, Program: base, Seed: sd})
		if err != nil {
			return nil, err
		}
		var rs rows
		for _, pol := range []string{"aligned", "staggered", "random"} {
			// Same spec and seed as base: reuse the immutable program.
			r, err := execute(o, run.Config{Net: net, Program: base, Seed: sd,
				Protocol: checkpoint.Config{Kind: checkpoint.KindUncoordinated,
					Interval: 10 * simtime.Millisecond, Write: 2 * simtime.Millisecond, Offset: pol}})
			if err != nil {
				return nil, err
			}
			rs.add(w, pol, overheadPct(r, rBase), r.Protocol.Stats().Writes)
		}
		return rs, nil
	})
	if err != nil {
		return nil, err
	}
	t.AddNote("logging disabled to isolate the offset effect")
	return []*report.Table{t}, nil
}
