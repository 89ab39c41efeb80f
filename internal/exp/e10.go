package exp

import (
	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/report"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
)

// E10Hierarchical sweeps the hybrid protocol's cluster size between the
// uncoordinated (cluster = 1) and fully coordinated (cluster = P) extremes.
// The logged fraction falls as clusters grow while coordination cost rises;
// the sweet spot depends on how much of the workload's traffic stays inside
// a cluster. One sweep point = one workload across all cluster sizes.
func E10Hierarchical(o Options) ([]*report.Table, error) {
	net := o.net()
	ranks := pick(o, 64, 16)
	iters := pick(o, 60, 20)
	clusters := pick(o, []int{1, 4, 8, 16, 64}, []int{1, 4, 16})
	workloads := pick(o, []string{"stencil2d", "transpose"}, []string{"stencil2d"})
	logp := checkpoint.LogParams{Alpha: 500 * simtime.Nanosecond, BetaNsPerByte: 0.2}

	t := report.NewTable("E10: hierarchical cluster-size sweep (τ=10ms, δ=1ms, log β=0.2)",
		"workload", "cluster", "overhead%", "logged-frac", "rounds", "ctl-msgs")
	err := sweep(t, o, "E10", workloads, func(i int, w string) (rows, error) {
		sd := pointSeed(o, "E10", i)
		base, err := buildProg(w, ranks, iters, ms(1), 4096, sd)
		if err != nil {
			return nil, err
		}
		rBase, err := execute(o, run.Config{Net: net, Program: base, Seed: sd})
		if err != nil {
			return nil, err
		}
		var rs rows
		for _, c := range clusters {
			if c > ranks {
				continue
			}
			// Same spec and seed as base: reuse the immutable program.
			r, err := execute(o, run.Config{Net: net, Program: base, Seed: sd,
				Protocol: checkpoint.Config{Kind: checkpoint.KindHierarchical,
					Interval: 10 * simtime.Millisecond, Write: simtime.Millisecond,
					ClusterSize: c, Logging: logp}})
			if err != nil {
				return nil, err
			}
			st := r.Protocol.Stats()
			frac := 0.0
			if r.Metrics.AppMessages > 0 {
				frac = float64(st.LoggedMessages) / float64(r.Metrics.AppMessages)
			}
			rs.add(w, c, overheadPct(r, rBase), frac, st.Rounds, r.Metrics.CtlMessages)
		}
		return rs, nil
	})
	if err != nil {
		return nil, err
	}
	return []*report.Table{t}, nil
}
