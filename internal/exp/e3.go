package exp

import (
	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/model"
	"checkpointsim/internal/report"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
)

// E3Coordination measures the cost of one coordinated checkpoint round as
// the machine grows: the quiesce latency (round start to commit), the full
// round span, and the decomposition against the closed-form tree latency —
// the difference is synchronization idling, i.e. waiting for ranks to reach
// an operation boundary. One sweep point = one machine size.
func E3Coordination(o Options) ([]*report.Table, error) {
	net := o.net()
	scales := pick(o, []int{16, 64, 256, 1024}, []int{16, 64})
	proto := checkpoint.Config{Kind: checkpoint.KindCoordinated,
		Interval: 5 * simtime.Millisecond, Write: 500 * simtime.Microsecond}

	t := report.NewTable("E3: coordinated round cost vs scale (stencil2d, 0.5ms ops)",
		"P", "rounds", "quiesce/round", "tree-model", "sync-idle", "span/round", "ctl-msgs")
	err := sweep(t, o, "E3", scales, func(i, p int) (rows, error) {
		sd := pointSeed(o, "E3", i)
		prog, err := buildProg("stencil2d", p, pick(o, 80, 30), 500*simtime.Microsecond, 4096, sd)
		if err != nil {
			return nil, err
		}
		r, err := execute(o, run.Config{Net: net, Program: prog, Seed: sd, Protocol: proto})
		if err != nil {
			return nil, err
		}
		var rs rows
		st := r.Protocol.Stats()
		if st.Rounds == 0 {
			rs.add(p, 0, "-", "-", "-", "-", r.Metrics.CtlMessages)
			return rs, nil
		}
		quiesce := st.CoordDelay / simtime.Duration(st.Rounds)
		span := st.RoundSpan / simtime.Duration(st.Rounds)
		// The REQ+ACK sweep covers 2·depth hops of default-size (64 B)
		// control messages on an idle machine.
		treeModel := simtime.FromSeconds(model.CoordinationDelay(p, net, 64))
		idle := quiesce - treeModel
		rs.add(p, st.Rounds, quiesce.String(), treeModel.String(), idle.String(),
			span.String(), r.Metrics.CtlMessages)
		return rs, nil
	})
	if err != nil {
		return nil, err
	}
	t.AddNote("sync-idle = measured quiesce latency minus the pure network tree latency")
	return []*report.Table{t}, nil
}
