package exp

import (
	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/report"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/workload"
)

// E13Straggler measures how checkpointing protocols interact with static
// load imbalance: one rank computes slower by a sweep of factors. On a
// coupled code the machine already runs at the straggler's pace, so the
// other ranks have idle slack every iteration — slack that an aligned
// uncoordinated write can hide inside, while a coordinated round's quiesce
// must wait for the straggler and a staggered write adds a second,
// out-of-phase stall. One sweep point = one straggler factor.
func E13Straggler(o Options) ([]*report.Table, error) {
	net := o.net()
	ranks := pick(o, 64, 16)
	iters := pick(o, 60, 25)
	factors := pick(o, []float64{1.0, 1.5, 2.0, 4.0}, []float64{1.0, 2.0})
	const tau, delta = 10 * simtime.Millisecond, 2 * simtime.Millisecond
	protos := []checkpoint.Config{
		{Kind: checkpoint.KindCoordinated, Interval: tau, Write: delta},
		{Kind: checkpoint.KindUncoordinated, Interval: tau, Write: delta, Offset: "aligned"},
		{Kind: checkpoint.KindUncoordinated, Interval: tau, Write: delta, Offset: "staggered"},
	}

	t := report.NewTable("E13: checkpointing under a straggler (τ=10ms, δ=2ms)",
		"straggler-x", "protocol", "makespan", "overhead-vs-own-baseline%")
	err := sweep(t, o, "E13", factors, func(sd uint64, f float64) (rows, error) {
		prog, err := workload.Straggler(workload.CommonConfig{
			Base: workload.Base{Ranks: ranks, Iterations: iters,
				Compute: simtime.Millisecond, Seed: sd},
			Bytes: 4096,
		}, ranks/2, f)
		if err != nil {
			return nil, err
		}
		tw, err := newTwin(o, net, prog, sd)
		if err != nil {
			return nil, err
		}
		var rs rows
		for _, proto := range protos {
			r, ov, err := tw.run(run.Config{Protocol: proto})
			if err != nil {
				return nil, err
			}
			rs.add(f, r.Protocol.Name(), simtime.Duration(r.Makespan).String(), ov)
		}
		return rs, nil
	})
	if err != nil {
		return nil, err
	}
	t.AddNote("baseline for each row is the straggler run without checkpointing: the column isolates protocol cost under imbalance")
	return []*report.Table{t}, nil
}
