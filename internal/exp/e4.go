package exp

import (
	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/report"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
)

// E4WeakScaling sweeps machine size and reports failure-free checkpointing
// overhead for the coordinated protocol and the three uncoordinated offset
// policies (with a modest logging tax), over a halo-exchange code and an
// allreduce-dominated code. One sweep point = one (workload, scale) cell:
// its baseline and the four protocol runs share the point's RNG stream.
func E4WeakScaling(o Options) ([]*report.Table, error) {
	if err := o.Storage.Validate(); err != nil {
		return nil, errf("E4", err)
	}
	net := o.net()
	scales := pick(o, []int{16, 64, 256, 1024}, []int{16, 64})
	workloads := pick(o, []string{"stencil2d", "cg"}, []string{"stencil2d"})
	const tau, delta = 10 * simtime.Millisecond, simtime.Millisecond
	logp := checkpoint.LogParams{Alpha: 500 * simtime.Nanosecond, BetaNsPerByte: 0.1}
	protos := []checkpoint.Config{
		{Kind: checkpoint.KindCoordinated, Interval: tau, Write: delta},
		{Kind: checkpoint.KindUncoordinated, Interval: tau, Write: delta, Offset: "aligned", Logging: logp},
		{Kind: checkpoint.KindUncoordinated, Interval: tau, Write: delta, Offset: "staggered", Logging: logp},
		{Kind: checkpoint.KindUncoordinated, Interval: tau, Write: delta, Offset: "random", Logging: logp},
	}
	iters := pick(o, 40, 15)

	type cell struct {
		w string
		p int
	}
	var points []cell
	for _, w := range workloads {
		for _, p := range scales {
			points = append(points, cell{w, p})
		}
	}

	t := report.NewTable("E4: failure-free checkpoint overhead vs scale (τ=10ms, δ=1ms)",
		"workload", "P", "protocol", "makespan", "overhead%", "writes")
	err := sweep(t, o, "E4", points, func(sd uint64, c cell) (rows, error) {
		prog, err := buildProg(c.w, c.p, iters, ms(1), 4096, sd)
		if err != nil {
			return nil, err
		}
		tw, err := newTwin(o, net, prog, sd)
		if err != nil {
			return nil, err
		}
		var rs rows
		rs.add(c.w, c.p, "none", simtime.Duration(tw.base.Makespan).String(), 0.0, 0)
		for _, proto := range protos {
			r, ov, err := tw.run(run.Config{Storage: o.Storage, Protocol: proto})
			if err != nil {
				return nil, err
			}
			rs.add(c.w, c.p, r.Protocol.Name(), simtime.Duration(r.Makespan).String(),
				ov, r.Protocol.Stats().Writes)
		}
		return rs, nil
	})
	if err != nil {
		return nil, err
	}
	t.AddNote("uncoordinated protocols carry logging α=0.5µs, β=0.1ns/B; coordinated pays tree coordination")
	return []*report.Table{t}, nil
}
