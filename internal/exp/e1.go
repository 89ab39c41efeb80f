package exp

import (
	"checkpointsim/internal/collective"
	"checkpointsim/internal/goal"
	"checkpointsim/internal/model"
	"checkpointsim/internal/report"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
)

// E1Validation compares simulated communication times against LogGOPS
// closed forms. Point-to-point costs must match exactly (the simulator
// implements the model); collectives are compared against the tree-depth
// lower bound, where the ratio exposes endpoint serialization (a root
// pushing log P messages through one NIC).
func E1Validation(o Options) ([]*report.Table, error) {
	net := o.net()

	// --- point-to-point: one-way message time across sizes ---
	pt := report.NewTable("E1a: point-to-point one-way time, simulated vs model",
		"bytes", "protocol", "sim", "model", "err%")
	sizes := pick(o, []int64{8, 512, 4096, 32 * 1024, 256 * 1024, 1 << 20},
		[]int64{8, 4096, 256 * 1024})
	err := sweep(pt, o, "E1a", sizes, func(sd uint64, s int64) (rows, error) {
		b := goal.NewBuilder(2)
		b.Send(0, 1, 0, s)
		b.Recv(1, 0, 0, s)
		prog, err := b.Build()
		if err != nil {
			return nil, err
		}
		r, err := execute(o, run.Config{Net: net, Program: prog, Seed: sd})
		if err != nil {
			return nil, err
		}
		var want simtime.Duration
		proto := "eager"
		if net.Eager(s) {
			want = net.SendCPU(s) + net.Wire(s) + net.RecvCPU(s)
		} else {
			proto = "rndzv"
			want = net.Overhead + net.Wire(0) + // RTS
				net.Overhead + net.Wire(0) + // CTS
				net.SendCPU(s) + net.Wire(s) + net.RecvCPU(s)
		}
		sim := simtime.Duration(r.Makespan)
		errPct := 100 * (float64(sim) - float64(want)) / float64(want)
		var rs rows
		rs.add(s, proto, sim.String(), want.String(), errPct)
		return rs, nil
	})
	if err != nil {
		return nil, err
	}

	// --- collectives vs tree-depth lower bound ---
	ct := report.NewTable("E1b: collective completion time vs depth lower bound",
		"collective", "P", "sim", "depth-LB", "ratio")
	scales := pick(o, []int{4, 16, 64, 256, 1024}, []int{4, 16, 64})
	const cb = 8
	hop := net.SendCPU(cb) + net.Wire(cb) + net.RecvCPU(cb)
	err = sweep(ct, o, "E1b", scales, func(sd uint64, p int) (rows, error) {
		type mk struct {
			name  string
			build func(b *goal.Builder)
			// lower-bound hops for completion at all ranks
			hops func(p int) int
		}
		makers := []mk{
			{"bcast", func(b *goal.Builder) { collective.Bcast(b, 0, nil, 0, cb) },
				func(p int) int { return model.TreeDepth(p) }},
			{"barrier", func(b *goal.Builder) { collective.Barrier(b, nil, 0) },
				func(p int) int { return model.TreeDepth(p) }},
			{"allreduce", func(b *goal.Builder) { collective.Allreduce(b, nil, 0, cb) },
				func(p int) int { return model.TreeDepth(p) }},
		}
		var rs rows
		for _, m := range makers {
			b := goal.NewBuilder(p)
			m.build(b)
			if p == 1 {
				continue
			}
			prog, err := b.Build()
			if err != nil {
				return nil, err
			}
			r, err := execute(o, run.Config{Net: net, Program: prog, Seed: sd})
			if err != nil {
				return nil, err
			}
			lb := simtime.Duration(m.hops(p)) * hop
			ratio := float64(r.Makespan) / float64(lb)
			rs.add(m.name, p, simtime.Duration(r.Makespan).String(), lb.String(), ratio)
		}
		return rs, nil
	})
	if err != nil {
		return nil, err
	}
	ct.AddNote("ratio > 1 reflects endpoint serialization (o, g) the depth bound ignores")
	return []*report.Table{pt, ct}, nil
}
