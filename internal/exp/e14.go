package exp

import (
	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/report"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
)

// E14Fabric measures how a finite bisection bandwidth changes the
// checkpointing picture: partner checkpointing ships images through the
// same fabric the application uses, so its advantage over local writes
// (E12) erodes as the fabric tightens — and the application itself slows
// even without checkpointing. One sweep point = one bisection bandwidth.
func E14Fabric(o Options) ([]*report.Table, error) {
	ranks := pick(o, 64, 16)
	iters := pick(o, 40, 15)
	const (
		interval = 10 * simtime.Millisecond
		image    = int64(1 << 20)
	)
	// Per-rank 1 GB/s filesystem share for the local-write comparator.
	writeDur := simtime.FromSeconds(float64(image) / (1 << 30))
	bisections := pick(o,
		[]float64{0, 400e9, 100e9, 25e9},
		[]float64{0, 100e9})

	t := report.NewTable("E14: partner checkpointing under fabric contention (transpose, 1MiB images)",
		"bisection-GB/s", "baseline-makespan", "protocol", "overhead%", "fabric-busy")
	err := sweep(t, o, "E14", bisections, func(i int, bis float64) (rows, error) {
		sd := pointSeed(o, "E14", i)
		net := o.net()
		net.BisectionBytesPerSec = bis
		label := "inf"
		if bis > 0 {
			label = report.Cell(bis / 1e9)
		}

		base, err := buildProg("transpose", ranks, iters, ms(1), 32*1024, sd)
		if err != nil {
			return nil, err
		}
		rBase, err := execute(o, run.Config{Net: net, Program: base, Seed: sd})
		if err != nil {
			return nil, err
		}
		var rs rows

		// Local writes: no extra fabric traffic. Same spec and seed as base:
		// reuse the immutable program.
		r, err := execute(o, run.Config{Net: net, Program: base, Seed: sd,
			Protocol: checkpoint.Config{Kind: checkpoint.KindUncoordinated,
				Interval: interval, Write: writeDur}})
		if err != nil {
			return nil, err
		}
		rs.add(label, simtime.Duration(rBase.Makespan).String(), "local-write",
			overheadPct(r, rBase), r.Metrics.FabricBusy.String())

		// Partner: images compete for the bisection.
		r2, err := execute(o, run.Config{Net: net, Program: base, Seed: sd,
			Protocol: checkpoint.Config{Kind: checkpoint.KindPartner,
				Interval: interval, Write: writeDur / 10, CkptBytes: image}})
		if err != nil {
			return nil, err
		}
		rs.add(label, simtime.Duration(rBase.Makespan).String(), "partner",
			overheadPct(r2, rBase), r2.Metrics.FabricBusy.String())
		return rs, nil
	})
	if err != nil {
		return nil, err
	}
	t.AddNote("overheads are relative to the baseline at the same bisection; the baseline column shows the app slowing by itself")
	return []*report.Table{t}, nil
}
