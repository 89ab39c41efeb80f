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
	err := sweep(t, o, "E14", bisections, func(sd uint64, bis float64) (rows, error) {
		net := o.net()
		net.BisectionBytesPerSec = bis
		label := "inf"
		if bis > 0 {
			label = report.Cell(bis / 1e9)
		}

		prog, err := buildProg("transpose", ranks, iters, ms(1), 32*1024, sd)
		if err != nil {
			return nil, err
		}
		tw, err := newTwin(o, net, prog, sd)
		if err != nil {
			return nil, err
		}
		baseSpan := simtime.Duration(tw.base.Makespan).String()
		var rs rows

		// Local writes: no extra fabric traffic.
		r, ov, err := tw.run(run.Config{
			Protocol: checkpoint.Config{Kind: checkpoint.KindUncoordinated,
				Interval: interval, Write: writeDur}})
		if err != nil {
			return nil, err
		}
		rs.add(label, baseSpan, "local-write", ov, r.Metrics.FabricBusy.String())

		// Partner: images compete for the bisection.
		r2, ov2, err := tw.run(run.Config{
			Protocol: checkpoint.Config{Kind: checkpoint.KindPartner,
				Interval: interval, Write: writeDur / 10, CkptBytes: image}})
		if err != nil {
			return nil, err
		}
		rs.add(label, baseSpan, "partner", ov2, r2.Metrics.FabricBusy.String())
		return rs, nil
	})
	if err != nil {
		return nil, err
	}
	t.AddNote("overheads are relative to the baseline at the same bisection; the baseline column shows the app slowing by itself")
	return []*report.Table{t}, nil
}
