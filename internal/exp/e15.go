package exp

import (
	"checkpointsim/internal/noise"
	"checkpointsim/internal/report"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
)

// E15Resonance sweeps the *granularity* of interruptions at a fixed duty
// cycle — the classic noise-resonance experiment of this research lineage.
// High-frequency, low-amplitude noise is absorbed by slack in the
// communication schedule; the same total CPU theft delivered as rare, long
// detours (which is exactly what checkpoint writes are) lands on the
// critical path and is amplified. Checkpointing is the worst-shaped noise.
// One sweep point = one workload across every noise period.
func E15Resonance(o Options) ([]*report.Table, error) {
	net := o.net()
	ranks := pick(o, 64, 16)
	iters := pick(o, 160, 100)
	const duty = 0.025
	periods := pick(o,
		[]simtime.Duration{100 * simtime.Microsecond, simtime.Millisecond,
			10 * simtime.Millisecond, 50 * simtime.Millisecond},
		[]simtime.Duration{100 * simtime.Microsecond, 10 * simtime.Millisecond})
	workloads := pick(o, []string{"ep", "stencil2d", "cg"}, []string{"ep", "stencil2d"})

	t := report.NewTable("E15: noise-shape resonance at fixed 2.5% duty cycle",
		"workload", "period", "event-duration", "overhead%", "amplification")
	err := sweep(t, o, "E15", workloads, func(sd uint64, w string) (rows, error) {
		prog, err := buildProg(w, ranks, iters, ms(1), 4096, sd)
		if err != nil {
			return nil, err
		}
		tw, err := newTwin(o, net, prog, sd)
		if err != nil {
			return nil, err
		}
		var rs rows
		for _, period := range periods {
			dur := period.Scale(duty)
			_, ov, err := tw.run(run.Config{Noise: &noise.Config{Period: period, Duration: dur}})
			if err != nil {
				return nil, err
			}
			rs.add(w, period.String(), dur.String(), ov, ov/(duty*100))
		}
		return rs, nil
	})
	if err != nil {
		return nil, err
	}
	t.AddNote("same CPU theft per rank in every row; only the event shape changes")
	return []*report.Table{t}, nil
}
