package exp

import (
	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/report"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
)

// E5Logging isolates the sender-based message-logging tax: checkpoint
// writes are disabled (infinite interval is approximated with a huge one
// and zero write time) so the measured overhead is purely the per-send CPU
// penalty and its propagation. Latency-bound codes (cg, small messages)
// respond to α; bandwidth-bound codes (transpose, large blocks) respond to β.
// One sweep point = one workload, covering the full (α, β) grid.
func E5Logging(o Options) ([]*report.Table, error) {
	net := o.net()
	ranks := pick(o, 64, 16)
	iters := pick(o, 30, 10)
	type wl struct {
		name  string
		bytes int64
	}
	wls := pick(o,
		[]wl{{"cg", 512}, {"stencil2d", 8192}, {"transpose", 32 * 1024}},
		[]wl{{"cg", 512}, {"stencil2d", 8192}})
	alphas := []simtime.Duration{0, simtime.Microsecond}
	betas := pick(o, []float64{0, 0.1, 0.3, 1.0}, []float64{0, 0.3})

	t := report.NewTable("E5: message-logging overhead (no checkpoint writes)",
		"workload", "msg-bytes", "alpha", "beta(ns/B)", "overhead%", "logged-msgs", "logged-MB")
	err := sweep(t, o, "E5", wls, func(i int, w wl) (rows, error) {
		sd := pointSeed(o, "E5", i)
		base, err := buildProg(w.name, ranks, iters, ms(1), w.bytes, sd)
		if err != nil {
			return nil, err
		}
		rBase, err := execute(o, run.Config{Net: net, Program: base, Seed: sd})
		if err != nil {
			return nil, err
		}
		var rs rows
		for _, a := range alphas {
			for _, b := range betas {
				if a == 0 && b == 0 {
					continue
				}
				// Same spec and seed as base: reuse the immutable program.
				r, err := execute(o, run.Config{Net: net, Program: base, Seed: sd,
					Protocol: checkpoint.Config{Kind: checkpoint.KindUncoordinated,
						Interval: simtime.Hour, Logging: checkpoint.LogParams{Alpha: a, BetaNsPerByte: b}}})
				if err != nil {
					return nil, err
				}
				st := r.Protocol.Stats()
				rs.add(w.name, w.bytes, a.String(), b, overheadPct(r, rBase),
					st.LoggedMessages, float64(st.LoggedBytes)/(1<<20))
			}
		}
		return rs, nil
	})
	if err != nil {
		return nil, err
	}
	return []*report.Table{t}, nil
}
