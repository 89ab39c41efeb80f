package exp

import (
	"math"

	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/failure"
	"checkpointsim/internal/model"
	"checkpointsim/internal/report"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/stats"
)

// E6Interval sweeps the checkpoint interval around the Young/Daly optimum
// under injected failures with global rollback and compares simulated
// makespans to the analytic expected-runtime model. The simulated optimum
// landing near τ_Daly validates both the model and the simulator's failure
// accounting.
//
// One sweep point = one τ/τ_Daly factor. Unlike the other experiments the
// replication seeds are deliberately shared across points (common random
// numbers: every factor sees the same failure clocks), so the point's own
// seed keys nothing here — determinism still holds because the seeds are
// fixed. One twin serves every replication of every factor.
func E6Interval(o Options) ([]*report.Table, error) {
	net := o.net()
	const (
		ranks   = 16
		write   = 10 * simtime.Millisecond
		restart = 10 * simtime.Millisecond
	)
	nodeMTBF := 4 * simtime.Second // system MTBF 250ms
	iters := pick(o, 600, 150)
	seeds := pick(o, []uint64{1, 2, 3, 4, 5}, []uint64{1, 2})

	sysMTBF := float64(nodeMTBF) / float64(ranks) / 1e9
	tauDaly := model.DalyInterval(write.Seconds(), sysMTBF)
	tauYoung := model.YoungInterval(write.Seconds(), sysMTBF)

	factors := pick(o, []float64{0.3, 0.5, 0.75, 1.0, 1.5, 2.5}, []float64{0.5, 1.0, 2.0})

	t := report.NewTable("E6: interval sweep under failures (P=16, δ=10ms, R=10ms, θ_sys=250ms)",
		"τ/τ_Daly", "τ", "mean-makespan", "ci95", "model(δ)", "model(δ_eff)", "sim/model_eff")
	t.AddNote("τ_Daly = %.1fms, τ_Young = %.1fms", tauDaly*1000, tauYoung*1000)

	// Failure-free useful time for the model's Ts, shared by every point.
	prog, err := buildProg("stencil2d", ranks, iters, ms(1), 4096, o.Seed)
	if err != nil {
		return nil, errf("E6", err)
	}
	tw, err := newTwin(o, net, prog, o.Seed)
	if err != nil {
		return nil, errf("E6", err)
	}
	ts := simtime.Duration(tw.base.Makespan).Seconds()

	err = sweep(t, o, "E6", factors, func(_ uint64, f float64) (rows, error) {
		tau := simtime.FromSeconds(tauDaly * f)
		var spans []float64
		var roundSpanSum simtime.Duration
		var roundCount int64
		for _, seed := range seeds {
			r, _, err := tw.at(seed).run(run.Config{
				MaxTime: simtime.Time(120 * simtime.Second),
				Protocol: checkpoint.Config{Kind: checkpoint.KindCoordinated,
					Interval: tau, Write: write},
				Failures: &failure.Config{MTBF: nodeMTBF, Restart: restart}})
			if err != nil {
				return nil, err
			}
			st := r.Protocol.Stats()
			spans = append(spans, simtime.Duration(r.Makespan).Seconds())
			roundSpanSum += st.RoundSpan
			roundCount += st.Rounds
		}
		mean := stats.Mean(spans)
		ci := stats.CI95(spans)
		mrt := model.ExpectedRuntime(ts, write.Seconds(), restart.Seconds(), sysMTBF, tau.Seconds())
		// The naive model uses δ = the raw write time; the simulator also
		// pays coordination latency and synchronization idling every round.
		// Feeding the *measured* round span back in as the effective δ shows
		// how much of the sim/model gap that explains.
		effDelta := write.Seconds()
		if roundCount > 0 {
			effDelta = (roundSpanSum / simtime.Duration(roundCount)).Seconds()
		}
		mrtEff := model.ExpectedRuntime(ts, effDelta, restart.Seconds(), sysMTBF, tau.Seconds())
		ratio := math.NaN()
		if mrtEff > 0 {
			ratio = mean / mrtEff
		}
		var rs rows
		rs.add(f, tau.String(),
			simtime.FromSeconds(mean).String(), simtime.FromSeconds(ci).String(),
			simtime.FromSeconds(mrt).String(),
			simtime.FromSeconds(mrtEff).String(), ratio)
		return rs, nil
	})
	if err != nil {
		return nil, err
	}
	t.AddNote("model(δ_eff) replaces the write time with the measured round span (write + coordination + idle)")
	return []*report.Table{t}, nil
}
