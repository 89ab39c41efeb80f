package exp

import (
	"fmt"

	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/report"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
)

// e19Cell is one (workload, lag) outcome, exposed for the oracle-bound
// acceptance tests.
type e19Cell struct {
	workload      string
	lag           int
	msgsPerTau    float64 // app messages per rank per checkpoint interval
	basic, forced int64
	makespan      simtime.Time
	base          simtime.Time // agent-free baseline for the workload
}

// E19CIC measures forced-checkpoint amplification under index-based
// communication-induced checkpointing. Each rank checkpoints on an
// independent local timer (the basic schedule) and piggybacks its checkpoint
// index on every message; a receiver whose index lags a message's by the
// threshold takes a forced checkpoint before processing it. The forced load
// is pure communication structure: workloads are ordered by messages per
// rank per interval, and the amplification column (forced/basic) grows with
// that intensity and shrinks as the lag threshold relaxes the Z-path-free
// rule. Runs are failure-free — the experiment isolates the protocol's
// overhead, not its recovery.
func E19CIC(o Options) ([]*report.Table, error) {
	if err := o.Storage.Validate(); err != nil {
		return nil, errf("E19", err)
	}
	cells, err := e19Grid(o)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("E19: CIC forced-checkpoint amplification (τ=2ms, δ=500µs, failure-free)",
		"workload", "lag", "msgs/rank/τ", "basic", "forced", "amplification", "makespan", "overhead%")
	for _, c := range cells {
		amp := "0.00"
		if c.basic > 0 {
			amp = fmt.Sprintf("%.2f", float64(c.forced)/float64(c.basic))
		}
		ovh := 100 * (float64(c.makespan)/float64(c.base) - 1)
		t.AddRow(c.workload, c.lag, fmt.Sprintf("%.1f", c.msgsPerTau),
			c.basic, c.forced, amp, simtime.Duration(c.makespan).String(),
			fmt.Sprintf("%.1f", ovh))
	}
	t.AddNote("lag = index-lag threshold; 1 is the classic Z-path-free rule, larger thresholds trade forced load for weaker guarantees")
	t.AddNote("indices ride in message headers: the only protocol cost is the forced writes themselves")
	return []*report.Table{t}, nil
}

// e19Grid runs the sweep and returns cells ordered workload-major,
// lag-minor. One sweep point = one workload; every lag row within it shares
// the point's seed and its agent-free baseline.
func e19Grid(o Options) ([]e19Cell, error) {
	net := o.net()
	ranks := pick(o, 32, 16)
	iters := pick(o, 60, 30)
	lags := []int{1, 2, 4}
	workloads := []string{"ep", "sweep", "stencil2d", "stencil3d", "transpose"}
	const (
		tau   = 2 * simtime.Millisecond
		write = 500 * simtime.Microsecond
		grain = 500 * simtime.Microsecond
	)

	out, err := points(o, "E19", workloads, func(sd uint64, wl string) ([]e19Cell, error) {
		prog, err := buildProg(wl, ranks, iters, grain, 4096, sd)
		if err != nil {
			return nil, err
		}
		tw, err := newTwin(o, net, prog, sd)
		if err != nil {
			return nil, err
		}
		// Communication intensity: application messages per rank per
		// checkpoint interval, measured on the protocol-free run.
		intervals := float64(tw.base.Makespan) / float64(tau)
		msgsPerTau := 0.0
		if intervals > 0 {
			msgsPerTau = float64(tw.base.Metrics.AppMessages) / float64(ranks) / intervals
		}

		var cells []e19Cell
		for _, lag := range lags {
			r, _, err := tw.run(run.Config{Storage: o.Storage,
				Protocol: checkpoint.Config{Kind: checkpoint.KindCIC, Interval: tau, Write: write,
					CICLag: lag}})
			if err != nil {
				return nil, err
			}
			st := r.Protocol.Stats()
			cells = append(cells, e19Cell{
				workload:   wl,
				lag:        lag,
				msgsPerTau: msgsPerTau,
				basic:      st.Writes - st.Forced,
				forced:     st.Forced,
				makespan:   r.Makespan,
				base:       tw.base.Makespan,
			})
		}
		return cells, nil
	})
	if err != nil {
		return nil, errf("E19", err)
	}
	var cells []e19Cell
	for _, cs := range out {
		cells = append(cells, cs...)
	}
	return cells, nil
}
