package exp

import (
	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/failure"
	"checkpointsim/internal/model"
	"checkpointsim/internal/report"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
)

// E7Recovery compares the protocols under injected failures across a
// per-node MTBF sweep: coordinated checkpointing with global rollback
// against uncoordinated (staggered, with logging) with single-rank log
// replay. Each uses its own Daly-optimal interval for the configuration.
//
// One sweep point = one MTBF; all three protocol runs in a point share the
// point's RNG stream, so they see identical failure clocks and differ only
// in victims and recovery costs. The failure-free baseline is agent-free
// and therefore seed-insensitive; it is computed once and shared.
func E7Recovery(o Options) ([]*report.Table, error) {
	net := o.net()
	ranks := pick(o, 64, 16)
	iters := pick(o, 120, 50)
	const (
		write   = 2 * simtime.Millisecond
		restart = 2 * simtime.Millisecond
	)
	logp := checkpoint.LogParams{Alpha: 500 * simtime.Nanosecond, BetaNsPerByte: 0.1}
	mtbfs := pick(o,
		[]simtime.Duration{2 * simtime.Second, 4 * simtime.Second, 8 * simtime.Second, 16 * simtime.Second},
		[]simtime.Duration{2 * simtime.Second, 8 * simtime.Second})

	t := report.NewTable("E7: runtime under failures vs per-node MTBF (stencil2d)",
		"node-MTBF", "protocol", "τ", "failures", "makespan", "overhead%", "lost-work")

	base, err := buildProg("stencil2d", ranks, iters, ms(1), 4096, o.Seed)
	if err != nil {
		return nil, errf("E7", err)
	}
	rBase, err := execute(o, run.Config{Net: net, Program: base, Seed: o.Seed})
	if err != nil {
		return nil, errf("E7", err)
	}

	err = sweep(t, o, "E7", mtbfs, func(i int, mtbf simtime.Duration) (rows, error) {
		sd := pointSeed(o, "E7", i)
		sys := float64(mtbf.Seconds()) / float64(ranks)
		tau := simtime.FromSeconds(model.DalyInterval(write.Seconds(), sys))
		if tau <= 0 {
			tau = write * 2
		}
		// One program serves all three protocol runs of this point: the spec
		// and seed are identical and engines never mutate a program.
		prog, err := buildProg("stencil2d", ranks, iters, ms(1), 4096, sd)
		if err != nil {
			return nil, err
		}
		protos := []struct {
			label    string
			proto    checkpoint.Config
			recovery failure.RecoveryKind
		}{
			{"coordinated+rollback", checkpoint.Config{Kind: checkpoint.KindCoordinated,
				Interval: tau, Write: write}, failure.RollbackGlobal},
			{"uncoordinated+replay", checkpoint.Config{Kind: checkpoint.KindUncoordinated,
				Interval: tau, Write: write, Logging: logp}, failure.ReplayLocal},
			// Hierarchical + cluster rollback: the middle ground.
			{"hierarchical+cluster", checkpoint.Config{Kind: checkpoint.KindHierarchical,
				Interval: tau, Write: write, ClusterSize: ranks / 8, Logging: logp}, failure.RollbackCluster},
		}
		var rs rows
		for _, p := range protos {
			r, err := execute(o, run.Config{Net: net, Program: prog, Seed: sd,
				MaxTime: simtime.Time(300 * simtime.Second), Protocol: p.proto,
				Failures: &failure.Config{MTBF: mtbf, Restart: restart,
					ReplaySpeedup: 2, Kind: p.recovery}})
			if err != nil {
				return nil, err
			}
			var lost simtime.Duration
			for _, ev := range r.FailureEvents {
				lost += ev.LostWork
			}
			rs.add(mtbf.String(), p.label, tau.String(), len(r.FailureEvents),
				simtime.Duration(r.Makespan).String(), overheadPct(r, rBase), lost.String())
		}
		return rs, nil
	})
	if err != nil {
		return nil, err
	}
	t.AddNote("same seed per row-pair: identical failure clocks, different victims/costs")
	return []*report.Table{t}, nil
}
