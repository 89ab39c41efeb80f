package exp

import (
	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/failure"
	"checkpointsim/internal/model"
	"checkpointsim/internal/report"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
)

// e18Point is one cell of the (scale × MTBF) grid.
type e18Point struct {
	ranks int
	mtbf  simtime.Duration
}

// e18Cell is the outcome of one grid cell, exposed for the oracle-bound
// acceptance tests.
type e18Cell struct {
	ranks                int
	mtbf                 simtime.Duration
	tau                  simtime.Duration
	failures             int
	coord, uncoord, repl simtime.Time
	capC, capU, capR     bool
	replBase             simtime.Time // failure-free replication layout
	winner               string
}

const e18Cap = simtime.Time(60 * simtime.Second)

// E18Replication maps the three-way protocol crossover on the
// (scale × per-node MTBF) grid: coordinated checkpointing with global
// rollback, uncoordinated (staggered, logged) with local replay, and
// replication. The replication run holds total resources and total work
// equal: the application runs on P/2 ranks for 2× the iterations, embedded
// in the same P-rank machine (goal.Widen), with the other half serving as
// replicas. Replication pays the halved machine and message duplication
// always; checkpointing pays rollback per failure — so checkpointing wins
// when failures are rare and replication wins once the MTBF-normalized
// scale P/θ makes rework dominate. Cells where a protocol never settles
// under the 60s time cap are reported as capped and lose to any settled
// run.
func E18Replication(o Options) ([]*report.Table, error) {
	cells, err := e18Grid(o)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("E18: replication crossover grid (stencil2d, δ=2ms, equal work and resources)",
		"P", "node-MTBF", "τ", "failures", "coord-makespan", "uncoord-makespan", "repl-makespan", "winner")
	for _, c := range cells {
		t.AddRow(c.ranks, c.mtbf.String(), c.tau.String(), c.failures,
			cappedCell(c.coord, c.capC), cappedCell(c.uncoord, c.capU),
			cappedCell(c.repl, c.capR), c.winner)
	}
	t.AddNote("replication: P/2 app ranks × 2× iterations widened to P (degree 1); no rollback, heartbeat detection + takeover per failure")
	t.AddNote("same seed per cell: all three protocols see identical failure clocks")
	return []*report.Table{t}, nil
}

// e18Grid runs the sweep and returns the cells in grid order
// (scale-major, MTBF-minor).
func e18Grid(o Options) ([]e18Cell, error) {
	net := o.net()
	scales := pick(o, []int{16, 32, 64}, []int{8, 16})
	mtbfs := pick(o,
		[]simtime.Duration{100 * simtime.Millisecond, 400 * simtime.Millisecond,
			1600 * simtime.Millisecond, 6400 * simtime.Millisecond},
		[]simtime.Duration{100 * simtime.Millisecond, simtime.Second})
	iters := pick(o, 60, 30)
	const (
		write   = 2 * simtime.Millisecond
		restart = 2 * simtime.Millisecond
	)
	logp := checkpoint.LogParams{Alpha: 500 * simtime.Nanosecond, BetaNsPerByte: 0.1}

	var grid []e18Point
	for _, p := range scales {
		for _, m := range mtbfs {
			grid = append(grid, e18Point{ranks: p, mtbf: m})
		}
	}

	cells, err := points(o, "E18", grid, func(sd uint64, pt e18Point) (e18Cell, error) {
		p := pt.ranks
		sys := float64(pt.mtbf.Seconds()) / float64(p)
		tau := simtime.FromSeconds(model.DalyInterval(write.Seconds(), sys))
		if tau <= 0 {
			tau = write * 2
		}

		// The checkpointing protocols run the full-width application; the
		// replication runs embed a half-width application doing 2× the
		// iterations in the same machine (the assembler widens it to p).
		// Programs are immutable and shared across their runs. A run that
		// hits the time cap is a capped cell, not a failed sweep.
		prog, err := buildProg("stencil2d", p, iters, ms(1), 4096, sd)
		if err != nil {
			return e18Cell{}, err
		}
		half, err := buildProg("stencil2d", p/2, 2*iters, ms(1), 4096, sd)
		if err != nil {
			return e18Cell{}, err
		}
		cell := e18Cell{ranks: p, mtbf: pt.mtbf, tau: tau}
		replication := checkpoint.Config{Kind: checkpoint.KindReplication}

		// Failure-free replication layout: the duplication and heartbeat
		// overhead alone. Every replication run with failures must finish at
		// or above this floor (oracle bound for the tests).
		cell.replBase, _, _, err = executeCapped(o, run.Config{Net: net, Program: half, Seed: sd,
			MaxTime: e18Cap, Protocol: replication})
		if err != nil {
			return e18Cell{}, err
		}

		// Coordinated + global rollback.
		var rC *run.Result
		cell.coord, cell.capC, rC, err = executeCapped(o, run.Config{Net: net, Program: prog, Seed: sd,
			MaxTime:  e18Cap,
			Protocol: checkpoint.Config{Kind: checkpoint.KindCoordinated, Interval: tau, Write: write},
			Failures: &failure.Config{MTBF: pt.mtbf, Restart: restart}})
		if err != nil {
			return e18Cell{}, err
		}
		cell.failures = len(rC.FailureEvents)

		// Uncoordinated + local replay.
		cell.uncoord, cell.capU, _, err = executeCapped(o, run.Config{Net: net, Program: prog, Seed: sd,
			MaxTime: e18Cap,
			Protocol: checkpoint.Config{Kind: checkpoint.KindUncoordinated, Interval: tau,
				Write: write, Logging: logp},
			Failures: &failure.Config{MTBF: pt.mtbf, Restart: restart}})
		if err != nil {
			return e18Cell{}, err
		}

		// Replication: replica takeover instead of rollback.
		cell.repl, cell.capR, _, err = executeCapped(o, run.Config{Net: net, Program: half, Seed: sd,
			MaxTime: e18Cap, Protocol: replication,
			Failures: &failure.Config{MTBF: pt.mtbf, Restart: restart}})
		if err != nil {
			return e18Cell{}, err
		}

		cell.winner = e18Winner(cell)
		return cell, nil
	})
	if err != nil {
		return nil, errf("E18", err)
	}
	return cells, nil
}

// e18Winner names the protocol with the smallest settled makespan; capped
// runs lose to any settled run.
func e18Winner(c e18Cell) string {
	type cand struct {
		name   string
		mk     simtime.Time
		capped bool
	}
	cands := []cand{
		{"coordinated", c.coord, c.capC},
		{"uncoordinated", c.uncoord, c.capU},
		{"replication", c.repl, c.capR},
	}
	best := -1
	for i, cd := range cands {
		if cd.capped {
			continue
		}
		if best < 0 || cd.mk < cands[best].mk {
			best = i
		}
	}
	if best < 0 {
		return "none (all capped)"
	}
	return cands[best].name
}
