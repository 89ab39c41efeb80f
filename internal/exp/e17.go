package exp

import (
	"strconv"

	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/report"
	"checkpointsim/internal/run"
	"checkpointsim/internal/runner"
	"checkpointsim/internal/simtime"
)

// e17Cell is one measured grid cell of the contention map; e17Grid returns
// these structured (rather than only rendered rows) so the acceptance test
// can assert the crossover shape directly.
type e17Cell struct {
	P        int
	Agg      float64 // aggregate PFS bandwidth (bytes/s); <=0 = unlimited
	Protocol string
	Overhead float64
	IOWait   simtime.Duration
	Writes   int64
}

// e17Label renders an aggregate bandwidth for the table.
func e17Label(agg float64) string {
	if agg <= 0 {
		return "inf"
	}
	return strconv.FormatFloat(agg/1e9, 'g', -1, 64)
}

// e17Grid sweeps the (P × aggregate-bandwidth) grid. Every cell runs the
// coordinated protocol and the staggered/random uncoordinated variants
// through a fresh shared store (stores arbitrate within one engine, so each
// simulation gets its own). The workload is EP: with no communication
// coupling, the only thing separating the protocols is how their write
// schedules collide inside the storage system.
func e17Grid(o Options) ([][]e17Cell, error) {
	if err := o.Storage.Validate(); err != nil {
		return nil, errf("E17", err)
	}
	net := o.net()
	scales := pick(o, []int{16, 64, 256}, []int{16, 64})
	aggs := pick(o, []float64{0, 8e9, 2e9}, []float64{0, 2e9})
	// The interval dwarfs both the write and the coordinated round span at
	// unlimited bandwidth, so the protocols sit within noise of each other
	// until finite bandwidth starts stretching simultaneous writers. Fine
	// compute grains matter for the same reason: control sweeps relay behind
	// the non-preemptive running op at every tree level, so a coarse grain
	// would bury the storage signal under coordination latency.
	iters := pick(o, 400, 200)
	grain := 200 * simtime.Microsecond

	// Per-writer cap: a lone writer streams its 2e5-byte image in exactly
	// the legacy δ=200µs, so the unlimited column reproduces fixed-duration
	// behavior and every slowdown at finite bandwidth is pure contention.
	writerCap := o.Storage.PerWriterBytesPerSec
	if writerCap <= 0 {
		writerCap = 1e9
	}
	const (
		tau   = 20 * simtime.Millisecond
		delta = 200 * simtime.Microsecond
		image = int64(2e5)
	)
	protos := []struct {
		name string
		cfg  checkpoint.Config
	}{
		{"coordinated", checkpoint.Config{Kind: checkpoint.KindCoordinated,
			Interval: tau, Write: delta, Bytes: image}},
		{"uncoord-staggered", checkpoint.Config{Kind: checkpoint.KindUncoordinated,
			Interval: tau, Write: delta, Bytes: image, Offset: "staggered"}},
		{"uncoord-random", checkpoint.Config{Kind: checkpoint.KindUncoordinated,
			Interval: tau, Write: delta, Bytes: image, Offset: "random"}},
	}

	type point struct {
		p   int
		agg float64
	}
	var points []point
	for _, p := range scales {
		for _, agg := range aggs {
			points = append(points, point{p, agg})
		}
	}

	return runner.MapCtx(o.ctx(), o.Jobs, points, func(i int, pt point) ([]e17Cell, error) {
		sd := pointSeed(o, "E17", i)
		base, err := buildProg("ep", pt.p, iters, grain, 4096, sd)
		if err != nil {
			return nil, err
		}
		rBase, err := execute(o, run.Config{Net: net, Program: base, Seed: sd})
		if err != nil {
			return nil, err
		}
		// Every protocol run gets a fresh store from this cell's template.
		sp := o.Storage
		sp.AggregateBytesPerSec = pt.agg
		sp.PerWriterBytesPerSec = writerCap
		cells := make([]e17Cell, 0, len(protos))
		for _, proto := range protos {
			// Identical spec and seed — the base program serves every
			// protocol variant of this cell.
			r, err := execute(o, run.Config{Net: net, Program: base, Seed: sd,
				Storage: sp, Protocol: proto.cfg})
			if err != nil {
				return nil, err
			}
			cells = append(cells, e17Cell{
				P:        pt.p,
				Agg:      pt.agg,
				Protocol: proto.name,
				Overhead: overheadPct(r, rBase),
				IOWait:   r.SeizedTime[checkpoint.ReasonIOWait],
				Writes:   r.Protocol.Stats().Writes,
			})
		}
		return cells, nil
	})
}

// E17Contention maps checkpoint overhead over the (P × aggregate parallel
// filesystem bandwidth) grid for coordinated vs uncoordinated write
// schedules. With unlimited bandwidth the protocols are within noise of each
// other on an uncoupled workload; at finite aggregate bandwidth the
// coordinated protocol's simultaneous writes split the pipe P ways while
// staggered writers mostly stream at the per-writer cap — the
// contention-driven crossover the shared-storage model exists to show.
func E17Contention(o Options) ([]*report.Table, error) {
	groups, err := e17Grid(o)
	if err != nil {
		return nil, errf("E17", err)
	}
	t := report.NewTable("E17: shared-storage contention map (ep, δ=200µs ↔ 2e5 B @ 1 GB/s cap, τ=20ms)",
		"P", "agg GB/s", "protocol", "overhead%", "io-wait", "writes")
	for _, cells := range groups {
		for _, c := range cells {
			t.AddRow(c.P, e17Label(c.Agg), c.Protocol, c.Overhead,
				c.IOWait.String(), c.Writes)
		}
	}
	t.AddNote("io-wait = total contention-induced stall beyond the nominal write time, summed over ranks")
	t.AddNote("coordinated rounds write all P images at once: k concurrent writers each drain at min(cap, agg/k)")
	return []*report.Table{t}, nil
}
