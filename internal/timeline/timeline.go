// Package timeline collects the simulator's per-job trace events and turns
// them into utilization breakdowns and ASCII Gantt charts — the per-rank
// view of where time went: application work, protocol control traffic,
// checkpoint/recovery seizures, and idling.
package timeline

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
)

// Collector accumulates trace events; pass Add as sim.Config.Trace.
type Collector struct {
	events []sim.TraceEvent
	ranks  int
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Add records one event (the sim.Config.Trace callback). Non-CPU records
// on the widened trace channel (grants, message events, phase markers) are
// ignored: the timeline view is built from CPU occupancies only.
func (c *Collector) Add(ev sim.TraceEvent) {
	if ev.Type != sim.TraceCPU {
		return
	}
	c.events = append(c.events, ev)
	if ev.Rank+1 > c.ranks {
		c.ranks = ev.Rank + 1
	}
}

// WriteCSV writes the collected CPU records to w as CSV, one
// rank,kind,start_ns,end_ns row each in trace order under a header row,
// and returns the number of records written.
func (c *Collector) WriteCSV(w io.Writer) (int, error) {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"rank", "kind", "start_ns", "end_ns"}); err != nil {
		return 0, err
	}
	for i, ev := range c.events {
		if err := cw.Write([]string{strconv.Itoa(ev.Rank), ev.Label(),
			strconv.FormatInt(int64(ev.Start), 10), strconv.FormatInt(int64(ev.End), 10)}); err != nil {
			return i, err
		}
	}
	cw.Flush()
	return len(c.events), cw.Error()
}

// class buckets a CPU record for reporting.
func class(ev sim.TraceEvent) string {
	switch ev.Kind.Class() {
	case sim.ClassApp:
		return "app"
	case sim.ClassCtl:
		return "ctl"
	case sim.ClassSeized:
		if ev.Name == checkpoint.ReasonIOWait { // contended storage, kept apart per rank
			return "iowait"
		}
		return "seized"
	}
	return "other"
}

// Utilization is one rank's time breakdown over [0, makespan].
type Utilization struct {
	Rank   int
	App    simtime.Duration
	Ctl    simtime.Duration
	Seized simtime.Duration
	// IOWait is the rank's time stalled on contended shared storage (the
	// checkpoint.ReasonIOWait seizures of checkpoint writes).
	IOWait simtime.Duration
	Idle   simtime.Duration
}

// AppFraction returns the useful-work fraction of the rank's time.
func (u Utilization) AppFraction(makespan simtime.Time) float64 {
	if makespan <= 0 {
		return 0
	}
	return float64(u.App) / float64(makespan)
}

// Utilization computes per-rank breakdowns against the given makespan.
func (c *Collector) Utilization(makespan simtime.Time) []Utilization {
	out := make([]Utilization, c.ranks)
	for i := range out {
		out[i].Rank = i
	}
	for _, ev := range c.events {
		d := ev.End.Sub(ev.Start)
		u := &out[ev.Rank]
		switch class(ev) {
		case "app":
			u.App += d
		case "ctl":
			u.Ctl += d
		case "seized":
			u.Seized += d
		case "iowait":
			u.IOWait += d
		}
	}
	for i := range out {
		occupied := out[i].App + out[i].Ctl + out[i].Seized + out[i].IOWait
		idle := simtime.Duration(makespan) - occupied
		if idle < 0 {
			idle = 0
		}
		out[i].Idle = idle
	}
	return out
}

// SeizedByReason aggregates seized time per reason across all ranks.
func (c *Collector) SeizedByReason() map[string]simtime.Duration {
	out := make(map[string]simtime.Duration)
	for _, ev := range c.events {
		if ev.Kind == sim.KindSeize {
			out[ev.Name] += ev.End.Sub(ev.Start)
		}
	}
	return out
}

// PrintSummary writes the machine-level utilization table.
func (c *Collector) PrintSummary(w io.Writer, makespan simtime.Time) {
	us := c.Utilization(makespan)
	var app, ctl, seized, iowait, idle simtime.Duration
	worst, best := 1.0, 0.0
	for _, u := range us {
		app += u.App
		ctl += u.Ctl
		seized += u.Seized
		iowait += u.IOWait
		idle += u.Idle
		f := u.AppFraction(makespan)
		if f < worst {
			worst = f
		}
		if f > best {
			best = f
		}
	}
	total := float64(app + ctl + seized + iowait + idle)
	if total == 0 {
		fmt.Fprintln(w, "timeline: no events")
		return
	}
	pct := func(d simtime.Duration) float64 { return 100 * float64(d) / total }
	if iowait > 0 {
		fmt.Fprintf(w, "utilization: app %.1f%%, control %.1f%%, seized %.1f%%, io-wait %.1f%%, idle %.1f%%\n",
			pct(app), pct(ctl), pct(seized), pct(iowait), pct(idle))
	} else {
		fmt.Fprintf(w, "utilization: app %.1f%%, control %.1f%%, seized %.1f%%, idle %.1f%%\n",
			pct(app), pct(ctl), pct(seized), pct(idle))
	}
	if len(us) > 1 {
		fmt.Fprintf(w, "per-rank app fraction: min %.1f%%, max %.1f%%\n", worst*100, best*100)
	}
	reasons := c.SeizedByReason()
	keys := make([]string, 0, len(reasons))
	for k := range reasons {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "seized[%s]: %v total\n", k, reasons[k])
	}
}

// Gantt renders an ASCII chart: one row per rank, time left to right.
// Symbols: '#' application, 'c' control, 'X' seized, '.' idle. Events are
// painted in completion order; within one rank they never overlap. Rows are
// capped at maxRanks (0 = all).
func (c *Collector) Gantt(w io.Writer, width int, makespan simtime.Time, maxRanks int) {
	if width < 10 {
		width = 10
	}
	rows := c.ranks
	if maxRanks > 0 && rows > maxRanks {
		rows = maxRanks
	}
	if rows == 0 || makespan <= 0 {
		fmt.Fprintln(w, "gantt: no events")
		return
	}
	grid := make([][]byte, rows)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(".", width))
	}
	for _, ev := range c.events {
		if ev.Rank >= rows {
			continue
		}
		var sym byte
		switch class(ev) {
		case "app":
			sym = '#'
		case "ctl":
			sym = 'c'
		case "seized":
			sym = 'X'
		case "iowait":
			sym = 'w'
		default:
			sym = '?'
		}
		lo := int(int64(ev.Start) * int64(width) / int64(makespan))
		hi := int(int64(ev.End) * int64(width) / int64(makespan))
		if hi >= width {
			hi = width - 1
		}
		for x := lo; x <= hi; x++ {
			grid[ev.Rank][x] = sym
		}
	}
	fmt.Fprintf(w, "gantt: 0 .. %v  (#=app c=ctl X=seized w=io-wait .=idle)\n", simtime.Duration(makespan))
	for i, row := range grid {
		fmt.Fprintf(w, "r%-3d |%s|\n", i, row)
	}
	if rows < c.ranks {
		fmt.Fprintf(w, "(%d more ranks not shown)\n", c.ranks-rows)
	}
}
