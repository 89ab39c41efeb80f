package timeline

import (
	"strings"
	"testing"

	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/network"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/storage"
	"checkpointsim/internal/workload"
)

// contendedRun simulates aligned uncoordinated checkpointing through a
// bandwidth-limited store: all ranks write at once, so every write splits
// into its nominal (checkpoint) part and a contention (io-wait) part.
func contendedRun(t *testing.T) (*Collector, *sim.Result) {
	t.Helper()
	prog, err := workload.FromName("ep", workload.CommonConfig{
		Base: workload.Base{Ranks: 4, Iterations: 20, Compute: simtime.Millisecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := storage.New(storage.Params{AggregateBytesPerSec: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := checkpoint.Config{Kind: checkpoint.KindUncoordinated,
		Interval: 5 * simtime.Millisecond, Write: simtime.Millisecond, Offset: "aligned"}.New(st)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector()
	e, err := sim.New(sim.Config{
		Net: network.DefaultParams(), Program: prog,
		Agents: []sim.Agent{cp}, Seed: 1, Trace: col.Add,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return col, r
}

func TestUtilizationSplitsIOWait(t *testing.T) {
	col, r := contendedRun(t)
	us := col.Utilization(r.Makespan)
	var seized, iowait simtime.Duration
	for _, u := range us {
		seized += u.Seized
		iowait += u.IOWait
		if u.IOWait == 0 {
			t.Errorf("rank %d: aligned contended writes show no io-wait", u.Rank)
		}
	}
	// The collector's split must agree with the engine's accounting.
	if seized != r.SeizedTime[checkpoint.ReasonWrite] {
		t.Errorf("seized = %v, engine says %v", seized, r.SeizedTime[checkpoint.ReasonWrite])
	}
	if iowait != r.SeizedTime[checkpoint.ReasonIOWait] {
		t.Errorf("io-wait = %v, engine says %v", iowait, r.SeizedTime[checkpoint.ReasonIOWait])
	}
	// 4 aligned writers through a shared pipe: each write stalls ~3x its
	// nominal time, so io-wait must clearly dominate the nominal part.
	if iowait < 2*seized {
		t.Errorf("io-wait %v not clearly above nominal %v under 4-way contention",
			iowait, seized)
	}
}

func TestPrintSummaryShowsIOWait(t *testing.T) {
	col, r := contendedRun(t)
	var b strings.Builder
	col.PrintSummary(&b, r.Makespan)
	out := b.String()
	if !strings.Contains(out, "io-wait") {
		t.Errorf("summary omits io-wait:\n%s", out)
	}
	if !strings.Contains(out, "seized[io-wait]") {
		t.Errorf("summary omits seized[io-wait] line:\n%s", out)
	}
}

func TestGanttShowsIOWait(t *testing.T) {
	col, r := contendedRun(t)
	var b strings.Builder
	col.Gantt(&b, 120, r.Makespan, 0)
	out := b.String()
	if !strings.Contains(out, "w=io-wait") {
		t.Errorf("gantt legend omits io-wait:\n%s", out)
	}
	if !strings.Contains(out, "w") || !strings.ContainsRune(strings.SplitN(out, "\n", 2)[1], 'w') {
		t.Errorf("gantt rows show no io-wait cells:\n%s", out)
	}
}

func TestClassIOWait(t *testing.T) {
	if class(sim.TraceEvent{Kind: sim.KindSeize, Name: checkpoint.ReasonIOWait}) != "iowait" {
		t.Error("seize:io-wait not classed as iowait")
	}
	if class(sim.TraceEvent{Kind: sim.KindSeize, Name: checkpoint.ReasonWrite}) != "seized" {
		t.Error("seize:checkpoint not classed as seized")
	}
}
