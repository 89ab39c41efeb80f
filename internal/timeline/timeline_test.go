package timeline

import (
	"strings"
	"testing"

	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/storage"
	"checkpointsim/internal/workload"
)

// traceRun simulates a small checkpointed stencil through a collector.
func traceRun(t *testing.T) (*Collector, *sim.Result) {
	t.Helper()
	prog, err := workload.FromName("stencil2d", workload.CommonConfig{
		Base:  workload.Base{Ranks: 4, Iterations: 10, Compute: simtime.Millisecond, Seed: 1},
		Bytes: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := checkpoint.NewCoordinated(checkpoint.Params{
		Interval: 3 * simtime.Millisecond, Write: 500 * simtime.Microsecond})
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

func TestCollectorGathersEverything(t *testing.T) {
	col, r := traceRun(t)
	if col.ranks != 4 {
		t.Errorf("ranks = %d", col.ranks)
	}
	if len(col.events) == 0 {
		t.Fatal("no events")
	}
	// Aggregate app time must match the engine's own accounting.
	us := col.Utilization(r.Makespan)
	var app, seized simtime.Duration
	for _, u := range us {
		app += u.App
		seized += u.Seized
	}
	var engineApp simtime.Duration
	for _, b := range r.RankBusy {
		engineApp += b
	}
	if app != engineApp {
		t.Errorf("timeline app %v != engine busy %v", app, engineApp)
	}
	if seized != r.TotalSeized() {
		t.Errorf("timeline seized %v != engine %v", seized, r.TotalSeized())
	}
	for _, u := range us {
		total := u.App + u.Ctl + u.Seized + u.Idle
		if total > simtime.Duration(r.Makespan) {
			t.Errorf("rank %d accounted %v > makespan %v", u.Rank, total, r.Makespan)
		}
		if f := u.AppFraction(r.Makespan); f <= 0 || f > 1 {
			t.Errorf("rank %d app fraction %v", u.Rank, f)
		}
	}
}

func TestSeizedByReason(t *testing.T) {
	col, r := traceRun(t)
	by := col.SeizedByReason()
	if by[checkpoint.ReasonWrite] != r.SeizedTime[checkpoint.ReasonWrite] {
		t.Errorf("seized-by-reason %v != engine %v",
			by[checkpoint.ReasonWrite], r.SeizedTime[checkpoint.ReasonWrite])
	}
}

func TestPrintSummary(t *testing.T) {
	col, r := traceRun(t)
	var sb strings.Builder
	col.PrintSummary(&sb, r.Makespan)
	out := sb.String()
	for _, want := range []string{"utilization:", "app", "seized[checkpoint]", "per-rank app fraction"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestPrintSummaryEmpty(t *testing.T) {
	var sb strings.Builder
	NewCollector().PrintSummary(&sb, 0)
	if !strings.Contains(sb.String(), "no events") {
		t.Error("empty summary wrong")
	}
}

func TestGantt(t *testing.T) {
	col, r := traceRun(t)
	var sb strings.Builder
	col.Gantt(&sb, 60, r.Makespan, 0)
	out := sb.String()
	if !strings.Contains(out, "r0 ") && !strings.Contains(out, "r0  ") {
		t.Errorf("gantt missing rank rows:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Error("gantt has no app time")
	}
	if !strings.Contains(out, "X") {
		t.Error("gantt has no seized time despite checkpointing")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // header + 4 ranks
		t.Errorf("gantt has %d lines", len(lines))
	}
}

func TestGanttRankCap(t *testing.T) {
	col, r := traceRun(t)
	var sb strings.Builder
	col.Gantt(&sb, 40, r.Makespan, 2)
	out := sb.String()
	if !strings.Contains(out, "2 more ranks not shown") {
		t.Errorf("cap note missing:\n%s", out)
	}
}

func TestGanttEmpty(t *testing.T) {
	var sb strings.Builder
	NewCollector().Gantt(&sb, 40, 0, 0)
	if !strings.Contains(sb.String(), "no events") {
		t.Error("empty gantt wrong")
	}
}

// ioWaitRun drives coordinated (near-simultaneous) checkpoint writes
// through a tight shared store, so the contention excess surfaces as
// io-wait seizure trace events.
func ioWaitRun(t *testing.T) (*Collector, *sim.Result) {
	t.Helper()
	prog, err := workload.FromName("stencil2d", workload.CommonConfig{
		Base:  workload.Base{Ranks: 4, Iterations: 10, Compute: simtime.Millisecond, Seed: 1},
		Bytes: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := storage.New(storage.Params{AggregateBytesPerSec: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := checkpoint.NewCoordinated(checkpoint.Params{
		Interval: 3 * simtime.Millisecond, Write: 500 * simtime.Microsecond,
		Bytes: 500_000, Store: st})
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

func TestIOWaitAccounting(t *testing.T) {
	col, r := ioWaitRun(t)
	us := col.Utilization(r.Makespan)
	var iowait, seized simtime.Duration
	for _, u := range us {
		iowait += u.IOWait
		seized += u.Seized
	}
	if iowait == 0 {
		t.Fatal("no io-wait despite 4 simultaneous writers on a shared 1 GB/s store")
	}
	if iowait != r.SeizedTime[checkpoint.ReasonIOWait] {
		t.Errorf("timeline io-wait %v != engine %v",
			iowait, r.SeizedTime[checkpoint.ReasonIOWait])
	}
	// io-wait is kept apart from productive seizure time, and both together
	// must match the engine's total seized accounting.
	if seized+iowait != r.TotalSeized() {
		t.Errorf("seized %v + io-wait %v != engine total %v",
			seized, iowait, r.TotalSeized())
	}
}

// The fixed-duration path must not report io-wait: the summary keeps its
// legacy four-column form and the utilization stays all-zero in IOWait.
func TestNoIOWaitWithoutStore(t *testing.T) {
	col, r := traceRun(t)
	for _, u := range col.Utilization(r.Makespan) {
		if u.IOWait != 0 {
			t.Fatalf("rank %d io-wait %v without a store", u.Rank, u.IOWait)
		}
	}
	var sb strings.Builder
	col.PrintSummary(&sb, r.Makespan)
	if strings.Contains(sb.String(), "io-wait") {
		t.Errorf("summary shows io-wait without a store:\n%s", sb.String())
	}
}

func TestClassBuckets(t *testing.T) {
	seize := func(reason string) sim.TraceEvent { return sim.TraceEvent{Kind: sim.KindSeize, Name: reason} }
	cases := map[sim.TraceEvent]string{
		{Kind: sim.KindCalc}: "app", {Kind: sim.KindSend}: "app", {Kind: sim.KindRecv}: "app",
		{Kind: sim.KindCtl}: "ctl", seize(checkpoint.ReasonWrite): "seized", seize("noise"): "seized",
		seize(checkpoint.ReasonIOWait): "iowait",
		{Kind: sim.KindEager}:          "other",
	}
	for ev, want := range cases {
		if got := class(ev); got != want {
			t.Errorf("class(%q) = %q, want %q", ev.Label(), got, want)
		}
	}
}

func TestSmallGoalProgramTimeline(t *testing.T) {
	b := goal.NewBuilder(2)
	s0 := b.Seq(0)
	s0.Calc(simtime.Millisecond)
	s0.Send(1, 0, 64)
	b.Seq(1).Recv(0, 0, 64)
	prog := b.MustBuild()
	col := NewCollector()
	e, err := sim.New(sim.Config{Net: network.DefaultParams(), Program: prog,
		Trace: col.Add})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(col.events) != 3 { // calc, send, recv
		t.Errorf("events = %d", len(col.events))
	}
	us := col.Utilization(r.Makespan)
	if us[0].App <= us[1].App {
		t.Error("rank 0 should have more app time (it computes)")
	}
}
