package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"checkpointsim"
)

func capture(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return sb.String()
}

func TestList(t *testing.T) {
	out := capture(t, "-list")
	for _, w := range []string{"stencil2d", "cg", "transpose", "ep", "straggler"} {
		if !strings.Contains(out, w) {
			t.Errorf("list missing %s:\n%s", w, out)
		}
	}
}

func TestBasicRun(t *testing.T) {
	out := capture(t, "-workload", "cg", "-ranks", "8", "-iters", "5",
		"-protocol", "coordinated", "-interval", "5ms", "-write", "500us")
	for _, want := range []string{"protocol:  coordinated", "makespan", "checkpoints:", "finish skew"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunWithFailuresAndNoise(t *testing.T) {
	out := capture(t, "-workload", "stencil2d", "-ranks", "16", "-iters", "30",
		"-protocol", "uncoordinated", "-offset", "staggered",
		"-interval", "5ms", "-write", "200us", "-log-alpha", "1us",
		"-mtbf", "640ms",
		"-noise-period", "5ms", "-noise-duration", "50us",
		"-seed", "16", "-max-time", "30s")
	if !strings.Contains(out, "failures:") {
		t.Errorf("no failures reported:\n%s", out)
	}
	if !strings.Contains(out, "logging:") {
		t.Errorf("no logging reported:\n%s", out)
	}
}

func TestTimelineOutput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "timeline.csv")
	capture(t, "-workload", "ep", "-ranks", "4", "-iters", "3", "-timeline", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.HasPrefix(s, "rank,kind,start_ns,end_ns\n") {
		t.Errorf("timeline header wrong: %q", s[:50])
	}
	if !strings.Contains(s, "calc") {
		t.Error("timeline has no calc records")
	}
}

// TestTimelineLabelsGolden pins the printed trace labels: the -timeline CSV
// and the -gantt summary of one small run whose seizures carry every engine
// reason (checkpoint, io-wait, noise, recovery) next to the calc, send,
// recv and ctl jobs.
func TestTimelineLabelsGolden(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "timeline.csv")
	out := capture(t, "-workload", "stencil2d", "-ranks", "4", "-iters", "10",
		"-compute", "200us", "-protocol", "coordinated", "-interval", "1ms", "-write", "100us",
		"-noise-period", "700us", "-noise-duration", "20us", "-mtbf", "20ms", "-restart", "50us",
		"-store-agg", "0.5", "-image-bytes", "100000", "-seed", "3", "-validate",
		"-timeline", csv, "-gantt", "-gantt-width", "60")
	rows, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]byte{
		"labels_gantt.golden": []byte(strings.ReplaceAll(out, csv, "timeline.csv")),
		"labels_timeline.csv": rows,
	}
	for name, b := range got {
		golden := filepath.Join("testdata", name)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, b, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden (regenerate with -update): %v", err)
		}
		if string(b) != string(want) {
			t.Errorf("%s drifted from golden\n--- got ---\n%s--- want ---\n%s", name, b, want)
		}
	}
	for _, label := range []string{"seize:checkpoint", "seize:io-wait", "seize:noise", "seize:recovery",
		"calc", "send", "recv", "ctl"} {
		if !strings.Contains(string(rows), ","+label+",") {
			t.Errorf("timeline has no %s row", label)
		}
	}
}

func TestNetPresetAndBisection(t *testing.T) {
	capture(t, "-workload", "transpose", "-ranks", "8", "-iters", "3",
		"-net", "ethernet", "-bisection", "10")
	var sb strings.Builder
	if err := run([]string{"-net", "bogus"}, &sb); err == nil {
		t.Error("bogus net preset accepted")
	}
	if err := run([]string{"-bisection", "-1"}, &sb); err == nil {
		t.Error("negative bisection accepted")
	}
}

func TestBadFlagValues(t *testing.T) {
	var sb strings.Builder
	cases := [][]string{
		{"-compute", "xx"},
		{"-interval", "yy"},
		{"-write", "zz"},
		{"-log-alpha", "qq"},
		{"-max-time", "ww"},
		{"-mtbf", "bogus"},
		{"-mtbf", "1s", "-restart", "bogus"},
		{"-noise-period", "bogus"},
		{"-workload", "nonexistent"},
	}
	for _, c := range cases {
		if err := run(c, &sb); err == nil {
			t.Errorf("args %v accepted", c)
		}
	}
}

// The storage flags route the protocol's writes through the shared store:
// aligned uncoordinated writers through a tight pipe must report storage
// stats with contention (wait time), and bad bandwidths must be rejected.
func TestStorageFlags(t *testing.T) {
	out := capture(t, "-workload", "ep", "-ranks", "8", "-iters", "40",
		"-protocol", "uncoordinated", "-offset", "aligned",
		"-interval", "5ms", "-write", "1ms",
		"-store-agg", "1", "-image-bytes", "1000000")
	if !strings.Contains(out, "storage:") {
		t.Errorf("no storage stats line:\n%s", out)
	}
	if !strings.Contains(out, "peak") {
		t.Errorf("storage line missing peak writers:\n%s", out)
	}
	// Unconstrained run: no storage flags -> no storage line.
	out = capture(t, "-workload", "ep", "-ranks", "4", "-iters", "5",
		"-protocol", "coordinated", "-interval", "5ms", "-write", "500us")
	if strings.Contains(out, "storage:") {
		t.Errorf("storage line printed without storage flags:\n%s", out)
	}
	var sb strings.Builder
	for _, c := range [][]string{
		{"-store-agg", "-1"},
		{"-store-writer", "-1"},
		{"-store-node", "-1"},
	} {
		if err := run(c, &sb); err == nil {
			t.Errorf("args %v accepted", c)
		}
	}
}

func TestGanttOutput(t *testing.T) {
	out := capture(t, "-workload", "stencil2d", "-ranks", "4", "-iters", "10",
		"-protocol", "coordinated", "-interval", "5ms", "-write", "1ms",
		"-gantt", "-gantt-width", "50")
	for _, want := range []string{"utilization:", "gantt:", "r0 ", "X"} {
		if !strings.Contains(out, want) {
			t.Errorf("gantt output missing %q:\n%s", want, out)
		}
	}
}

func TestExtendedProtocolFlags(t *testing.T) {
	out := capture(t, "-workload", "stencil2d", "-ranks", "8", "-iters", "15",
		"-protocol", "twolevel", "-interval", "20ms", "-write", "2ms",
		"-local-interval", "3ms", "-local-write", "100us")
	if !strings.Contains(out, "protocol:  twolevel") {
		t.Errorf("twolevel not selected:\n%s", out)
	}
	out = capture(t, "-workload", "cg", "-ranks", "8", "-iters", "10",
		"-protocol", "nonblocking", "-window", "4ms", "-slowdown", "1.25")
	if !strings.Contains(out, "nonblocking-coordinated") {
		t.Errorf("nonblocking not selected:\n%s", out)
	}
	out = capture(t, "-workload", "ep", "-ranks", "8", "-iters", "10",
		"-protocol", "partner", "-ckpt-bytes", "65536")
	if !strings.Contains(out, "protocol:  partner") {
		t.Errorf("partner not selected:\n%s", out)
	}
	out = capture(t, "-workload", "ep", "-ranks", "4", "-iters", "20",
		"-protocol", "uncoordinated", "-interval", "3ms", "-write", "500us",
		"-incr-every", "4", "-incr-fraction", "0.25")
	if !strings.Contains(out, "incremental") {
		t.Errorf("incremental not selected:\n%s", out)
	}
	var sb strings.Builder
	for _, c := range [][]string{
		{"-protocol", "nonblocking", "-window", "bogus"},
		{"-protocol", "twolevel", "-local-interval", "bogus"},
		{"-protocol", "twolevel", "-local-write", "bogus"},
	} {
		if err := run(c, &sb); err == nil {
			t.Errorf("args %v accepted", c)
		}
	}
}

// TestFailureCapWithoutMaxTime: a failure rate the machine cannot outrun
// (a system MTBF of 2.5 ms against the 1 ms default restart plus rework)
// never finishes, so with no -max-time checksim stops it at
// failureCapFactor times its critical path and names that bound, within
// a few seconds.
func TestFailureCapWithoutMaxTime(t *testing.T) {
	prog, err := checkpointsim.RunConfig{Workload: "cg", Ranks: 16, Iterations: 10,
		Compute: checkpointsim.Millisecond, MsgBytes: 4096, Seed: 42}.BuildProgram()
	if err != nil {
		t.Fatal(err)
	}
	cp, _ := checkpointsim.CriticalPath(prog, checkpointsim.DefaultNetwork())
	bound := cp.Scale(failureCapFactor)
	start := time.Now()
	err = run([]string{"-workload", "cg", "-ranks", "16", "-iters", "10", "-protocol", "coordinated",
		"-interval", "2ms", "-mtbf", "40ms", "-validate"}, new(strings.Builder))
	if err == nil || !strings.Contains(err.Error(), "cap exceeded") ||
		!strings.Contains(err.Error(), fmt.Sprintf("%v passed", bound)) {
		t.Fatalf("run: %v, want the time cap exceeded at %v", err, bound)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("the capped run took %v", d)
	}
}

// Hierarchical and two-level failures validate with no recovery named:
// the protocol picks its cluster rollback or level dispatch, and the run
// reports its failures.
func TestRecoveryKinds(t *testing.T) {
	for _, c := range [][]string{
		{"-protocol", "hierarchical", "-cluster", "4"},
		{"-protocol", "twolevel"},
	} {
		args := append([]string{"-workload", "cg", "-ranks", "16", "-iters", "30",
			"-interval", "4ms", "-write", "200us", "-log-alpha", "1us",
			"-mtbf", "300ms", "-seed", "3", "-validate"}, c...)
		out := capture(t, args...)
		if !strings.Contains(out, "failures:") || !strings.Contains(out, "validate:  ok") {
			t.Errorf("%v: no validated failures reported:\n%s", c, out)
		}
	}
}
