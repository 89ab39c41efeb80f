package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"checkpointsim/internal/exp"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/workload"
)

// TestMain runs the tests from the repository root, where the benchmark
// itself runs, so relative paths (goldens, BENCHMARK.json) resolve alike.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

// A quoted tail percentile needs at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {39, 50, true},
		{40, 75, true}, {99, 75, true}, {100, 90, true}, {199, 90, true},
		{200, 95, true}, {999, 95, true}, {1000, 99, true}, {9999, 99, true},
		{10000, 99.9, true}, {1 << 20, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && float64(c.n)*(1-got/100) < 10-1e-9 {
			t.Errorf("n=%d: p%v has fewer than ten samples beyond it", c.n, got)
		}
	}
	if s := tailSummary(make([]float64, 100)); !strings.Contains(s, "n=100") || !strings.Contains(s, "p90=") {
		t.Errorf("tailSummary of 100 samples = %q, want the count and p90", s)
	}
}

// Every declared metric has a unique name matching [A-Za-z0-9_.-]+ (at
// most 64 long, starting alphanumeric) and a valid unit, and
// BENCHMARK.json declares exactly the same metrics.
func TestMetricNames(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, e2eMetrics...), layerMetrics...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("bad metric name %q", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: bad unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}

	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json declares %d %s metrics, the benchmark %d", len(got), what, len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("BENCHMARK.json %s metric %d is %s (%s), the benchmark's %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, e2eMetrics)
	same("per_layer", bench.PerLayer, layerMetrics)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, bench.Workloads[i].Name, w.name)
		}
	}
}

func TestLabel(t *testing.T) {
	defs := []metricDef{{"a", "ms"}, {"b", "s"}}
	m, err := label(map[string]float64{"a": 1, "b": 2}, defs)
	if err != nil || m["a"] != (metric{1, "ms"}) || m["b"] != (metric{2, "s"}) {
		t.Errorf("label = %v, %v", m, err)
	}
	if _, err := label(map[string]float64{"a": 1}, defs); err == nil {
		t.Error("a missing metric was accepted")
	}
	if _, err := label(map[string]float64{"a": 1, "b": 2, "c": 3}, defs); err == nil {
		t.Error("an undeclared metric was accepted")
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	parent := span{start: 0, end: 100 * ms}
	kids := []span{
		{start: 10 * ms, end: 30 * ms},
		{start: 20 * ms, end: 40 * ms},  // overlaps the first
		{start: 90 * ms, end: 120 * ms}, // runs past the parent
		{start: 50 * ms, end: -1},       // still open
	}
	if got := selfTime(parent, kids); got != 60*ms {
		t.Errorf("self time = %v, want 60ms", got)
	}
	tr := newTracer()
	root := tr.begin("op", -1)
	tr.end(tr.begin("child", root))
	tr.end(root)
	st := tr.stats()
	if len(st) != 2 || st[0].Name != "op" || st[1].Name != "child" || st[0].SelfMs > st[0].TotalMs {
		t.Errorf("stats = %+v", st)
	}
	var off *tracer
	off.end(off.begin("x", -1)) // a nil tracer records nothing and does not panic
	if off.stats() != nil {
		t.Error("nil tracer has stats")
	}
}

// paper_suite's check rejects a rendering one byte off its golden.
func TestCheckTablesRejectsFlippedGoldenByte(t *testing.T) {
	want, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTables(want, want); err != nil {
		t.Fatalf("goldens rejected against themselves: %v", err)
	}
	got := append([]string(nil), want...)
	b := []byte(got[7])
	b[len(b)/2] ^= 1
	got[7] = string(b)
	if err := checkTables(got, want); err == nil || !strings.Contains(err.Error(), "E8") {
		t.Errorf("flipped byte in E8: err = %v", err)
	}
	if err := checkTables(got[:18], want); err == nil {
		t.Error("a missing experiment was accepted")
	}
}

// campaign_cluster's check rejects a mismatched hit body, a wrong source,
// an error status, and a body differing from the local reference.
func TestCheckPair(t *testing.T) {
	sc := exp.Scenario{Workload: "cg", Ranks: 8, Protocol: "none", FailureLaw: "none", Storage: "none", Noise: "none"}
	body := []byte(`{"exp":"x"}`)
	cold := reply{code: http.StatusOK, source: "computed", body: body}
	hit := reply{code: http.StatusOK, source: "hit", body: append([]byte(nil), body...)}
	if err := checkPair(sc, cold, hit, body); err != nil {
		t.Fatalf("good pair rejected: %v", err)
	}
	bad := hit
	bad.body = []byte(`{"exp":"y"}`)
	if err := checkPair(sc, cold, bad, nil); err == nil {
		t.Error("mismatched hit body accepted")
	}
	if err := checkPair(sc, cold, cold, nil); err == nil {
		t.Error("a second computed reply accepted as a hit")
	}
	failed := cold
	failed.code = http.StatusInternalServerError
	if err := checkPair(sc, failed, hit, nil); err == nil {
		t.Error("error status accepted")
	}
	if err := checkPair(sc, cold, hit, []byte(`{}`)); err == nil {
		t.Error("body differing from the local run accepted")
	}
}

// scale_resume's check passes a real resumed run and rejects a doctored one.
func TestCheckResumeRejectsDoctoredResult(t *testing.T) {
	prog, err := workload.FromName("stencil2d", workload.CommonConfig{
		Base:  workload.Base{Ranks: 16, Iterations: 10, Compute: simtime.Millisecond, Jitter: 0.1, Seed: 3},
		Bytes: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := resumeConfig(prog, 3)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []sim.Snapshot
	cfg.SnapshotEvery = 500
	cfg.OnSnapshot = func(s sim.Snapshot) { snaps = append(snaps, s) }
	eng, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("%d snapshots, want several", len(snaps))
	}
	rcfg, err := resumeConfig(prog, 3)
	if err != nil {
		t.Fatal(err)
	}
	reng, err := sim.New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := reng.Restore(snaps[len(snaps)/2].Blob); err != nil {
		t.Fatal(err)
	}
	rest, err := reng.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, got := full.CanonicalBytes(), rest.CanonicalBytes()
	if err := checkResume(want, got); err != nil {
		t.Fatalf("genuine resume rejected: %v", err)
	}
	got[len(got)/2] ^= 0x10
	if err := checkResume(want, got); err == nil {
		t.Error("doctored resume result accepted")
	}
}

// A campaign_cluster instance sets up, checks its warm-up points against
// local runs, and serves ops whose points continue the schedule.
func TestCampaignClusterOps(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a cluster and runs scenarios")
	}
	inst, err := newCampaignCluster(5)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	cc := inst.(campaignCluster)
	if cc.warm < 2 {
		t.Errorf("set-up used %d points, want several", cc.warm)
	}
	for i := 0; i < 3; i++ {
		s, err := inst.op(i, nil)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if s.dur <= 0 || s.hit <= 0 || s.hit >= s.dur || s.events <= 0 {
			t.Errorf("op %d sample %+v", i, s)
		}
	}
	if n, err := cc.coordCounter("sweepd_coord_failovers_total"); err != nil || n != 0 {
		t.Errorf("failovers = %v, %v", n, err)
	}
}
