// Command perfbench is checkpointsim's end-to-end benchmark. It runs one
// workload for a fixed time with a single closed-loop caller and prints,
// as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set (e2eMetrics); with
// --trace 1 they are the per-layer set (layerMetrics), measured by timing
// calls into each package's public functions from this package. README.md
// says why each workload exists and which metrics a change to each layer
// should move.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload paper_suite --seed 1 --seconds 20 --trace 0
//
// The full report — environment, sample counts, tail percentiles, span
// self-times — goes to .bench_build/results/.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

// reportDir receives one JSON report per run, relative to the working
// directory (the checkout root).
const reportDir = ".bench_build/results"

// instance is one set-up of a workload: servers, reference results, and
// whatever else its ops need, prepared by the workload's constructor.
type instance interface {
	// op runs operation i (0, 1, ...; distinct i never repeat inputs),
	// timing only the work a user waits for, then checks the output. An
	// error marks the op failed.
	op(i int, tr *tracer) (sample, error)
	close()
}

// sample is what one op measured.
type sample struct {
	dur    time.Duration // the timed part of the op
	events int64         // simulation events the op executed
	hit    time.Duration // campaign_cluster: the cache-hit request alone
}

// workloadDef names a set of inputs and how to set them up. setup is
// deterministic work only (no sleeps or polls) and ends with an untimed
// warm-up op, checked like any other.
type workloadDef struct {
	name      string
	setupReps int // set-ups per run; setup_s is their median
	setup     func(seed uint64) (instance, error)
}

var workloads = []workloadDef{
	{name: "paper_suite", setupReps: 3, setup: newPaperSuite},
	{name: "campaign_cluster", setupReps: 5, setup: newCampaignCluster},
	{name: "scale_resume", setupReps: 3, setup: newScaleResume},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env records where a result was measured.
type env struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
}

// record is the full report of a run, written to reportDir.
type record struct {
	Env     env               `json:"env"`
	Result  result            `json:"result"`
	Samples map[string]int    `json:"samples"`
	SetupS  []float64         `json:"setup_s,omitempty"`
	Tails   map[string]string `json:"tails,omitempty"`
	Spans   []spanStat        `json:"spans,omitempty"`
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper_suite, campaign_cluster or scale_resume")
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	e := env{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPU: cpuModel(), Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%g trace=%d on %s, GOMAXPROCS=%d, nproc=%d, cpu=%q\n",
		e.Workload, e.Seed, e.Seconds, e.Trace, e.Go, e.GOMAXPROCS, e.NumCPU, e.CPU)

	budget := time.Duration(*seconds * float64(time.Second))
	var rep *record
	var err error
	if *trace == 0 {
		rep, err = measureEndToEnd(*w, *seed, budget)
	} else {
		rep, err = measureLayers(*w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.Env = e
	if err := writeReport(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing report:", err)
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// loop is what a run of consecutive ops measured.
type loop struct {
	durs      []float64 // ms, passed ops only
	hits      []float64 // ms, passed ops only (campaign_cluster)
	events    int64
	busy      time.Duration // sum of the timed parts of passed ops
	attempted int
	failed    int
	rss       []float64 // MB, peak RSS during each passed op
	mallocs   uint64    // heap allocations over the whole run (set on the untraced side)
}

// runOps runs ops until budget has elapsed (at least one op each side).
// Before each op, outside its timed part, the heap is collected and its
// free pages are returned to the OS, so one op's garbage is not charged to
// the next and each op's peak RSS is its own. With a tracer, every other
// op is traced and measured into the second loop, so both sides draw from
// the same stretch of inputs.
func runOps(inst instance, budget time.Duration, tr *tracer) (plain, traced loop) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	deadline := time.Now().Add(budget)
	for i := 0; i == 0 || (tr != nil && i == 1) || time.Now().Before(deadline); i++ {
		l, t := &plain, (*tracer)(nil)
		if tr != nil && i%2 == 1 {
			l, t = &traced, tr
		}
		debug.FreeOSMemory()
		resetPeakRSS()
		s, err := inst.op(i, t)
		rss, rssErr := peakRSSMB()
		l.attempted++
		if err == nil {
			err = rssErr
		}
		if err != nil {
			l.failed++
			if plain.failed+traced.failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", i, err)
			}
			continue
		}
		l.durs = append(l.durs, ms(s.dur))
		if s.hit > 0 {
			l.hits = append(l.hits, ms(s.hit))
		}
		l.events += s.events
		l.busy += s.dur
		l.rss = append(l.rss, rss)
	}
	runtime.ReadMemStats(&m1)
	plain.mallocs = m1.Mallocs - m0.Mallocs
	return plain, traced
}

// opsPerSec is passed ops per second of their timed parts.
func (l loop) opsPerSec() float64 { return float64(len(l.durs)) / l.busy.Seconds() }

// measureEndToEnd is the untraced run: set up setupReps times (keeping the
// last instance), then run ops for the budget.
func measureEndToEnd(w workloadDef, seed uint64, budget time.Duration) (*record, error) {
	var setups []float64
	var inst instance
	for r := 0; r < w.setupReps; r++ {
		if inst != nil {
			inst.close()
		}
		debug.FreeOSMemory()
		t0 := time.Now()
		in, err := w.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		inst = in
	}
	l, _ := runOps(inst, budget, nil)
	inst.close()
	if len(l.durs) == 0 {
		return nil, fmt.Errorf("all %d ops failed", l.attempted)
	}
	m, err := label(map[string]float64{
		"setup_s":          median(setups),
		"ops_per_s":        l.opsPerSec(),
		"op_p50_ms":        median(l.durs),
		"events_per_s":     float64(l.events) / l.busy.Seconds(),
		"allocs_per_event": float64(l.mallocs) / float64(l.events),
		"peak_rss_mb":      slices.Max(l.rss),
	}, e2eMetrics)
	if err != nil {
		return nil, err
	}
	rep := &record{
		Result:  result{Correct: l.failed == 0, Attempted: l.attempted, Failed: l.failed, Metrics: m},
		Samples: map[string]int{"setup": len(setups), "ops": len(l.durs)},
		SetupS:  setups,
		Tails:   map[string]string{"op": tailSummary(l.durs)},
	}
	if len(l.hits) > 0 {
		rep.Samples["hits"] = len(l.hits)
		rep.Tails["hit"] = tailSummary(l.hits)
	}
	return rep, nil
}

// tailSummary renders the median and the highest supported tail
// percentile of xs (ms) with the sample count.
func tailSummary(xs []float64) string {
	s := fmt.Sprintf("n=%d p50=%.4gms", len(xs), median(xs))
	if p, ok := tailPercentile(len(xs)); ok && p > 50 {
		s += fmt.Sprintf(" p%g=%.4gms", p, percentile(xs, p))
	}
	return s
}

// resetPeakRSS resets the process's peak resident set to its current
// size, so the next peakRSSMB covers only what runs in between. Where
// the kernel refuses, VmHWM stays the peak since the process started.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeReport(rep *record) error {
	if err := os.MkdirAll(reportDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rep.Env.Workload, rep.Env.Seed, rep.Env.Trace)
	return os.WriteFile(filepath.Join(reportDir, name), append(data, '\n'), 0o644)
}
