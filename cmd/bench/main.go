// Command bench is the benchmark-regression harness: it runs the
// experiment suite (E1–E19) under testing.Benchmark, emits a BENCH.json
// snapshot (ns/op, allocs/op, bytes/op, events/sec per experiment), and —
// given a previous snapshot via -compare — fails when any experiment
// regressed beyond the tolerance. CI runs a quick subset on every push and
// gates on the committed baseline; see README.md for the schema.
//
// Usage:
//
//	go run ./cmd/bench                          # all experiments, quick mode
//	go run ./cmd/bench -exp E8,E17 -o new.json  # subset, custom output
//	go run ./cmd/bench -compare BENCH.json -tolerance 25%
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"checkpointsim/internal/exp"
)

func main() {
	var (
		expFlag   = flag.String("exp", "all", "comma-separated experiment IDs (e.g. E8,E17) or 'all'")
		quick     = flag.Bool("quick", true, "quick mode (reduced sweeps; matches the golden tests)")
		jobs      = flag.Int("jobs", 0, "sweep worker count per experiment (0 = all cores)")
		out       = flag.String("o", "BENCH.json", "output file ('-' = stdout only)")
		compare   = flag.String("compare", "", "previous BENCH.json to diff against; regressions fail the run")
		tolerance = flag.String("tolerance", "10%", "allowed slowdown before -compare fails (e.g. 10% or 0.1)")
		reps      = flag.Int("reps", 3, "benchmark repetitions per experiment; the fastest is kept")
		history   = flag.String("history", "", "also write the snapshot to this path (e.g. results/BENCH_pr9.json)")
	)
	flag.Parse()

	tol, err := ParseTolerance(*tolerance)
	if err != nil {
		fatal(err)
	}

	ids, err := resolveIDs(*expFlag)
	if err != nil {
		fatal(err)
	}

	cur := File{Schema: Schema, Go: runtime.Version(), Mode: modeName(*quick)}
	for _, id := range ids {
		e, _ := exp.ByID(id)
		fmt.Fprintf(os.Stderr, "bench %-4s %s ... ", id, e.Title)
		entry := runBench(e, *quick, *jobs, *reps)
		fmt.Fprintf(os.Stderr, "%.1fms/op  %d allocs/op  %.2gM events/s\n",
			entry.NsPerOp/1e6, entry.AllocsPerOp, entry.EventsPerSec/1e6)
		cur.Entries = append(cur.Entries, entry)
	}

	if err := writeFile(*out, cur); err != nil {
		fatal(err)
	}
	if *history != "" {
		if err := writeFile(*history, cur); err != nil {
			fatal(err)
		}
	}

	if *compare != "" {
		old, err := readFile(*compare)
		if err != nil {
			fatal(err)
		}
		regs := Compare(old, cur, tol)
		report := FormatComparison(old, cur, regs, tol)
		fmt.Print(report)
		if len(regs) > 0 {
			os.Exit(1)
		}
	}
}

// resolveIDs expands the -exp flag into validated experiment IDs.
func resolveIDs(spec string) ([]string, error) {
	if spec == "all" {
		var ids []string
		for _, e := range exp.All() {
			ids = append(ids, e.ID)
		}
		return ids, nil
	}
	var ids []string
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if _, ok := exp.ByID(id); !ok {
			return nil, fmt.Errorf("unknown experiment %q (try -exp all)", id)
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("no experiments selected")
	}
	return ids, nil
}

// runBench measures one experiment with the standard benchmark machinery:
// testing.Benchmark picks the iteration count, and the events counter wired
// through exp.Options turns the wall-clock into a throughput figure. The
// measurement repeats reps times and the fastest round wins: the workload
// is deterministic, so run-to-run spread is scheduler and cache noise, and
// the minimum is the best estimate of the code's actual cost — exactly what
// a regression gate should compare.
func runBench(e exp.Experiment, quick bool, jobs, reps int) Entry {
	var events int64
	o := exp.DefaultOptions()
	o.Quick = quick
	o.Jobs = jobs
	o.Events = &events
	if reps < 1 {
		reps = 1
	}
	var best Entry
	for rep := 0; rep < reps; rep++ {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			// testing.Benchmark calls the closure repeatedly with growing b.N;
			// only the last call is the timed round, so restart the counter each
			// time and the final value covers exactly the measured iterations.
			atomic.StoreInt64(&events, 0)
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(o); err != nil {
					b.Fatal(err)
				}
			}
		})
		entry := Entry{
			Name:        e.ID,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if secs := r.T.Seconds(); secs > 0 {
			entry.EventsPerSec = float64(atomic.LoadInt64(&events)) / secs
		}
		if rep == 0 || entry.NsPerOp < best.NsPerOp {
			best = entry
		}
	}
	return best
}

func modeName(quick bool) string {
	if quick {
		return "quick"
	}
	return "full"
}

func writeFile(path string, f File) error {
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

func readFile(path string) (File, error) {
	var f File
	buf, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(buf, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != Schema {
		return f, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, Schema)
	}
	return f, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
