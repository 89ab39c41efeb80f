// Command sweep regenerates the reproduction experiments (E1–E19, see
// DESIGN.md §4) and prints their tables.
//
// Usage:
//
//	sweep -exp all            # every experiment, full scale
//	sweep -exp E4 -quick      # one experiment, reduced sweep
//	sweep -exp E2,E9 -csv dir # also write CSV files into dir
//	sweep -exp all -j 4       # cap the worker pool at 4 cores
//
// Each experiment fans its sweep points across -j workers (default: all
// cores). Tables are bit-for-bit identical for every -j value, -j 1
// included: every point derives its RNG stream from the sweep seed and its
// own index, never from scheduling. Pass -timings=false to suppress the
// wall-clock lines when diffing runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"checkpointsim/internal/exp"
	"checkpointsim/internal/network"
	"checkpointsim/internal/storage"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		which    = fs.String("exp", "all", `experiment ids, comma separated, or "all"`)
		quick    = fs.Bool("quick", false, "reduced sweeps (bench/CI scale)")
		seed     = fs.Uint64("seed", 42, "random seed")
		jobs     = fs.Int("j", runtime.NumCPU(), "worker pool size per experiment (1 = serial)")
		csvDir   = fs.String("csv", "", "also write each table as CSV into this directory")
		netPre   = fs.String("net", "default", "network preset: default|capability|ethernet")
		timings  = fs.Bool("timings", true, "print per-experiment wall-clock lines")
		validate = fs.Bool("validate", false, "run every simulation under the trace-conformance checker (internal/validate); any invariant violation aborts the sweep")
		list     = fs.Bool("list", false, "list experiments (id, title, bench, description) and exit")

		storeAgg     = fs.Float64("store-agg", 0, "aggregate PFS bandwidth in GB/s (0 = unconstrained)")
		storeWriter  = fs.Float64("store-writer", 0, "per-writer PFS bandwidth cap in GB/s (0 = uncapped)")
		storeNode    = fs.Float64("store-node", 0, "node-local burst-buffer bandwidth in GB/s (0 = unconstrained)")
		ranksPerNode = fs.Int("ranks-per-node", 0, "ranks per node for the node storage tier (0 = 1)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range exp.All() {
			fmt.Fprintf(out, "%-4s %-28s %-26s %s\n", e.ID, e.Title, e.Bench, e.Desc)
		}
		return nil
	}
	if *jobs < 1 {
		return fmt.Errorf("-j must be >= 1, have %d", *jobs)
	}

	o := exp.DefaultOptions()
	o.Quick = *quick
	o.Seed = *seed
	o.Jobs = *jobs
	o.Validate = *validate
	o.Storage = storage.Params{
		AggregateBytesPerSec: *storeAgg * 1e9,
		PerWriterBytesPerSec: *storeWriter * 1e9,
		NodeBytesPerSec:      *storeNode * 1e9,
		RanksPerNode:         *ranksPerNode,
	}
	if err := o.Storage.Validate(); err != nil {
		return err
	}
	var err error
	if o.Net, err = network.Preset(*netPre); err != nil {
		return err
	}

	var selected []exp.Experiment
	if *which == "all" {
		selected = exp.All()
	} else {
		for _, id := range strings.Split(*which, ",") {
			e, ok := exp.ByID(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q", id)
			}
			selected = append(selected, e)
		}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "network: %s\n", o.Net)
	if o.Storage != (storage.Params{}) {
		fmt.Fprintf(out, "storage: %s\n", o.Storage)
	}
	mode := "full"
	if o.Quick {
		mode = "quick"
	}
	if o.Validate {
		mode += ", validated"
	}
	fmt.Fprintf(out, "mode: %s, seed: %d\n\n", mode, o.Seed)

	for _, e := range selected {
		start := time.Now()
		fmt.Fprintf(out, "### %s — %s\n", e.ID, e.Title)
		tables, err := e.Run(o)
		if err != nil {
			return err
		}
		for ti, t := range tables {
			t.Fprint(out)
			fmt.Fprintln(out)
			if *csvDir != "" {
				name := fmt.Sprintf("%s_%d.csv", strings.ToLower(e.ID), ti)
				f, err := os.Create(filepath.Join(*csvDir, name))
				if err != nil {
					return err
				}
				if err := t.WriteCSV(f); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
			}
		}
		if *timings {
			fmt.Fprintf(out, "(%s took %.1fs)\n\n", e.ID, time.Since(start).Seconds())
		} else {
			fmt.Fprintln(out)
		}
	}
	return nil
}
