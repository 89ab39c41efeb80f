// Command tracegen emits GOAL programs (the textual dialect of
// internal/goal, LogGOPSim-compatible) for the communication skeletons of
// the production applications the source study replayed: halo-exchange
// stencils, wavefront sweeps, allreduce-dominated solvers, transposes, and
// the rest of the internal/workload suite, at parameterized scales.
//
// The emitted traces feed the trace-ingest path: cmd/checksim -trace runs
// one through a chosen protocol stack. The committed corpus is also swept
// through the protocol suite by exp.TraceExperiment, which only its
// corpus-golden test runs; no command offers that sweep. Equal flags always
// emit byte-identical traces (workload generators are seeded), so traces
// are safe to regenerate instead of archive.
//
// Usage:
//
//	tracegen -workload sweep -ranks 64 -iters 20 -compute 1ms -bytes 4096 -o trace.goal
//	tracegen -corpus internal/exp/testdata/traces   # regenerate the committed corpus
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"checkpointsim/internal/goal"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/workload"
)

// corpusSpecs is the committed trace corpus under
// internal/exp/testdata/traces: one small instance of each of the paper's
// four skeleton families (halo exchange, wavefront sweep,
// allreduce-dominated, transpose), sized so a validated simulation finishes
// in milliseconds. The golden tests pin the results of exactly these files;
// `tracegen -corpus` must regenerate them byte-for-byte.
var corpusSpecs = []struct {
	name     string
	workload string
	cfg      workload.CommonConfig
}{
	{"stencil2d_p16", "stencil2d", workload.CommonConfig{
		Base:  workload.Base{Ranks: 16, Iterations: 6, Compute: 500 * simtime.Microsecond, Jitter: 0.1, Seed: 42},
		Bytes: 4096}},
	{"sweep_p16", "sweep", workload.CommonConfig{
		Base:  workload.Base{Ranks: 16, Iterations: 4, Compute: 300 * simtime.Microsecond, Seed: 42},
		Bytes: 2048}},
	{"cg_p16", "cg", workload.CommonConfig{
		Base:  workload.Base{Ranks: 16, Iterations: 6, Compute: 400 * simtime.Microsecond, Seed: 42},
		Bytes: 1024}},
	{"transpose_p8", "transpose", workload.CommonConfig{
		Base:  workload.Base{Ranks: 8, Iterations: 5, Compute: 500 * simtime.Microsecond, Jitter: 0.05, Seed: 42},
		Bytes: 8192}},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	cfg := workload.CommonConfig{
		Base:  workload.Base{Ranks: 16, Iterations: 10, Compute: 500 * simtime.Microsecond, Seed: 42},
		Bytes: 4096,
	}
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.IntVar(&cfg.Ranks, "ranks", cfg.Ranks, "number of ranks")
	fs.IntVar(&cfg.Iterations, "iters", cfg.Iterations, "iterations")
	fs.Var(&cfg.Compute, "compute", "mean per-iteration compute")
	fs.Float64Var(&cfg.Jitter, "jitter", cfg.Jitter, "relative compute jitter (stddev fraction)")
	fs.Int64Var(&cfg.Bytes, "bytes", cfg.Bytes, "dominant message size")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "seed for jittered/randomized skeletons")
	var (
		name   = fs.String("workload", "stencil2d", "workload skeleton (-list to enumerate)")
		list   = fs.Bool("list", false, "list workloads and exit")
		output = fs.String("o", "", "output file (default stdout)")
		corpus = fs.String("corpus", "", "write the standard trace corpus into this directory and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, w := range workload.Names() {
			fmt.Fprintf(out, "%-12s %s\n", w, workload.Describe(w))
		}
		return nil
	}
	if *corpus != "" {
		return writeCorpus(*corpus, out)
	}
	text, err := generate(*name, cfg)
	if err != nil {
		return err
	}
	if *output == "" {
		_, err := io.WriteString(out, text)
		return err
	}
	return os.WriteFile(*output, []byte(text), 0o644)
}

// generate builds the named workload and serializes it with a provenance
// header. The header records the exact regeneration command so a committed
// trace is never a mystery artifact.
func generate(name string, cfg workload.CommonConfig) (string, error) {
	prog, err := workload.FromName(name, cfg)
	if err != nil {
		return "", err
	}
	header := fmt.Sprintf(
		"# tracegen -workload %s -ranks %d -iters %d -compute %v -jitter %g -bytes %d -seed %d\n# %v\n",
		name, cfg.Ranks, cfg.Iterations, cfg.Compute, cfg.Jitter, cfg.Bytes, cfg.Seed, prog.Stats())
	return header + goal.WriteString(prog), nil
}

// writeCorpus regenerates the committed trace corpus into dir.
func writeCorpus(dir string, out io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, s := range corpusSpecs {
		text, err := generate(s.workload, s.cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		path := filepath.Join(dir, s.name+".goal")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d bytes)\n", path, len(text))
	}
	return nil
}
