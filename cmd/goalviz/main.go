// Command goalviz inspects GOAL programs: statistics, critical-path
// analysis under a network model, Graphviz export, and the textual GOAL
// form — for any built-in workload or a .goal file.
//
// Usage:
//
//	goalviz -workload stencil2d -ranks 16 -iters 2            # stats + critical path
//	goalviz -workload cg -ranks 8 -iters 1 -dot out.dot       # Graphviz
//	goalviz -in program.goal -text                            # parse + canonicalize
//	goalviz -workload sweep -ranks 9 -iters 1 -simulate       # compare CP vs makespan
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "goalviz:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	cfg := workload.CommonConfig{
		Base:  workload.Base{Ranks: 16, Iterations: 2, Compute: simtime.Millisecond, Seed: 42},
		Bytes: 4096,
	}
	fs := flag.NewFlagSet("goalviz", flag.ContinueOnError)
	fs.IntVar(&cfg.Ranks, "ranks", cfg.Ranks, "ranks (for -workload)")
	fs.IntVar(&cfg.Iterations, "iters", cfg.Iterations, "iterations (for -workload)")
	fs.Var(&cfg.Compute, "compute", "per-iteration compute (for -workload)")
	fs.Int64Var(&cfg.Bytes, "bytes", cfg.Bytes, "message size (for -workload)")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "workload seed")
	var (
		workloadName = fs.String("workload", "", "built-in workload to inspect")
		in           = fs.String("in", "", "read a textual GOAL program instead")
		dotPath      = fs.String("dot", "", "write Graphviz to this file")
		text         = fs.Bool("text", false, "print the canonical GOAL text")
		simulate     = fs.Bool("simulate", false, "also simulate and compare against the critical path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var prog *goal.Program
	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		prog, err = goal.Parse(f)
		if err != nil {
			return err
		}
	case *workloadName != "":
		var err error
		prog, err = workload.FromName(*workloadName, cfg)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -workload or -in (workloads: %v)", workload.Names())
	}

	net := network.DefaultParams()
	st := prog.Stats()
	fmt.Fprintln(out, st)
	if err := prog.CheckBalanced(); err != nil {
		fmt.Fprintln(out, "balance:", err)
	} else {
		fmt.Fprintln(out, "balance: ok (every send has a receive)")
	}

	cp, path := goal.CriticalPath(prog, net)
	fmt.Fprintf(out, "critical path: %v over %d ops\n", cp, len(path))
	if len(path) > 0 && len(path) <= 40 {
		for _, id := range path {
			op := prog.Op(id)
			switch op.Kind {
			case goal.KindCalc:
				fmt.Fprintf(out, "  rank %d: calc %v\n", op.Rank, op.Work)
			case goal.KindSend:
				fmt.Fprintf(out, "  rank %d: send %dB to %d\n", op.Rank, op.Bytes, op.Peer)
			case goal.KindRecv:
				fmt.Fprintf(out, "  rank %d: recv %dB from %d\n", op.Rank, op.Bytes, op.Peer)
			}
		}
	}

	if *simulate {
		eng, err := sim.New(sim.Config{Net: net, Program: prog, Seed: cfg.Seed})
		if err != nil {
			return err
		}
		res, err := eng.Run()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "simulated makespan: %v (%.2fx the critical-path bound)\n",
			simtime.Duration(res.Makespan), float64(res.Makespan)/float64(cp))
	}

	if *dotPath != "" {
		f, err := os.Create(*dotPath)
		if err != nil {
			return err
		}
		if err := goal.WriteDOT(f, prog); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintln(out, "wrote", *dotPath)
	}
	if *text {
		fmt.Fprint(out, goal.WriteString(prog))
	}
	return nil
}
