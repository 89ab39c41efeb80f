// Command ckptmodel explores the analytic checkpointing models without
// running any simulation: optimal intervals (Young/Daly), expected runtime
// and efficiency at scale, and the coordinated-vs-uncoordinated crossover
// frontier.
//
// Usage:
//
//	ckptmodel -write 60s -mtbf 5y -nodes 1024          # one design point
//	ckptmodel -sweep-nodes 64:1048576 -log-overhead 0.1 # efficiency curve
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"checkpointsim/internal/model"
	"checkpointsim/internal/network"
	"checkpointsim/internal/report"
	"checkpointsim/internal/simtime"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ckptmodel:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	delta, r, theta := 60*simtime.Second, 120*simtime.Second, 5*simtime.Year
	fs := flag.NewFlagSet("ckptmodel", flag.ContinueOnError)
	fs.Var(&delta, "write", "checkpoint write cost δ")
	fs.Var(&r, "restart", "restart cost R")
	fs.Var(&theta, "mtbf", "per-node MTBF θ")
	var (
		nodes      = fs.Int("nodes", 1024, "node count P")
		sweepNodes = fs.String("sweep-nodes", "", `sweep "lo:hi" doubling P instead of a single point`)
		logOv      = fs.Float64("log-overhead", 0.10, "uncoordinated logging slowdown fraction")
		replay     = fs.Float64("replay", 2, "log-replay speedup")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	net := network.DefaultParams()

	point := func(p int) (tauD, tauY, effC, effU float64) {
		m := model.SystemMTBF(theta.Seconds(), p)
		tauD = model.DalyInterval(delta.Seconds(), m)
		tauY = model.YoungInterval(delta.Seconds(), m)
		pr := model.ProtocolProjection{
			Nodes:         p,
			NodeMTBF:      theta.Seconds(),
			Write:         delta.Seconds(),
			Restart:       r.Seconds(),
			CoordDelay:    model.CoordinationDelay(p, net),
			LogOverhead:   *logOv,
			ReplaySpeedup: *replay,
		}
		return tauD, tauY, model.CoordinatedEfficiency(pr), model.UncoordinatedEfficiency(pr)
	}

	if *sweepNodes == "" {
		tauD, tauY, effC, effU := point(*nodes)
		m := model.SystemMTBF(theta.Seconds(), *nodes)
		fmt.Fprintf(out, "P = %d nodes, θ = %v/node → system MTBF %s\n",
			*nodes, theta, simtime.FromSeconds(m))
		fmt.Fprintf(out, "δ = %v, R = %v\n", delta, r)
		fmt.Fprintf(out, "τ_Young = %s, τ_Daly = %s\n",
			simtime.FromSeconds(tauY), simtime.FromSeconds(tauD))
		fmt.Fprintf(out, "efficiency: coordinated %.4f, uncoordinated %.4f (log overhead %.0f%%, replay %.1fx)\n",
			effC, effU, *logOv*100, *replay)
		winner := "coordinated"
		if effU > effC {
			winner = "uncoordinated"
		}
		fmt.Fprintf(out, "model winner: %s\n", winner)
		return nil
	}

	parts := strings.Split(*sweepNodes, ":")
	if len(parts) != 2 {
		return fmt.Errorf(`-sweep-nodes wants "lo:hi"`)
	}
	lo, err1 := strconv.Atoi(parts[0])
	hi, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || lo <= 0 || hi < lo {
		return fmt.Errorf("bad sweep range %q", *sweepNodes)
	}
	t := report.NewTable(
		fmt.Sprintf("efficiency at scale (δ=%v, R=%v, θ=%v, log=%.0f%%)", delta, r, theta, *logOv*100),
		"P", "sys-MTBF", "τ_Daly", "eff-coordinated", "eff-uncoordinated", "winner")
	series := map[string][]report.Point{}
	for p := lo; p <= hi; p *= 2 {
		tauD, _, effC, effU := point(p)
		m := model.SystemMTBF(theta.Seconds(), p)
		winner := "coordinated"
		if effU > effC {
			winner = "uncoordinated"
		}
		t.AddRow(p, simtime.FromSeconds(m).String(), simtime.FromSeconds(tauD).String(),
			effC, effU, winner)
		series["coordinated"] = append(series["coordinated"], report.Point{X: float64(p), Y: effC})
		series["uncoordinated"] = append(series["uncoordinated"], report.Point{X: float64(p), Y: effU})
	}
	t.Fprint(out)
	fmt.Fprintln(out)
	report.Plot(out, "efficiency vs P", 72, 16, series)
	return nil
}
