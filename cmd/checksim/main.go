// Command checksim runs a single checkpointing simulation and prints its
// results.
//
// Usage:
//
//	checksim -workload stencil2d -ranks 64 -iters 100 -compute 1ms \
//	         -bytes 4096 -protocol coordinated -interval 10ms -write 1ms
//
// Failure injection:
//
//	checksim -workload cg -ranks 64 -protocol uncoordinated -offset staggered \
//	         -interval 10ms -write 1ms -log-alpha 1us -log-beta 0.2 \
//	         -mtbf 4s -restart 2ms
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"checkpointsim"
	"checkpointsim/internal/exp"
	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
	"checkpointsim/internal/timeline"
)

// failureCapFactor is the multiple of the critical path at which a run with
// failures and no -max-time stops.
const failureCapFactor = 1000

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "checksim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	ms, us := simtime.Millisecond, simtime.Microsecond
	cfg := checkpointsim.RunConfig{
		Workload: "stencil2d", Ranks: 64, Iterations: 50, Compute: ms, MsgBytes: 4096,
		Protocol: checkpointsim.ProtocolConfig{
			Kind: "none", Interval: 10 * ms, Write: ms, Offset: "staggered",
			ClusterSize: 8, Window: 4 * ms, Slowdown: 1.25, CkptBytes: 1 << 20,
			TwoLevel:      checkpointsim.TwoLevelParams{LocalInterval: 2 * ms, LocalWrite: 100 * us},
			Incremental:   checkpointsim.IncrementalParams{Fraction: 0.25},
			ReplicaDegree: 1, HeartbeatPeriod: ms, TakeoverCost: 500 * us, CICLag: 1,
		},
		Noise:    &checkpointsim.NoiseConfig{Duration: 25 * us},
		Failures: &checkpointsim.FailureConfig{Restart: ms},
		Seed:     42,
	}
	p := &cfg.Protocol
	var (
		traceFile, snapDir, resumeFile, timelineCSV string
		netName                                     = "default"
		list, gantt                                 bool
		bisection                                   float64
		ganttWidth                                  = 100
	)
	fs := flag.NewFlagSet("checksim", flag.ContinueOnError)
	fs.StringVar(&cfg.Workload, "workload", cfg.Workload, "workload name (-list to enumerate)")
	fs.StringVar(&traceFile, "trace", "", "run this GOAL trace file instead of a generated workload (see cmd/tracegen)")
	fs.BoolVar(&list, "list", false, "list workloads and exit")
	fs.IntVar(&cfg.Ranks, "ranks", cfg.Ranks, "number of ranks")
	fs.IntVar(&cfg.Iterations, "iters", cfg.Iterations, "iterations")
	fs.Var(&cfg.Compute, "compute", "mean per-iteration compute")
	fs.Float64Var(&cfg.Jitter, "jitter", 0, "relative compute jitter (stddev fraction)")
	fs.Int64Var(&cfg.MsgBytes, "bytes", cfg.MsgBytes, "dominant message size")
	fs.StringVar((*string)(&p.Kind), "protocol", string(p.Kind), "none|coordinated|uncoordinated|hierarchical|nonblocking|partner|twolevel|replication|cic")
	fs.Var(&p.Interval, "interval", "checkpoint interval")
	fs.Var(&p.Write, "write", "checkpoint write time")
	fs.StringVar(&p.Offset, "offset", p.Offset, "uncoordinated offsets: aligned|staggered|random")
	fs.IntVar(&p.ClusterSize, "cluster", p.ClusterSize, "hierarchical cluster size")
	fs.Var(&p.Window, "window", "nonblocking: background write window")
	fs.Float64Var(&p.Slowdown, "slowdown", p.Slowdown, "nonblocking: interference factor during the window")
	fs.Int64Var(&p.CkptBytes, "ckpt-bytes", p.CkptBytes, "partner: checkpoint image size")
	fs.Var(&p.TwoLevel.LocalInterval, "local-interval", "twolevel: local checkpoint interval")
	fs.Var(&p.TwoLevel.LocalWrite, "local-write", "twolevel: local write time")
	fs.IntVar(&p.ReplicaDegree, "replica-degree", p.ReplicaDegree, "replication: replicas per application rank (machine grows to ranks*(degree+1))")
	fs.Var(&p.HeartbeatPeriod, "hb-period", "replication: heartbeat period (bounds failure-detection latency)")
	fs.Var(&p.TakeoverCost, "takeover", "replication: replica promotion cost after detection")
	fs.IntVar(&p.CICLag, "cic-lag", p.CICLag, "cic: index-lag threshold forcing a checkpoint (1 = Z-path-free)")
	fs.IntVar(&p.Incremental.FullEvery, "incr-every", 0, "uncoordinated: every k-th write is full, others incremental (0 = off)")
	fs.Float64Var(&p.Incremental.Fraction, "incr-fraction", p.Incremental.Fraction, "uncoordinated: incremental write fraction of full")
	fs.Var(&p.Logging.Alpha, "log-alpha", "per-message logging CPU cost")
	fs.Float64Var(&p.Logging.BetaNsPerByte, "log-beta", 0, "per-byte logging cost (ns/B)")
	fs.Var(&cfg.Noise.Period, "noise-period", "noise period (0 = no noise)")
	fs.Var(&cfg.Noise.Duration, "noise-duration", "noise event duration")
	fs.Var(&cfg.Failures.MTBF, "mtbf", "per-node MTBF (0 = no failures)")
	fs.Var(&cfg.Failures.Restart, "restart", "failure restart cost")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	fs.Var((*simtime.Duration)(&cfg.MaxTime), "max-time", fmt.Sprintf("abort after this much virtual time (0 = unlimited, or %d× the critical path with -mtbf)", failureCapFactor))
	fs.StringVar(&netName, "net", netName, "network preset: default|capability|ethernet")
	fs.Float64Var(&bisection, "bisection", 0, "bisection bandwidth in GB/s (0 = unconstrained)")
	cfg.Storage.BindFlags(fs)
	fs.Int64Var(&p.Bytes, "image-bytes", 0, "checkpoint image size drained through the store (0 = derive from -write)")
	fs.BoolVar(&cfg.Validate, "validate", false, "run the simulation under the trace-conformance checker (internal/validate); invariant violations are fatal")
	fs.Int64Var(&cfg.SnapshotEvery, "snapshot-every", 0, "snapshot the complete simulator state after every N events (0 = off; requires -snapshot-dir)")
	fs.StringVar(&snapDir, "snapshot-dir", "", "directory receiving snapshot blobs (snap-<events>.ckpt, written atomically)")
	fs.StringVar(&resumeFile, "resume", "", "resume from this snapshot blob instead of starting from t=0 (config must match the snapshotting run)")
	fs.StringVar(&timelineCSV, "timeline", "", "write a per-job CPU timeline CSV to this file")
	fs.BoolVar(&gantt, "gantt", false, "print an ASCII Gantt chart and utilization summary")
	fs.IntVar(&ganttWidth, "gantt-width", ganttWidth, "Gantt chart width in columns")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if list {
		for _, w := range checkpointsim.Workloads() {
			fmt.Fprintf(out, "%-12s %s\n", w, checkpointsim.DescribeWorkload(w))
		}
		return nil
	}

	var err error
	if cfg.Net, err = network.Preset(netName); err != nil {
		return err
	}
	cfg.Net.BisectionBytesPerSec = bisection * 1e9
	p.TwoLevel.GlobalInterval, p.TwoLevel.GlobalWrite = p.Interval, p.Write
	if cfg.Noise.Period == 0 {
		cfg.Noise = nil
	}
	if cfg.Failures.MTBF == 0 {
		cfg.Failures = nil
	}
	var traceName, traceDigest string
	if traceFile != "" {
		if cfg.Program, traceName, traceDigest, err = exp.LoadTraceFile(traceFile); err != nil {
			return err
		}
	}
	// Failures the machine cannot outrun would simulate forever, so a run
	// with failures and no -max-time stops at a multiple of its
	// contention-free makespan.
	var failureCap simtime.Duration
	if cfg.Failures != nil && cfg.MaxTime == 0 {
		if cfg.Program, err = cfg.BuildProgram(); err != nil {
			return err
		}
		cp, _ := goal.CriticalPath(cfg.Program, cfg.Net)
		failureCap = cp.Scale(failureCapFactor)
		cfg.MaxTime = simtime.Time(failureCap)
	}
	col := timeline.NewCollector()
	if timelineCSV != "" || gantt {
		cfg.Trace = col.Add
	}
	if cfg.Validate && resumeFile != "" {
		return fmt.Errorf("-resume cannot be combined with -validate: the conformance checker needs the trace from t=0, which a resumed run does not replay")
	}
	var snapped int
	var snapErr error
	if cfg.SnapshotEvery > 0 {
		if snapDir == "" {
			return fmt.Errorf("-snapshot-every requires -snapshot-dir")
		}
		if err := os.MkdirAll(snapDir, 0o755); err != nil {
			return err
		}
		cfg.OnSnapshot = func(s checkpointsim.Snapshot) {
			name := filepath.Join(snapDir, fmt.Sprintf("snap-%012d.ckpt", s.Events))
			if werr := snapshot.WriteFile(name, s.Blob); werr != nil && snapErr == nil {
				snapErr = fmt.Errorf("writing snapshot %s: %w", name, werr)
			}
			snapped++
		}
	}
	if resumeFile != "" {
		if cfg.ResumeFrom, err = os.ReadFile(resumeFile); err != nil {
			return err
		}
	}

	res, err := checkpointsim.Run(cfg)
	if errors.Is(err, sim.ErrCapExceeded) && failureCap > 0 {
		return fmt.Errorf("%w: failures without -max-time cap a run at %d× its critical path, %v",
			err, failureCapFactor, failureCap)
	}
	if err != nil {
		return err
	}
	if snapErr != nil {
		return snapErr
	}
	if traceFile != "" {
		fmt.Fprintf(out, "workload:  trace %s@%s on %d ranks, %d ops\n",
			traceName, traceDigest, cfg.Program.NumRanks, len(cfg.Program.Ops))
	} else {
		fmt.Fprintf(out, "workload:  %s on %d ranks, %d iterations\n", cfg.Workload, cfg.Ranks, cfg.Iterations)
	}
	fmt.Fprintf(out, "protocol:  %s\n", res.Protocol.Name())
	fmt.Fprint(out, res.Result)
	if cfg.Validate {
		fmt.Fprintln(out, "validate:  ok — trace conformance verified")
	}
	st := res.Protocol.Stats()
	if st.Writes > 0 {
		fmt.Fprintf(out, "checkpoints: %d writes", st.Writes)
		if st.Forced > 0 {
			fmt.Fprintf(out, " (%d forced)", st.Forced)
		}
		if st.Rounds > 0 {
			fmt.Fprintf(out, ", %d rounds (quiesce %v/round, span %v/round)",
				st.Rounds,
				st.CoordDelay/simtime.Duration(st.Rounds),
				st.RoundSpan/simtime.Duration(st.Rounds))
		}
		fmt.Fprintln(out)
	}
	if st.MirroredMessages > 0 || st.Heartbeats > 0 {
		fmt.Fprintf(out, "replication: %d mirrored messages (%.1f MiB), %d heartbeats, %d takeovers\n",
			st.MirroredMessages, float64(st.MirroredBytes)/(1<<20), st.Heartbeats, st.Takeovers)
	}
	if s := res.Store; s != nil {
		ss := s.Stats()
		fmt.Fprintf(out, "storage:   %s — %d writes, %.1f MiB drained, peak %d writers, wait %v\n",
			s.Params(), ss.Writes, float64(ss.Bytes)/(1<<20), ss.PeakWriters, ss.WaitTime)
	}
	if st.LoggedMessages > 0 {
		fmt.Fprintf(out, "logging:   %d messages, %.1f MiB, %v CPU\n",
			st.LoggedMessages, float64(st.LoggedBytes)/(1<<20), st.LogPenalty)
	}
	if n := len(res.FailureEvents); n > 0 {
		fmt.Fprintf(out, "failures:  %d\n", n)
		for i, ev := range res.FailureEvents {
			if i >= 10 {
				fmt.Fprintf(out, "  ... %d more\n", n-10)
				break
			}
			fmt.Fprintf(out, "  t=%v rank=%d lost=%v recovery=%v\n",
				simtime.Duration(ev.Time), ev.Rank, ev.LostWork, ev.Recovery)
		}
	}
	// Per-rank spread of finish times (synchronization skew), over the
	// application's ranks: replication's spare ranks carry no work.
	fins := res.RankFinish
	if rp, ok := res.Protocol.(interface{ AppRanks() int }); ok {
		fins = fins[:rp.AppRanks()]
	}
	fins = append([]simtime.Time(nil), fins...)
	sort.Slice(fins, func(i, j int) bool { return fins[i] < fins[j] })
	if len(fins) > 1 {
		fmt.Fprintf(out, "finish skew: first %v, last %v (spread %v)\n",
			simtime.Duration(fins[0]), simtime.Duration(fins[len(fins)-1]),
			fins[len(fins)-1].Sub(fins[0]))
	}
	if snapped > 0 {
		fmt.Fprintf(out, "snapshots: %d written to %s\n", snapped, snapDir)
	}
	if resumeFile != "" {
		fmt.Fprintf(out, "resumed:   from %s\n", resumeFile)
	}
	if gantt {
		col.PrintSummary(out, res.Makespan)
		col.Gantt(out, ganttWidth, res.Makespan, 32)
	}
	if timelineCSV != "" {
		f, err := os.Create(timelineCSV)
		if err != nil {
			return err
		}
		n, err := col.WriteCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "timeline:  %d records -> %s\n", n, timelineCSV)
	}
	return nil
}
