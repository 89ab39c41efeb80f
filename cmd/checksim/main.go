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
//	         -mtbf 4s -restart 2ms -recovery local
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"checkpointsim"
	"checkpointsim/internal/exp"
	"checkpointsim/internal/failure"
	"checkpointsim/internal/network"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
	"checkpointsim/internal/timeline"
	"checkpointsim/internal/validate"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "checksim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("checksim", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "stencil2d", "workload name (-list to enumerate)")
		traceFile    = fs.String("trace", "", "run this GOAL trace file instead of a generated workload (see cmd/tracegen)")
		list         = fs.Bool("list", false, "list workloads and exit")
		ranks        = fs.Int("ranks", 64, "number of ranks")
		iters        = fs.Int("iters", 50, "iterations")
		compute      = fs.String("compute", "1ms", "mean per-iteration compute")
		jitter       = fs.Float64("jitter", 0, "relative compute jitter (stddev fraction)")
		bytes        = fs.Int64("bytes", 4096, "dominant message size")
		protocol     = fs.String("protocol", "none", "none|coordinated|uncoordinated|hierarchical|nonblocking|partner|twolevel|replication|cic")
		interval     = fs.String("interval", "10ms", "checkpoint interval")
		write        = fs.String("write", "1ms", "checkpoint write time")
		offset       = fs.String("offset", "staggered", "uncoordinated offsets: aligned|staggered|random")
		cluster      = fs.Int("cluster", 8, "hierarchical cluster size")
		window       = fs.String("window", "4ms", "nonblocking: background write window")
		slowdown     = fs.Float64("slowdown", 1.25, "nonblocking: interference factor during the window")
		ckptBytes    = fs.Int64("ckpt-bytes", 1<<20, "partner: checkpoint image size")
		localIv      = fs.String("local-interval", "2ms", "twolevel: local checkpoint interval")
		localWr      = fs.String("local-write", "100us", "twolevel: local write time")
		degree       = fs.Int("replica-degree", 1, "replication: replicas per application rank (machine grows to ranks*(degree+1))")
		hbPeriod     = fs.String("hb-period", "1ms", "replication: heartbeat period (bounds failure-detection latency)")
		takeover     = fs.String("takeover", "500us", "replication: replica promotion cost after detection")
		cicLag       = fs.Int("cic-lag", 1, "cic: index-lag threshold forcing a checkpoint (1 = Z-path-free)")
		incrEvery    = fs.Int("incr-every", 0, "uncoordinated: every k-th write is full, others incremental (0 = off)")
		incrFrac     = fs.Float64("incr-fraction", 0.25, "uncoordinated: incremental write fraction of full")
		logAlpha     = fs.String("log-alpha", "0", "per-message logging CPU cost")
		logBeta      = fs.Float64("log-beta", 0, "per-byte logging cost (ns/B)")
		noisePeriod  = fs.String("noise-period", "", "noise period (empty = no noise)")
		noiseDur     = fs.String("noise-duration", "25us", "noise event duration")
		mtbf         = fs.String("mtbf", "", "per-node MTBF (empty = no failures)")
		restart      = fs.String("restart", "1ms", "failure restart cost")
		recovery     = fs.String("recovery", "global", "failure recovery: global|local|takeover")
		seed         = fs.Uint64("seed", 42, "random seed")
		maxTime      = fs.String("max-time", "0", "abort after this much virtual time (0 = unlimited)")
		netPreset    = fs.String("net", "default", "network preset: default|capability|ethernet")
		bisection    = fs.Float64("bisection", 0, "bisection bandwidth in GB/s (0 = unconstrained)")
		storeAgg     = fs.Float64("store-agg", 0, "aggregate PFS bandwidth in GB/s (0 = unconstrained)")
		storeWriter  = fs.Float64("store-writer", 0, "per-writer PFS bandwidth cap in GB/s (0 = uncapped)")
		storeNode    = fs.Float64("store-node", 0, "node-local burst-buffer bandwidth in GB/s (0 = unconstrained)")
		ranksPerNode = fs.Int("ranks-per-node", 0, "ranks per node for the node storage tier (0 = 1)")
		imageBytes   = fs.Int64("image-bytes", 0, "checkpoint image size drained through the store (0 = derive from -write)")
		validateRun  = fs.Bool("validate", false, "run the simulation under the trace-conformance checker (internal/validate); invariant violations are fatal")
		snapEvery    = fs.Int64("snapshot-every", 0, "snapshot the complete simulator state after every N events (0 = off; requires -snapshot-dir)")
		snapDir      = fs.String("snapshot-dir", "", "directory receiving snapshot blobs (snap-<events>.ckpt, written atomically)")
		resumeFile   = fs.String("resume", "", "resume from this snapshot blob instead of starting from t=0 (config must match the snapshotting run)")
		timelineCSV  = fs.String("timeline", "", "write a per-job CPU timeline CSV to this file")
		gantt        = fs.Bool("gantt", false, "print an ASCII Gantt chart and utilization summary")
		ganttWidth   = fs.Int("gantt-width", 100, "Gantt chart width in columns")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, w := range checkpointsim.Workloads() {
			fmt.Fprintf(out, "%-12s %s\n", w, checkpointsim.DescribeWorkload(w))
		}
		return nil
	}

	parse := func(s string) (simtime.Duration, error) { return simtime.ParseDuration(s) }
	comp, err := parse(*compute)
	if err != nil {
		return err
	}
	iv, err := parse(*interval)
	if err != nil {
		return err
	}
	wr, err := parse(*write)
	if err != nil {
		return err
	}
	la, err := parse(*logAlpha)
	if err != nil {
		return err
	}
	mt, err := parse(*maxTime)
	if err != nil {
		return err
	}
	win, err := parse(*window)
	if err != nil {
		return err
	}
	liv, err := parse(*localIv)
	if err != nil {
		return err
	}
	lwr, err := parse(*localWr)
	if err != nil {
		return err
	}
	hb, err := parse(*hbPeriod)
	if err != nil {
		return err
	}
	tk, err := parse(*takeover)
	if err != nil {
		return err
	}

	netParams, err := network.Preset(*netPreset)
	if err != nil {
		return err
	}
	if *bisection < 0 {
		return fmt.Errorf("negative bisection bandwidth")
	}
	netParams.BisectionBytesPerSec = *bisection * 1e9
	if *storeAgg < 0 || *storeWriter < 0 || *storeNode < 0 {
		return fmt.Errorf("negative storage bandwidth")
	}

	cfg := checkpointsim.RunConfig{
		Workload: *workloadName,
		Net:      netParams,
		Storage: checkpointsim.StorageParams{
			AggregateBytesPerSec: *storeAgg * 1e9,
			PerWriterBytesPerSec: *storeWriter * 1e9,
			NodeBytesPerSec:      *storeNode * 1e9,
			RanksPerNode:         *ranksPerNode,
		},
		Ranks:      *ranks,
		Iterations: *iters,
		Compute:    comp,
		Jitter:     *jitter,
		MsgBytes:   *bytes,
		Protocol: checkpointsim.ProtocolConfig{
			Kind:        checkpointsim.ProtoKind(*protocol),
			Interval:    iv,
			Write:       wr,
			Offset:      *offset,
			Logging:     checkpointsim.LogParams{Alpha: la, BetaNsPerByte: *logBeta},
			ClusterSize: *cluster,
			Window:      win,
			Slowdown:    *slowdown,
			CkptBytes:   *ckptBytes,
			Bytes:       *imageBytes,
			TwoLevel: checkpointsim.TwoLevelParams{
				LocalInterval:  liv,
				LocalWrite:     lwr,
				GlobalInterval: iv,
				GlobalWrite:    wr,
			},
			Incremental: checkpointsim.IncrementalParams{
				FullEvery: *incrEvery,
				Fraction:  *incrFrac,
			},
			ReplicaDegree:   *degree,
			HeartbeatPeriod: hb,
			TakeoverCost:    tk,
			CICLag:          *cicLag,
		},
		Seed:    *seed,
		MaxTime: simtime.Time(mt),
	}
	var traceName, traceDigest string
	if *traceFile != "" {
		prog, name, digest, err := exp.LoadTraceFile(*traceFile)
		if err != nil {
			return err
		}
		cfg.Program = prog
		traceName, traceDigest = name, digest
	}
	var timelineRows [][]string
	col := timeline.NewCollector()
	if *timelineCSV != "" || *gantt {
		cfg.Trace = func(ev checkpointsim.TraceEvent) {
			col.Add(ev)
			if *timelineCSV != "" && ev.Type == checkpointsim.TraceCPU {
				timelineRows = append(timelineRows, []string{
					strconv.Itoa(ev.Rank), ev.Kind,
					strconv.FormatInt(int64(ev.Start), 10),
					strconv.FormatInt(int64(ev.End), 10),
				})
			}
		}
	}
	var chk *validate.Checker
	if *validateRun {
		if *resumeFile != "" {
			return fmt.Errorf("-resume cannot be combined with -validate: the conformance checker needs the trace from t=0, which a resumed run does not replay")
		}
		chk = validate.New(netParams)
		cfg.Trace = chk.Hook(cfg.Trace)
	}
	var snapped int
	var snapErr error
	if *snapEvery > 0 {
		if *snapDir == "" {
			return fmt.Errorf("-snapshot-every requires -snapshot-dir")
		}
		if err := os.MkdirAll(*snapDir, 0o755); err != nil {
			return err
		}
		cfg.SnapshotEvery = *snapEvery
		cfg.OnSnapshot = func(s checkpointsim.Snapshot) {
			name := filepath.Join(*snapDir, fmt.Sprintf("snap-%012d.ckpt", s.Events))
			if werr := snapshot.WriteFile(name, s.Blob); werr != nil && snapErr == nil {
				snapErr = fmt.Errorf("writing snapshot %s: %w", name, werr)
			}
			snapped++
		}
	}
	if *resumeFile != "" {
		blob, rerr := os.ReadFile(*resumeFile)
		if rerr != nil {
			return rerr
		}
		cfg.ResumeFrom = blob
	}
	if *noisePeriod != "" {
		np, err := parse(*noisePeriod)
		if err != nil {
			return err
		}
		nd, err := parse(*noiseDur)
		if err != nil {
			return err
		}
		cfg.Noise = &checkpointsim.NoiseConfig{Period: np, Duration: nd}
	}
	if *mtbf != "" {
		m, err := parse(*mtbf)
		if err != nil {
			return err
		}
		rs, err := parse(*restart)
		if err != nil {
			return err
		}
		kind := failure.RollbackGlobal
		switch *recovery {
		case "global":
		case "local":
			kind = failure.ReplayLocal
		case "takeover":
			kind = failure.TakeoverReplica
		default:
			return fmt.Errorf("unknown recovery %q", *recovery)
		}
		cfg.Failures = &checkpointsim.FailureConfig{MTBF: m, Restart: rs, Kind: kind}
	}

	res, err := checkpointsim.Run(cfg)
	if err != nil {
		return err
	}
	if snapErr != nil {
		return snapErr
	}
	if chk != nil {
		if verr := chk.FinishRun(res.Result, res.Store, res.Protocol); verr != nil {
			return verr
		}
	}
	if cfg.Program != nil {
		fmt.Fprintf(out, "workload:  trace %s@%s on %d ranks, %d ops\n",
			traceName, traceDigest, cfg.Program.NumRanks, len(cfg.Program.Ops))
	} else {
		fmt.Fprintf(out, "workload:  %s on %d ranks, %d iterations\n", *workloadName, *ranks, *iters)
	}
	fmt.Fprintf(out, "protocol:  %s\n", res.Protocol.Name())
	fmt.Fprint(out, res.Result)
	if chk != nil {
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
	// Per-rank spread of finish times (synchronization skew).
	fins := append([]simtime.Time(nil), res.RankFinish...)
	sort.Slice(fins, func(i, j int) bool { return fins[i] < fins[j] })
	if len(fins) > 1 {
		fmt.Fprintf(out, "finish skew: first %v, last %v (spread %v)\n",
			simtime.Duration(fins[0]), simtime.Duration(fins[len(fins)-1]),
			fins[len(fins)-1].Sub(fins[0]))
	}
	if snapped > 0 {
		fmt.Fprintf(out, "snapshots: %d written to %s\n", snapped, *snapDir)
	}
	if *resumeFile != "" {
		fmt.Fprintf(out, "resumed:   from %s\n", *resumeFile)
	}
	if *gantt {
		col.PrintSummary(out, res.Makespan)
		col.Gantt(out, *ganttWidth, res.Makespan, 32)
	}
	if *timelineCSV != "" {
		f, err := os.Create(*timelineCSV)
		if err != nil {
			return err
		}
		cw := csv.NewWriter(f)
		if err := cw.Write([]string{"rank", "kind", "start_ns", "end_ns"}); err != nil {
			f.Close()
			return err
		}
		if err := cw.WriteAll(timelineRows); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "timeline:  %d records -> %s\n", len(timelineRows), *timelineCSV)
	}
	return nil
}
