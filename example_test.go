package checkpointsim_test

import (
	"fmt"
	"log"
	"os"

	"checkpointsim"
	"checkpointsim/internal/model"
	"checkpointsim/internal/timeline"
)

// Quickstart: simulate a 64-rank halo-exchange application with coordinated
// checkpointing and print what the checkpoints cost.
func Example_quickstart() {
	// Baseline: the same application without checkpointing.
	base, err := checkpointsim.Run(checkpointsim.RunConfig{
		Workload:   "stencil2d",
		Ranks:      64,
		Iterations: 100,
		Compute:    checkpointsim.Millisecond,
		MsgBytes:   4096,
		Seed:       1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The same run, checkpointing every 10ms with a 1ms write.
	ckpt, err := checkpointsim.Run(checkpointsim.RunConfig{
		Workload:   "stencil2d",
		Ranks:      64,
		Iterations: 100,
		Compute:    checkpointsim.Millisecond,
		MsgBytes:   4096,
		Protocol: checkpointsim.ProtocolConfig{
			Kind:     checkpointsim.ProtoCoordinated,
			Interval: 10 * checkpointsim.Millisecond,
			Write:    checkpointsim.Millisecond,
		},
		Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("baseline makespan:     %v\n", checkpointsim.Duration(base.Makespan))
	fmt.Printf("checkpointed makespan: %v\n", checkpointsim.Duration(ckpt.Makespan))
	fmt.Printf("overhead:              %.2f%%\n", ckpt.OverheadPercent(base.Result))

	st := ckpt.Protocol.Stats()
	fmt.Printf("rounds: %d, writes: %d\n", st.Rounds, st.Writes)
	if st.Rounds > 0 {
		fmt.Printf("mean quiesce latency: %v\n", st.CoordDelay/checkpointsim.Duration(st.Rounds))
		fmt.Printf("mean round span:      %v\n", st.RoundSpan/checkpointsim.Duration(st.Rounds))
	}
	fmt.Printf("coordination control messages: %d\n", ckpt.Metrics.CtlMessages)
	// Output:
	// baseline makespan:     102.786ms
	// checkpointed makespan: 227.429ms
	// overhead:              121.26%
	// rounds: 19, writes: 1216
	// mean quiesce latency: 2.112ms
	// mean round span:      10.259ms
	// coordination control messages: 4788
}

// buildRingApp assembles a 1D ring halo exchange whose every tenth
// iteration ends in an 8-byte allreduce.
func buildRingApp(ranks, iters int, compute checkpointsim.Duration, halo int64) (*checkpointsim.Program, error) {
	b := checkpointsim.NewBuilder(ranks)
	seqs := make([]*checkpointsim.Sequencer, ranks)
	for i := range seqs {
		seqs[i] = b.Seq(i)
	}
	for it := 0; it < iters; it++ {
		for i, s := range seqs {
			s.Calc(compute)
			right := (i + 1) % ranks
			left := (i - 1 + ranks) % ranks
			// Non-blocking exchange with both neighbors, then wait for all.
			sends := s.Fork(checkpointsim.KindSend, int32(right), 0, halo)
			sendsL := s.Fork(checkpointsim.KindSend, int32(left), 0, halo)
			recvR := s.Fork(checkpointsim.KindRecv, int32(right), 0, halo)
			recvL := s.Fork(checkpointsim.KindRecv, int32(left), 0, halo)
			s.Join(sends, sendsL, recvR, recvL)
		}
		if (it+1)%10 == 0 {
			// Convergence check: an 8-byte allreduce.
			entries := make([]checkpointsim.OpID, ranks)
			for i, s := range seqs {
				entries[i] = s.Last()
			}
			exits := checkpointsim.Allreduce(b, entries, 1, 8)
			for i := range seqs {
				seqs[i] = b.SeqAfter(i, exits[i])
			}
		}
	}
	return b.Build()
}

// Custom program construction: build a bespoke iteration structure with the
// Builder API — a 1D ring halo exchange whose every tenth iteration ends in
// an allreduce — and measure how a checkpointing protocol interacts with it.
//
// This is the path for users whose application does not match a built-in
// workload: the same graphs the named generators produce can be assembled
// by hand, operation by operation.
func Example_stencil() {
	const ranks = 32
	prog, err := buildRingApp(ranks, 60, checkpointsim.Millisecond, 8192)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("program: %d ranks, %d ops\n", prog.NumRanks, len(prog.Ops))

	// Run it bare, then under each protocol family.
	run := func(agents ...checkpointsim.Agent) *checkpointsim.Result {
		eng, err := checkpointsim.NewEngine(checkpointsim.SimConfig{
			Net:     checkpointsim.DefaultNetwork(),
			Program: prog,
			Agents:  agents,
			Seed:    7,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	base := run()
	fmt.Printf("%-24s %12v\n", "baseline", checkpointsim.Duration(base.Makespan))

	// A ProtocolConfig builds each protocol agent; a nil store keeps the
	// fixed-duration writes.
	cfg := checkpointsim.ProtocolConfig{
		Interval:    10 * checkpointsim.Millisecond,
		Write:       checkpointsim.Millisecond,
		Offset:      "staggered",
		Logging:     checkpointsim.LogParams{Alpha: checkpointsim.Microsecond, BetaNsPerByte: 0.1},
		ClusterSize: 8,
	}
	for _, kind := range []checkpointsim.ProtoKind{checkpointsim.ProtoCoordinated,
		checkpointsim.ProtoUncoordinated, checkpointsim.ProtoHierarchical} {
		cfg.Kind = kind
		proto, err := cfg.New(nil)
		if err != nil {
			log.Fatal(err)
		}
		res := run(proto)
		fmt.Printf("%-24s %12v  (+%.2f%%)\n", proto.Name(),
			checkpointsim.Duration(res.Makespan), res.OverheadPercent(base))
	}
	// Output:
	// program: 32 ranks, 14400 ops
	// baseline                     61.305ms
	// coordinated                 171.704ms  (+180.08%)
	// uncoordinated-staggered      79.137ms  (+29.09%)
	// hierarchical-8              105.611ms  (+72.27%)
}

// Failure injection: run the same application under the same failure clock
// with the two recovery disciplines — coordinated checkpointing with global
// rollback versus uncoordinated checkpointing with single-rank log replay —
// and compare what each failure costs the machine.
func Example_failures() {
	base := checkpointsim.RunConfig{
		Workload:   "stencil2d",
		Ranks:      64,
		Iterations: 200,
		Compute:    checkpointsim.Millisecond,
		MsgBytes:   4096,
		Seed:       16,
		MaxTime:    checkpointsim.Time(60 * checkpointsim.Second),
	}

	// Failure-free reference.
	ref, err := checkpointsim.Run(base)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("failure-free makespan: %v\n\n", checkpointsim.Duration(ref.Makespan))

	const (
		interval = 10 * checkpointsim.Millisecond
		write    = checkpointsim.Millisecond
		mtbf     = 4 * checkpointsim.Second // per node → system MTBF 62.5ms
		restart  = 2 * checkpointsim.Millisecond
	)

	// Coordinated + global rollback.
	coord := base
	coord.Protocol = checkpointsim.ProtocolConfig{
		Kind: checkpointsim.ProtoCoordinated, Interval: interval, Write: write,
	}
	coord.Failures = &checkpointsim.FailureConfig{MTBF: mtbf, Restart: restart}
	rc, err := checkpointsim.Run(coord)
	if err != nil {
		log.Fatal(err)
	}

	// Uncoordinated + local replay (with a logging tax).
	unc := base
	unc.Protocol = checkpointsim.ProtocolConfig{
		Kind: checkpointsim.ProtoUncoordinated, Interval: interval, Write: write,
		Offset:  "staggered",
		Logging: checkpointsim.LogParams{Alpha: 500 * checkpointsim.Nanosecond, BetaNsPerByte: 0.1},
	}
	unc.Failures = &checkpointsim.FailureConfig{MTBF: mtbf, Restart: restart}
	ru, err := checkpointsim.Run(unc)
	if err != nil {
		log.Fatal(err)
	}

	show := func(name string, r *checkpointsim.RunResult) {
		fmt.Printf("%s\n", name)
		fmt.Printf("  makespan:  %v (+%.1f%% over failure-free)\n",
			checkpointsim.Duration(r.Makespan), r.OverheadPercent(ref.Result))
		fmt.Printf("  failures:  %d\n", len(r.FailureEvents))
		var lost, rec checkpointsim.Duration
		for _, ev := range r.FailureEvents {
			lost += ev.LostWork
			rec += ev.Recovery
		}
		fmt.Printf("  work lost: %v, recovery charged: %v\n", lost, rec)
		fmt.Printf("  checkpoint writes: %d\n\n", r.Protocol.Stats().Writes)
	}
	show("coordinated + global rollback", rc)
	show("uncoordinated + local replay", ru)

	if ru.Makespan < rc.Makespan {
		fmt.Println("verdict: at this scale and failure rate, local replay wins —")
		fmt.Println("a failure idles one rank, not 64, and partners only stall when")
		fmt.Println("they actually need a message from the recovering rank.")
	} else {
		fmt.Println("verdict: global rollback wins here — the logging tax outweighs")
		fmt.Println("the recovery savings at this failure rate.")
	}
	// Output:
	// failure-free makespan: 205.57ms
	//
	// coordinated + global rollback
	//   makespan:  595.78ms (+189.8% over failure-free)
	//   failures:  13
	//   work lost: 72.172ms, recovery charged: 98.172ms
	//   checkpoint writes: 2882
	//
	// uncoordinated + local replay
	//   makespan:  320.24ms (+55.8% over failure-free)
	//   failures:  5
	//   work lost: 17.289ms, recovery charged: 18.644ms
	//   checkpoint writes: 1980
	//
	// verdict: at this scale and failure rate, local replay wins —
	// a failure idles one rank, not 64, and partners only stall when
	// they actually need a message from the recovering rank.
}

// Crossover exploration: sweep machine size and logging overhead to find
// where uncoordinated checkpointing overtakes coordinated checkpointing —
// in simulation at small scales, and with the analytic projection at the
// exascale sizes the paper extrapolates to.
func Example_crossover() {
	fmt.Println("simulated crossover (stencil2d, δ=2ms, θ=4s/node, seed-matched failures)")
	fmt.Printf("%6s  %10s  %14s  %14s  %s\n", "P", "β(ns/B)", "coordinated", "uncoordinated", "winner")

	for _, p := range []int{16, 64, 256} {
		for _, beta := range []float64{0, 0.5, 2.0} {
			sys := (4 * checkpointsim.Second).Seconds() / float64(p)
			tau := checkpointsim.Duration(model.DalyInterval(0.002, sys) * 1e9)

			mk := func(kind checkpointsim.ProtoKind, b float64) checkpointsim.Duration {
				cfg := checkpointsim.RunConfig{
					Workload:   "stencil2d",
					Ranks:      p,
					Iterations: 60,
					Compute:    checkpointsim.Millisecond,
					MsgBytes:   4096,
					Protocol: checkpointsim.ProtocolConfig{
						Kind:     kind,
						Interval: tau,
						Write:    2 * checkpointsim.Millisecond,
						Offset:   "staggered",
						Logging:  checkpointsim.LogParams{BetaNsPerByte: b},
					},
					Failures: &checkpointsim.FailureConfig{
						MTBF:    4 * checkpointsim.Second,
						Restart: 2 * checkpointsim.Millisecond,
					},
					Seed:    9,
					MaxTime: checkpointsim.Time(120 * checkpointsim.Second),
				}
				r, err := checkpointsim.Run(cfg)
				if err != nil {
					log.Fatal(err)
				}
				return checkpointsim.Duration(r.Makespan)
			}

			coord := mk(checkpointsim.ProtoCoordinated, 0)
			unc := mk(checkpointsim.ProtoUncoordinated, beta)
			winner := "coordinated"
			if unc < coord {
				winner = "uncoordinated"
			}
			fmt.Printf("%6d  %10.1f  %14v  %14v  %s\n", p, beta, coord, unc, winner)
		}
	}

	fmt.Println()
	fmt.Println("analytic projection to extreme scale (δ=60s, R=120s, θ=5y/node)")
	fmt.Printf("%8s  %12s  %12s  %12s  %s\n", "P", "log-ovh", "eff-coord", "eff-uncoord", "winner")
	net := checkpointsim.DefaultNetwork()
	for _, p := range []int{4096, 65536, 1048576} {
		for _, lo := range []float64{0.02, 0.10, 0.30} {
			pr := model.ProtocolProjection{
				Nodes:       p,
				NodeMTBF:    5 * 365.25 * 86400,
				Write:       60,
				Restart:     120,
				CoordDelay:  model.CoordinationDelay(p, net),
				LogOverhead: lo,
			}
			ce, ue := model.CoordinatedEfficiency(pr), model.UncoordinatedEfficiency(pr)
			winner := "coordinated"
			if ue > ce {
				winner = "uncoordinated"
			}
			fmt.Printf("%8d  %12.2f  %12.4f  %12.4f  %s\n", p, lo, ce, ue, winner)
		}
	}
	// Output:
	// simulated crossover (stencil2d, δ=2ms, θ=4s/node, seed-matched failures)
	//      P     β(ns/B)     coordinated   uncoordinated  winner
	//     16         0.0        77.706ms        96.718ms  coordinated
	//     16         0.5        77.706ms        96.718ms  coordinated
	//     16         2.0        77.706ms       104.294ms  coordinated
	//     64         0.0       225.481ms       112.385ms  uncoordinated
	//     64         0.5       225.481ms       112.385ms  uncoordinated
	//     64         2.0       225.481ms       112.385ms  uncoordinated
	//    256         0.0       817.088ms       114.671ms  uncoordinated
	//    256         0.5       817.088ms       114.714ms  uncoordinated
	//    256         2.0       817.088ms       114.895ms  uncoordinated
	//
	// analytic projection to extreme scale (δ=60s, R=120s, θ=5y/node)
	//        P       log-ovh     eff-coord   eff-uncoord  winner
	//     4096          0.02        0.9423        0.9407  coordinated
	//     4096          0.10        0.9423        0.8723  coordinated
	//     4096          0.30        0.9423        0.7381  coordinated
	//    65536          0.02        0.7545        0.8131  uncoordinated
	//    65536          0.10        0.7545        0.7540  coordinated
	//    65536          0.30        0.7545        0.6380  coordinated
	//  1048576          0.02        0.1579        0.3250  uncoordinated
	//  1048576          0.10        0.1579        0.3013  uncoordinated
	//  1048576          0.30        0.1579        0.2550  uncoordinated
}

// Multilevel checkpointing with timeline analysis: run an application under
// the two-level (SCR/FTI-class) protocol with failures, then break down
// where every rank's time went and render a Gantt chart of the run.
func Example_multilevel() {
	col := timeline.NewCollector()
	res, err := checkpointsim.Run(checkpointsim.RunConfig{
		Workload:   "stencil2d",
		Ranks:      16,
		Iterations: 60,
		Compute:    checkpointsim.Millisecond,
		MsgBytes:   4096,
		Protocol: checkpointsim.ProtocolConfig{
			Kind: checkpointsim.ProtoTwoLevel,
			TwoLevel: checkpointsim.TwoLevelParams{
				LocalInterval:  3 * checkpointsim.Millisecond,
				LocalWrite:     100 * checkpointsim.Microsecond,
				GlobalInterval: 30 * checkpointsim.Millisecond,
				GlobalWrite:    2 * checkpointsim.Millisecond,
			},
		},
		Failures: &checkpointsim.FailureConfig{
			MTBF:          4 * checkpointsim.Second, // per node
			Restart:       2 * checkpointsim.Millisecond,
			LocalCoverage: 0.9,
		},
		Trace:   col.Add,
		Seed:    16,
		MaxTime: checkpointsim.Time(60 * checkpointsim.Second),
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("makespan: %v, failures: %d\n",
		checkpointsim.Duration(res.Makespan), len(res.FailureEvents))
	for _, ev := range res.FailureEvents {
		fmt.Printf("  t=%v rank=%d lost=%v recovery=%v\n",
			checkpointsim.Duration(ev.Time), ev.Rank, ev.LostWork, ev.Recovery)
	}
	st := res.Protocol.Stats()
	fmt.Printf("writes: %d total, %d global rounds\n\n", st.Writes, st.Rounds)

	col.PrintSummary(os.Stdout, res.Makespan)
	fmt.Println()
	col.Gantt(os.Stdout, 100, res.Makespan, 16)
	// Output:
	// makespan: 114.231ms, failures: 1
	//   t=21.862ms rank=0 lost=20.365ms recovery=22.365ms
	// writes: 560 total, 3 global rounds
	//
	// utilization: app 53.3%, control 0.0%, seized 27.6%, idle 19.1%
	// per-rank app fraction: min 53.0%, max 53.5%
	// seized[checkpoint]: 147.2ms total
	// seized[recovery]: 356.509ms total
	//
	// gantt: 0 .. 114.231ms  (#=app c=ctl X=seized w=io-wait .=idle)
	// r0   |###################XXXXXXXXXXXXXXXXXXXXcX#.###X#####cXX##X###.X##########X#####cXX#X.#X#X.##########|
	// r1   |###################XXXXXXXXXXXXXXXXXXXXcX#.##.###X##cXX#.###X#X##########X#####cXX#X##X#XX##########|
	// r2   |###################XXXXXXXXXXXXXXXXXXXXc.XXcX####X##c.XXX##.##X##########X#####c.XXX####XX##########|
	// r3   |###################XXXXXXXXXXXXXXXXXXXXc.XX##.######c.XXX#####X##########X#####cXXXX####X.##########|
	// r4   |###################XXXXXXXXXXXXXXXXXXXXc.XX###X##X##ccXXX#####X##########X#####ccXXX####XX##########|
	// r5   |###################XXXXXXXXXXXXXXXXXXXXc.XX##.###X##c.XXX##.##X##########X#####c.XXX#####X##########|
	// r6   |###################XXXXXXXXXXXXXXXXXXXXc.X.XX###.###ccX..XX##############X#####ccX.XXX##.###########|
	// r7   |###################XXXXXXXXXXXXXXXXXXXXc.X.XX####X###cX..XX###X##########X######cX.XXX##XX##########|
	// r8   |###################XXXXXXXXXXXXXXXXXXXXccXX##c###X##ccXXX#####X##########X#####ccXXX####XX##########|
	// r9   |###################XXXXXXXXXXXXXXXXXXXXc.XX##.##.###c.XXX################X#####c.XXX####.###########|
	// r10  |###################XXXXXXXXXXXXXXXXXXXXc.X.XX#XX####ccX..XX##############X#####ccX.XXX#.############|
	// r11  |###################XXXXXXXXXXXXXXXXXXXXc.X.XX#X######cX..XX##############X######cX.XXX##X###########|
	// r12  |###################XXXXXXXXXXXXXXXXXXXXccX.XX###cX###cX..XX##c###########X######XX.XXX##X###########|
	// r13  |###################XXXXXXXXXXXXXXXXXXXXc.X.XX#XX#####cX..XX#X############X######cX.XXX#.############|
	// r14  |###################XXXXXXXXXXXXXXXXXXXXccX..XXX######cX..X.XX############X######cX.X..X#############|
	// r15  |###################XXXXXXXXXXXXXXXXXXXX#cX..XXX######cX..X.XX############X######XX.X..X#############|
}
