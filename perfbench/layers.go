package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"checkpointsim"
	"checkpointsim/internal/cache"
	"checkpointsim/internal/eventq"
	"checkpointsim/internal/exp"
	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/report"
	"checkpointsim/internal/rng"
	"checkpointsim/internal/service"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/validate"
)

// The traced run: the workload's ops run for the budget, alternately
// untraced and traced (trace.overhead_pct is how much slower the median
// traced op is), then a fixed set of layer probes times calls into each
// package. The probes are the same for every workload, so every traced
// run reports every layer.

// probeLabel keys probe seeds in the seed-derivation tree ("prb").
const probeLabel uint64 = 0x707262

func measureLayers(w workloadDef, seed uint64, budget time.Duration) (*record, error) {
	inst, err := w.setup(seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	tr := newTracer()
	plain, traced := runOps(inst, budget, tr)
	inst.close()
	if len(plain.durs) == 0 || len(traced.durs) == 0 {
		return nil, fmt.Errorf("all %d ops failed on one side", plain.attempted+traced.attempted)
	}

	vals := map[string]float64{
		// Medians, not means: the two sides run different inputs, and a
		// few heavy campaign points would swamp a mean.
		"trace.overhead_pct": (median(traced.durs)/median(plain.durs) - 1) * 100,
	}
	probes := []func(uint64, *tracer, int, map[string]float64) error{
		probeGoalSimSnapshot, probeEventq, probeCheckpoint, probeExpValidate, probeCluster,
	}
	root := tr.begin("probes", -1)
	for _, p := range probes {
		runtime.GC()
		if err := p(seed, tr, root, vals); err != nil {
			return nil, fmt.Errorf("layer probe: %w", err)
		}
	}
	tr.end(root)
	m, err := label(vals, layerMetrics)
	if err != nil {
		return nil, err
	}
	attempted, failed := plain.attempted+traced.attempted, plain.failed+traced.failed
	return &record{
		Result:  result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m},
		Samples: map[string]int{"ops_untraced": len(plain.durs), "ops_traced": len(traced.durs)},
		Spans:   tr.stats(),
	}, nil
}

// timed runs fn inside a span and returns its duration.
func timed(tr *tracer, name string, parent int, fn func() error) (time.Duration, error) {
	sp := tr.begin(name, parent)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	tr.end(sp)
	return d, err
}

// probeGoalSimSnapshot times the scale_resume configuration layer by
// layer: program build and validation (goal, workload), engine set-up and
// run (sim), and snapshot encode and restore (snapshot). Encode cost is a
// run with snapshots minus one without, per snapshot.
func probeGoalSimSnapshot(seed uint64, tr *tracer, parent int, vals map[string]float64) error {
	var build, valid, allocsPerOp, bytesPerOp []float64
	var prog *goal.Program
	var m0, m1 runtime.MemStats
	for r := 0; r < 3; r++ {
		s := rng.Derive(seed, probeLabel, uint64(r))
		runtime.GC()
		runtime.ReadMemStats(&m0)
		d, err := timed(tr, "goal.build", parent, func() (err error) {
			prog, err = buildResumeProgram(s)
			return err
		})
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		ops := float64(len(prog.Ops))
		build = append(build, ms(d))
		allocsPerOp = append(allocsPerOp, float64(m1.Mallocs-m0.Mallocs)/ops)
		bytesPerOp = append(bytesPerOp, float64(m1.TotalAlloc-m0.TotalAlloc)/ops)
		// Build already validated prog and memoized the verdict; a fresh
		// Program over the same ops runs the whole check again.
		fresh := &goal.Program{NumRanks: prog.NumRanks, Ops: prog.Ops}
		d, err = timed(tr, "goal.validate", parent, fresh.Validate)
		if err != nil {
			return err
		}
		valid = append(valid, ms(d))
	}
	vals["goal.build_ms"] = median(build)
	vals["goal.validate_ms"] = median(valid)
	vals["goal.ops"] = float64(len(prog.Ops))
	vals["goal.allocs_per_op"] = median(allocsPerOp)
	vals["goal.bytes_per_op"] = median(bytesPerOp)

	s := rng.Derive(seed, probeLabel, 2)
	var newMs, runMs, nsPerEvent, allocsPerEvent, snapRunMs, restoreMs, blobMB []float64
	var events int64
	var count int
	for r := 0; r < 2; r++ {
		cfg, err := resumeConfig(prog, s)
		if err != nil {
			return err
		}
		runtime.GC()
		var eng *sim.Engine
		d, err := timed(tr, "sim.new", parent, func() (err error) {
			eng, err = sim.New(cfg)
			return err
		})
		if err != nil {
			return err
		}
		newMs = append(newMs, ms(d))
		var res *sim.Result
		runtime.ReadMemStats(&m0)
		d, err = timed(tr, "sim.run", parent, func() (err error) {
			res, err = eng.Run()
			return err
		})
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		events = res.Events
		runMs = append(runMs, ms(d))
		nsPerEvent = append(nsPerEvent, float64(d)/float64(events))
		allocsPerEvent = append(allocsPerEvent, float64(m1.Mallocs-m0.Mallocs)/float64(events))

		var snaps []sim.Snapshot
		if cfg, err = resumeConfig(prog, s); err != nil {
			return err
		}
		cfg.SnapshotEvery = resumeSnapEvery
		cfg.OnSnapshot = func(sn sim.Snapshot) { snaps = append(snaps, sn) }
		if eng, err = sim.New(cfg); err != nil {
			return err
		}
		runtime.GC()
		var snapRes *sim.Result
		d, err = timed(tr, "sim.run+snapshot", parent, func() (err error) {
			snapRes, err = eng.Run()
			return err
		})
		if err != nil {
			return err
		}
		if !bytes.Equal(snapRes.CanonicalBytes(), res.CanonicalBytes()) {
			return errors.New("snapshotting changed the result")
		}
		if len(snaps) == 0 {
			return errors.New("no snapshot taken")
		}
		count = len(snaps)
		snapRunMs = append(snapRunMs, ms(d))
		for _, sn := range snaps {
			rcfg, err := resumeConfig(prog, s)
			if err != nil {
				return err
			}
			reng, err := sim.New(rcfg)
			if err != nil {
				return err
			}
			d, err := timed(tr, "snapshot.restore", parent, func() error { return reng.Restore(sn.Blob) })
			if err != nil {
				return err
			}
			restoreMs = append(restoreMs, ms(d))
			blobMB = append(blobMB, float64(len(sn.Blob))/1e6)
		}
	}
	vals["sim.new_ms"] = median(newMs)
	vals["sim.run_ms"] = median(runMs)
	vals["sim.ns_per_event"] = median(nsPerEvent)
	vals["sim.events"] = float64(events)
	vals["sim.allocs_per_event"] = median(allocsPerEvent)
	vals["snapshot.encode_ms"] = (median(snapRunMs) - median(runMs)) / float64(count)
	vals["snapshot.restore_ms"] = median(restoreMs)
	vals["snapshot.blob_mb"] = median(blobMB)
	vals["snapshot.count"] = float64(count)
	return nil
}

// probeEventq times the hold model — pop the earliest event, push it back
// a random increment later — through the public Push/Pop at the queue
// depths of the quick-suite (64) and scale_resume (2048) workloads.
func probeEventq(seed uint64, tr *tracer, parent int, vals map[string]float64) error {
	const n = 1 << 21
	for _, depth := range []int{64, 2048} {
		var ns []float64
		for r := 0; r < 3; r++ {
			rd := rng.New(rng.Derive(seed, probeLabel, uint64(depth)))
			var q eventq.Queue[int64]
			for i := 0; i < depth; i++ {
				q.Push(simtime.Time(rd.Intn(1<<20)), int64(i))
			}
			d, _ := timed(tr, "eventq.hold", parent, func() error {
				for i := 0; i < n; i++ {
					t, v := q.Pop()
					q.Push(t+simtime.Time(1+rd.Intn(1<<16)), v)
				}
				return nil
			})
			ns = append(ns, float64(d)/n)
		}
		vals[fmt.Sprintf("eventq.pushpop_ns.d%d", depth)] = median(ns)
	}
	return nil
}

// engineConfig is BenchmarkEngineThroughput's stencil2d/64 configuration.
func engineConfig(seed uint64) checkpointsim.RunConfig {
	return checkpointsim.RunConfig{Workload: "stencil2d", Ranks: 64, Iterations: 20,
		Compute: checkpointsim.Millisecond, MsgBytes: 4096, Seed: seed}
}

// protocolConfig is the facade configuration of each checkpoint kind.
func protocolConfig(kind string) checkpointsim.ProtocolConfig {
	const tau, delta = 5 * checkpointsim.Millisecond, 500 * checkpointsim.Microsecond
	pc := checkpointsim.ProtocolConfig{Kind: checkpointsim.ProtoKind(kind), Interval: tau, Write: delta}
	switch kind {
	case "uncoordinated":
		pc.Logging = checkpointsim.LogParams{Alpha: checkpointsim.Microsecond}
	case "hierarchical":
		pc.ClusterSize = 8
		pc.Logging = checkpointsim.LogParams{Alpha: checkpointsim.Microsecond}
	case "nonblocking":
		pc.Window, pc.Slowdown = 2*checkpointsim.Millisecond, 1.25
	case "partner":
		pc.CkptBytes = 1 << 20
	case "twolevel":
		pc.TwoLevel = checkpointsim.TwoLevelParams{LocalInterval: 2 * checkpointsim.Millisecond,
			LocalWrite: 100 * checkpointsim.Microsecond, GlobalInterval: 10 * checkpointsim.Millisecond,
			GlobalWrite: delta}
	}
	return pc
}

// probeCheckpoint times a facade Run per protocol kind against the
// protocol-free run, per event of the protocol-free run, and counts the
// trace records the validator consumes for the coordinated run.
func probeCheckpoint(seed uint64, tr *tracer, parent int, vals map[string]float64) error {
	kinds := append([]string{"none"}, checkpointKinds...)
	ns := map[string][]float64{}
	var baseEvents int64
	for r := 0; r < 5; r++ {
		for _, k := range kinds {
			cfg := engineConfig(seed)
			cfg.Protocol = protocolConfig(k)
			var res *checkpointsim.RunResult
			d, err := timed(tr, "checkpoint."+k, parent, func() (err error) {
				res, err = checkpointsim.Run(cfg)
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: %w", k, err)
			}
			if k == "none" {
				baseEvents = res.Events
			}
			ns[k] = append(ns[k], float64(d))
		}
	}
	for _, k := range checkpointKinds {
		vals["checkpoint.overhead_ns_per_event."+k] = (median(ns[k]) - median(ns["none"])) / float64(baseEvents)
	}

	chk := validate.New(network.DefaultParams())
	var records int64
	cfg := engineConfig(seed)
	cfg.Protocol = protocolConfig("coordinated")
	cfg.Trace = chk.Hook(func(sim.TraceEvent) { records++ })
	res, err := checkpointsim.Run(cfg)
	if err != nil {
		return err
	}
	if err := chk.Finish(res.Result); err != nil {
		return err
	}
	vals["validate.records"] = float64(records)
	return nil
}

// probeExpValidate times each quick experiment, and a whole quick suite
// pass with the validator on against one with it off. Validation adds no
// rows, so both passes must render identical tables.
func probeExpValidate(seed uint64, tr *tracer, parent int, vals map[string]float64) error {
	o := exp.DefaultOptions()
	o.Quick, o.Seed, o.Jobs = true, seed, 1
	per := map[string][]float64{}
	var off, on []float64
	var ref []string
	for r := 0; r < 2; r++ {
		for _, v := range []bool{false, true} {
			o.Validate = v
			name := "exp.suite"
			if v {
				name = "exp.suite.validated"
			}
			runtime.GC()
			sp := tr.begin(name, parent)
			t0 := time.Now()
			got, err := renderSuite(o, tr, sp, func(id string, ms float64) {
				if !v {
					per[id] = append(per[id], ms)
				}
			})
			d := time.Since(t0)
			tr.end(sp)
			if err != nil {
				return err
			}
			if ref == nil {
				ref = got
			} else if err := checkTables(got, ref); err != nil {
				return err
			}
			if v {
				on = append(on, ms(d))
			} else {
				off = append(off, ms(d))
			}
		}
	}
	vals["validate.overhead_ms"] = median(on) - median(off)
	for _, e := range exp.All() {
		vals["exp."+e.ID+"_ms"] = median(per[e.ID])
	}
	return nil
}

// probeCluster times the serving path on a fresh cluster: in-process
// Scenario.Run, result encoding, cache keys, cold and hit requests
// through the coordinator, and hits sent straight to the owning worker.
func probeCluster(seed uint64, tr *tracer, parent int, vals map[string]float64) error {
	const points, hitRounds, reps = 100, 10, 50
	c, err := startCluster(rng.Derive(seed, probeLabel, 3))
	if err != nil {
		return err
	}
	defer c.close()
	net := network.DefaultParams()
	var local, encUs, keyUs, cold []float64
	refs := make([][]byte, points)
	owners := make([]string, points)
	for i := 0; i < points; i++ {
		sc, err := c.point(i)
		if err != nil {
			return err
		}
		var tables []*report.Table
		d, err := timed(tr, "exp.scenario_run", parent, func() (err error) {
			tables, err = sc.Run(exp.DefaultOptions())
			return err
		})
		if err != nil {
			return err
		}
		local = append(local, ms(d))
		d, err = timed(tr, "service.encode", parent, func() (err error) {
			for k := 0; k < reps; k++ {
				refs[i], err = service.EncodeScenarioResult(sc, tables)
			}
			return err
		})
		if err != nil {
			return err
		}
		encUs = append(encUs, float64(d)/reps/1e3)
		d, _ = timed(tr, "cache.key", parent, func() error {
			for k := 0; k < reps; k++ {
				service.ScenarioCacheKey("perfbench", sc, net)
			}
			return nil
		})
		keyUs = append(keyUs, float64(d)/reps/1e3)

		var cr, hr reply
		d, err = timed(tr, "http.cold", parent, func() (err error) {
			cr, err = c.post(c.coordURL, sc)
			return err
		})
		if err != nil {
			return err
		}
		cold = append(cold, ms(d))
		if hr, err = c.post(c.coordURL, sc); err != nil {
			return err
		}
		if err := checkPair(sc, cr, hr, refs[i]); err != nil {
			return err
		}
		owners[i] = c.urls[cr.worker]
		if owners[i] == "" {
			return fmt.Errorf("coordinator named unknown worker %q", cr.worker)
		}
	}
	var hits, misses int64
	for _, w := range c.workers {
		st := w.CacheStats()
		hits, misses = hits+st.Hits, misses+st.Misses
	}
	if hits != points || misses != points {
		return fmt.Errorf("worker caches saw %d hits and %d misses for %d points sent twice each", hits, misses, points)
	}
	vals["cache.hit_ratio"] = float64(hits) / float64(hits+misses)

	var viaCoord, direct []float64
	for r := 0; r < hitRounds; r++ {
		for i, sc := range c.points[:points] {
			for _, hop := range []struct {
				base string
				lat  *[]float64
			}{{c.coordURL, &viaCoord}, {owners[i], &direct}} {
				var rep reply
				d, err := timed(tr, "http.hit", parent, func() (err error) {
					rep, err = c.post(hop.base, sc)
					return err
				})
				if err != nil {
					return err
				}
				if rep.code != http.StatusOK || rep.source != "hit" || !bytes.Equal(rep.body, refs[i]) {
					return fmt.Errorf("%s: repeated hit: status %d, source %q, or body differs", sc.ID(), rep.code, rep.source)
				}
				*hop.lat = append(*hop.lat, ms(d))
			}
		}
	}
	for _, name := range []string{"failovers", "dlq_entered"} {
		v, err := c.coordCounter("sweepd_coord_" + name + "_total")
		if err != nil {
			return err
		}
		if v != 0 {
			return fmt.Errorf("coordinator %s = %v on a healthy cluster", name, v)
		}
		vals["coord."+name] = v
	}

	// A resident key through the cache alone, without HTTP or a job.
	ch := cache.New(256 << 20)
	key := service.ScenarioCacheKey("perfbench", c.points[0], net)
	fill := func(context.Context) ([]byte, error) { return refs[0], nil }
	if _, _, err := ch.GetOrCompute(context.Background(), key, fill); err != nil {
		return err
	}
	const lookups = 200_000
	d, err := timed(tr, "cache.hit", parent, func() error {
		for k := 0; k < lookups; k++ {
			if _, src, err := ch.GetOrCompute(context.Background(), key, fill); err != nil || src != cache.Hit {
				return fmt.Errorf("resident key: source %v, err %v", src, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	vals["exp.scenario_run_ms"] = median(local)
	vals["service.encode_us"] = median(encUs)
	vals["cache.key_us"] = median(keyUs)
	vals["cache.hit_us"] = float64(d) / lookups / 1e3
	vals["coord.cold_p90_ms"] = percentile(cold, 90)
	vals["coord.hit_p50_ms"] = median(viaCoord)
	vals["coord.hit_p99_ms"] = percentile(viaCoord, 99)
	vals["service.hit_direct_ms"] = median(direct)
	vals["coord.hop_ms"] = median(viaCoord) - median(direct)
	return nil
}
