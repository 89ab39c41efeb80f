package main

import "fmt"

// metricDef declares one reported metric. BENCHMARK.json at the
// repository root lists the same names and units (a self-test checks).
type metricDef struct{ name, unit string }

// e2eMetrics are what a user of the system sees; every workload reports
// all of them from an untraced run.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"events_per_s", "events/s"},
	{"allocs_per_event", "allocs/event"},
	{"peak_rss_mb", "MB"},
}

// checkpointKinds are the facade protocol kinds the checkpoint layer
// probe compares against a protocol-free run.
var checkpointKinds = []string{"coordinated", "uncoordinated", "hierarchical", "nonblocking",
	"partner", "twolevel", "replication", "cic"}

// layerMetrics are the per-layer metrics of the traced run, named after
// the package each one times.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"goal.build_ms", "ms"},
		{"goal.validate_ms", "ms"},
		{"goal.ops", "count"},
		{"goal.allocs_per_op", "allocs/op"},
		{"goal.bytes_per_op", "B/op"},
		{"eventq.pushpop_ns.d64", "ns"},
		{"eventq.pushpop_ns.d2048", "ns"},
		{"sim.new_ms", "ms"},
		{"sim.run_ms", "ms"},
		{"sim.ns_per_event", "ns/event"},
		{"sim.events", "count"},
		{"sim.allocs_per_event", "allocs/event"},
	}
	for _, k := range checkpointKinds {
		defs = append(defs, metricDef{"checkpoint.overhead_ns_per_event." + k, "ns/event"})
	}
	defs = append(defs,
		metricDef{"validate.overhead_ms", "ms"},
		metricDef{"validate.records", "count"},
		metricDef{"snapshot.encode_ms", "ms"},
		metricDef{"snapshot.restore_ms", "ms"},
		metricDef{"snapshot.blob_mb", "MB"},
		metricDef{"snapshot.count", "count"},
		metricDef{"exp.scenario_run_ms", "ms"},
	)
	for i := 1; i <= 19; i++ {
		defs = append(defs, metricDef{fmt.Sprintf("exp.E%d_ms", i), "ms"})
	}
	return append(defs,
		metricDef{"cache.key_us", "us"},
		metricDef{"cache.hit_us", "us"},
		metricDef{"cache.hit_ratio", "ratio"},
		metricDef{"service.encode_us", "us"},
		metricDef{"service.hit_direct_ms", "ms"},
		metricDef{"coord.hit_p50_ms", "ms"},
		metricDef{"coord.hit_p99_ms", "ms"},
		metricDef{"coord.cold_p90_ms", "ms"},
		metricDef{"coord.hop_ms", "ms"},
		metricDef{"coord.failovers", "count"},
		metricDef{"coord.dlq_entered", "count"},
		metricDef{"trace.overhead_pct", "%"},
	)
}()

// label attaches the declared units to measured values, failing unless
// vals holds exactly the declared names.
func label(vals map[string]float64, defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(vals) != len(defs) {
		return nil, fmt.Errorf("%d metrics measured, %d declared", len(vals), len(defs))
	}
	return out, nil
}
