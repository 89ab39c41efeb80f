// Package service implements the sweepd HTTP service: experiment sweeps
// run by the handler of each POST /api/v1/run, a bounded number at a time
// with a bounded wait line, fronted by a content-addressed result cache
// (internal/cache) and instrumented with internal/stats metrics.
// cmd/sweepd is a thin flag-parsing wrapper around Server and Coordinator.
//
// The request path is: decode+validate a SweepRequest, address it
// (cache.Key over exp.Options.CacheFields), take a run slot, then either
// serve the cached bytes, join an identical in-flight computation, or run
// the experiment with the request's context threaded through the sweep
// pool. A full wait line returns 429 with Retry-After; a draining server
// returns 503.
package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"checkpointsim/internal/cache"
	"checkpointsim/internal/exp"
	"checkpointsim/internal/network"
	"checkpointsim/internal/report"
	"checkpointsim/internal/storage"
)

// SweepRequest is the JSON body of POST /api/v1/run. Zero values mean
// "the default the CLI would use": seed 42, full scale, default network
// preset, no storage model, no validation.
type SweepRequest struct {
	// Exp is the experiment ID (E1–E19). Required unless Scenario is set.
	Exp string `json:"exp,omitempty"`
	// Scenario, when non-nil, runs one campaign scenario (internal/exp
	// Scenario) instead of a named experiment. A scenario carries its whole
	// configuration — axes and seed — so Exp, Seed, Quick, and Storage must
	// be absent; Net still selects the network preset, and validation is
	// always on (campaign points are correctness probes).
	Scenario *exp.Scenario `json:"scenario,omitempty"`
	// Seed drives all randomness (default 42).
	Seed *uint64 `json:"seed,omitempty"`
	// Quick selects the reduced (bench/CI-scale) sweep.
	Quick bool `json:"quick,omitempty"`
	// Net names a network preset: "default", "capability", or "ethernet".
	Net string `json:"net,omitempty"`
	// Validate runs every simulation under the trace-conformance checker.
	Validate bool `json:"validate,omitempty"`
	// Storage, when non-nil, routes checkpoint writes through the
	// shared-storage model.
	Storage *StorageRequest `json:"storage,omitempty"`
	// TimeoutSec caps the job's runtime (0 = the server's default).
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// Resume is a sealed mid-run simulator snapshot (sim.Snapshot.Blob,
	// base64 on the wire) to resume a Scenario job from, shipped by a
	// coordinator re-dispatching a dead worker's job. It is a pure
	// execution hint: it never enters the cache key, and a blob that fails
	// to restore falls back to a cold run. Only valid with Scenario.
	Resume []byte `json:"resume_b64,omitempty"`
}

// StorageRequest mirrors cmd/sweep's storage flags, in GB/s.
type StorageRequest struct {
	AggregateGBps float64 `json:"aggregate_gbps,omitempty"`
	PerWriterGBps float64 `json:"per_writer_gbps,omitempty"`
	NodeGBps      float64 `json:"node_gbps,omitempty"`
	RanksPerNode  int     `json:"ranks_per_node,omitempty"`
}

// badRequestError marks client errors that map to 400.
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

func badf(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

// unknownExpError marks a well-formed request naming no experiment (404).
type unknownExpError struct{ id string }

func (e *unknownExpError) Error() string { return fmt.Sprintf("unknown experiment %q", e.id) }

// decodeRequest parses and validates a request body. Unknown fields are
// rejected — a typoed knob silently falling back to its default would
// return confidently wrong results.
func decodeRequest(r io.Reader) (SweepRequest, error) {
	var req SweepRequest
	dec := json.NewDecoder(io.LimitReader(r, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, badf("malformed request body: %v", err)
	}
	if dec.More() {
		return req, badf("trailing data after request body")
	}
	return req, nil
}

// resolve validates the request and builds the experiment and fully
// resolved options it describes (Jobs/Events/Ctx are the server's to set).
// Scenario requests resolve to a synthetic experiment wrapping
// Scenario.Run; address keys them by Scenario.CacheFields instead of
// Options.CacheFields.
func (req SweepRequest) resolve() (exp.Experiment, exp.Options, error) {
	var e exp.Experiment
	if sc := req.Scenario; sc != nil {
		if req.Exp != "" {
			return exp.Experiment{}, exp.Options{}, badf("request names both an experiment (%q) and a scenario", req.Exp)
		}
		if req.Seed != nil || req.Quick || req.Storage != nil {
			return exp.Experiment{}, exp.Options{}, badf("scenario requests carry their whole configuration; seed, quick, and storage do not apply")
		}
		if err := sc.Validate(); err != nil {
			return exp.Experiment{}, exp.Options{}, badf("bad scenario: %v", err)
		}
		e = ScenarioExperiment(*sc)
	} else {
		if req.Resume != nil {
			return exp.Experiment{}, exp.Options{}, badf("resume_b64 applies only to scenario requests")
		}
		if req.Exp == "" {
			return exp.Experiment{}, exp.Options{}, badf("missing experiment id")
		}
		var ok bool
		e, ok = exp.ByID(req.Exp)
		if !ok {
			return exp.Experiment{}, exp.Options{}, &unknownExpError{id: req.Exp}
		}
	}
	o := exp.DefaultOptions()
	if req.Seed != nil {
		o.Seed = *req.Seed
	}
	o.Quick = req.Quick
	o.Validate = req.Validate
	net := req.Net
	if net == "" {
		net = "default"
	}
	var err error
	if o.Net, err = network.Preset(net); err != nil {
		return exp.Experiment{}, exp.Options{}, badf("unknown network preset %q", req.Net)
	}
	if st := req.Storage; st != nil {
		o.Storage = storage.Params{
			AggregateBytesPerSec: st.AggregateGBps * 1e9,
			PerWriterBytesPerSec: st.PerWriterGBps * 1e9,
			NodeBytesPerSec:      st.NodeGBps * 1e9,
			RanksPerNode:         st.RanksPerNode,
		}
		if err := o.Storage.Validate(); err != nil {
			return exp.Experiment{}, exp.Options{}, badf("bad storage config: %v", err)
		}
	}
	if req.TimeoutSec < 0 {
		return exp.Experiment{}, exp.Options{}, badf("negative timeout_sec %v", req.TimeoutSec)
	}
	return e, o, nil
}

// address resolves the request and returns its experiment, options and
// cache key: the key a worker stores the result under, and so the key the
// coordinator shards by. A scenario is addressed by its axes, seed and the
// resolved network preset; resolve pins every other Options field to its
// default for scenarios, so nothing result-determining escapes the key.
func (req SweepRequest) address(version string) (exp.Experiment, exp.Options, string, error) {
	e, o, err := req.resolve()
	if err != nil {
		return e, o, "", err
	}
	if sc := req.Scenario; sc != nil {
		return e, o, ScenarioCacheKey(version, *sc, o.Net), nil
	}
	return e, o, cache.Key(version, o.CacheFields(e.ID)), nil
}

// timeout returns the per-job timeout the request asks for, defaulting to
// and capped by the server default (a client may shorten the leash, never
// lengthen it).
func (req SweepRequest) timeout(def time.Duration) time.Duration {
	// Compare in seconds: a huge TimeoutSec would overflow a Duration.
	if req.TimeoutSec <= 0 || req.TimeoutSec >= def.Seconds() {
		return def
	}
	return time.Duration(req.TimeoutSec * float64(time.Second))
}

// ScenarioExperiment wraps one campaign scenario as a synthetic experiment
// so the job pipeline (run, encode, format) treats scenarios and named
// experiments uniformly. The ID is the scenario's spec string.
func ScenarioExperiment(sc exp.Scenario) exp.Experiment {
	return exp.Experiment{
		ID:    sc.ID(),
		Title: "Campaign scenario",
		Desc:  "one point of the randomized scenario campaign",
		Run:   sc.Run,
	}
}

// ScenarioCacheKey is the content address a worker computes for a scenario
// request: exported so cmd/campaign can derive the exact key a sweepd with
// the same version would use, and print it for reproduction.
func ScenarioCacheKey(version string, sc exp.Scenario, net network.Params) string {
	return cache.Key(version, sc.CacheFields(net))
}

// EncodeScenarioResult produces the exact bytes a sweepd stores and serves
// for this scenario's completed run — the other half of the campaign's
// cache-consistency check: a local fresh run must byte-match the service's
// cached result.
func EncodeScenarioResult(sc exp.Scenario, tables []*report.Table) ([]byte, error) {
	return encodeResult(ScenarioExperiment(sc), tables)
}

// TableResult is the wire form of one report.Table. Cells are the
// formatted strings of the table, so decoding and re-adding them through
// report.Table.AddRow reproduces the rendered table byte-for-byte.
type TableResult struct {
	Title string     `json:"title"`
	Cols  []string   `json:"cols"`
	Notes []string   `json:"notes,omitempty"`
	Rows  [][]string `json:"rows"`
}

// Result is the wire form of one completed sweep: what cmd/sweep would
// have printed, structured. Its JSON encoding is the cached value — the
// content under the content address.
type Result struct {
	Exp    string        `json:"exp"`
	Title  string        `json:"title"`
	Tables []TableResult `json:"tables"`
}

// encodeResult serializes a completed run for the cache. Encoding is
// deterministic (fixed struct field order, pre-formatted cells), so equal
// runs produce equal bytes and the cache's byte-identity guarantee extends
// end to end.
func encodeResult(e exp.Experiment, tables []*report.Table) ([]byte, error) {
	res := Result{Exp: e.ID, Title: e.Title}
	for _, t := range tables {
		res.Tables = append(res.Tables, TableResult{
			Title: t.Title,
			Cols:  t.Cols,
			Notes: t.Notes,
			Rows:  t.Rows(),
		})
	}
	return json.Marshal(res)
}

// decodeResult parses cached result bytes.
func decodeResult(data []byte) (Result, error) {
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return res, fmt.Errorf("service: corrupt cached result: %w", err)
	}
	return res, nil
}

// table reconstructs a report.Table from its wire form.
func (tr TableResult) table() *report.Table {
	t := report.NewTable(tr.Title, tr.Cols...)
	for _, row := range tr.Rows {
		cells := make([]any, len(row))
		for i, c := range row {
			cells[i] = c
		}
		t.AddRow(cells...)
	}
	for _, n := range tr.Notes {
		t.AddNote("%s", n)
	}
	return t
}

// Text renders the result exactly as cmd/sweep prints the experiment
// (header line, aligned tables, blank line after each).
func (r Result) Text() string {
	var sb bytes.Buffer
	fmt.Fprintf(&sb, "### %s — %s\n", r.Exp, r.Title)
	for _, tr := range r.Tables {
		tr.table().Fprint(&sb)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// CSV writes every table as CSV, separated by blank lines, matching the
// per-table files cmd/sweep -csv writes.
func (r Result) CSV(w io.Writer) error {
	for i, tr := range r.Tables {
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if err := tr.table().WriteCSV(w); err != nil {
			return err
		}
	}
	return nil
}
