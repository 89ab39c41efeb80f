package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/goal"
	"checkpointsim/internal/report"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
)

// Trace ingest: the study drove its simulator with recorded application
// traces rather than synthetic kernels. TraceExperiment closes that gap —
// any external GOAL program (cmd/tracegen output, a LogGOPSim trace, a
// hand-written file) runs through the same protocol/storage/validator
// stack as E1–E19, and the experiment ID carries a content digest so the
// sweepd cache addresses the trace bytes, not just a filename.

// TraceDigestLen is the length of the hex digest embedded in a trace
// experiment's ID. 12 hex chars (48 bits) is plenty for a trace corpus and
// keeps IDs readable.
const TraceDigestLen = 12

// LoadTrace parses a GOAL program from r and returns it with the content
// digest of the raw bytes. The digest — not the parse — defines identity:
// two byte-different files that parse identically get different IDs, which
// over-segments the cache but never aliases it.
func LoadTrace(r io.Reader) (*goal.Program, string, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, "", fmt.Errorf("trace: read: %w", err)
	}
	sum := sha256.Sum256(data)
	digest := hex.EncodeToString(sum[:])[:TraceDigestLen]
	prog, err := goal.ParseString(string(data))
	if err != nil {
		return nil, "", err
	}
	if err := prog.CheckBalanced(); err != nil {
		return nil, "", fmt.Errorf("trace: %w", err)
	}
	return prog, digest, nil
}

// LoadTraceFile loads a trace from a GOAL text file. The returned name is
// the file's base name without extension, ready for TraceExperiment.
func LoadTraceFile(path string) (*goal.Program, string, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", "", err
	}
	defer f.Close()
	prog, digest, err := LoadTrace(f)
	if err != nil {
		return nil, "", "", fmt.Errorf("%s: %w", path, err)
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return prog, name, digest, nil
}

// TraceExperiment wraps an ingested GOAL program as an Experiment that runs
// the checkpoint-protocol suite over it: an uninstrumented baseline, then
// coordinated, uncoordinated (aligned and staggered, with message logging),
// hierarchical, non-blocking, and partner checkpointing, all derived from
// the trace's own baseline makespan so the suite scales with the trace.
// The ID is "trace:<name>@<digest>", so Options.CacheFields stays exact:
// different trace bytes can never share a cache entry. No command runs it;
// the corpus-golden test (trace_test.go) does.
func TraceExperiment(name string, prog *goal.Program, digest string) Experiment {
	id := "trace:" + name + "@" + digest
	return Experiment{
		ID:    id,
		Title: "Trace ingest: " + name,
		Desc:  "protocol suite over an ingested GOAL trace (" + digest + ")",
		Run: func(o Options) ([]*report.Table, error) {
			return runTrace(o, id, name, prog)
		},
	}
}

// traceInterval derives the checkpoint interval from a baseline makespan:
// an eighth of the run, rounded to a microsecond, floored so degenerate
// (near-empty) traces still get a positive interval. The write cost is a
// tenth of that. Both are pure functions of the makespan, so equal traces
// always sweep equal protocol configurations.
func traceInterval(makespan simtime.Time) (tau, delta simtime.Duration) {
	tau = simtime.Duration(makespan) / 8
	tau = tau / simtime.Microsecond * simtime.Microsecond
	if tau < 10*simtime.Microsecond {
		tau = 10 * simtime.Microsecond
	}
	delta = tau / 10
	if delta < simtime.Microsecond {
		delta = simtime.Microsecond
	}
	return tau, delta
}

func runTrace(o Options, id, name string, prog *goal.Program) ([]*report.Table, error) {
	if err := o.Storage.Validate(); err != nil {
		return nil, errf(id, err)
	}
	tw, err := newTwin(o, o.net(), prog, o.Seed)
	if err != nil {
		return nil, errf(id, err)
	}
	tau, delta := traceInterval(tw.base.Makespan)
	logp := checkpoint.LogParams{Alpha: 500 * simtime.Nanosecond, BetaNsPerByte: 0.05}

	t := report.NewTable("Trace "+name+": protocol suite",
		"protocol", "makespan", "overhead%", "rounds", "writes", "logged")

	// The baseline row reuses the twin's run; every other point builds its
	// protocol fresh (agents are single-simulation) over its own store
	// (stores arbitrate within one engine).
	type pt struct {
		name string
		cfg  checkpoint.Config
	}
	points := []pt{
		{"baseline", checkpoint.Config{}},
		{"coordinated", checkpoint.Config{Kind: checkpoint.KindCoordinated,
			Interval: tau, Write: delta}},
		{"uncoord-aligned", checkpoint.Config{Kind: checkpoint.KindUncoordinated,
			Interval: tau, Write: delta, Offset: "aligned", Logging: logp}},
		{"uncoord-staggered", checkpoint.Config{Kind: checkpoint.KindUncoordinated,
			Interval: tau, Write: delta, Offset: "staggered", Logging: logp}},
		{"hierarchical-c4", checkpoint.Config{Kind: checkpoint.KindHierarchical,
			Interval: tau, Write: delta, ClusterSize: 4, Logging: logp}},
		{"nonblocking", checkpoint.Config{Kind: checkpoint.KindNonBlocking,
			Interval: tau, Write: delta, Window: 4 * delta, Slowdown: 1.05}},
		{"partner", checkpoint.Config{Kind: checkpoint.KindPartner,
			Interval: tau, Write: delta, CkptBytes: 256 * 1024}},
	}

	err = sweep(t, o, id, points, func(sd uint64, p pt) (rows, error) {
		var rs rows
		if p.cfg.Kind == "" {
			rs.add("baseline", simtime.Duration(tw.base.Makespan).String(), 0.0,
				int64(0), int64(0), int64(0))
			return rs, nil
		}
		r, ov, err := tw.at(sd).run(run.Config{Storage: o.Storage, Protocol: p.cfg})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		s := r.Protocol.Stats()
		rs.add(p.name, simtime.Duration(r.Makespan).String(), ov,
			s.Rounds, s.Writes, s.LoggedMessages)
		return rs, nil
	})
	if err != nil {
		return nil, errf(id, err)
	}
	t.AddNote(fmt.Sprintf("trace: %v", prog.Stats()))
	t.AddNote(fmt.Sprintf("τ = makespan/8 = %v, δ = τ/10 = %v; logging α=%v β=%gns/B",
		tau, delta, logp.Alpha, logp.BetaNsPerByte))
	return []*report.Table{t}, nil
}
