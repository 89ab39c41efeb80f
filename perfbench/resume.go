package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/rng"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/workload"
)

// scale_resume: stencil2d at P=2048 under the coordinated protocol. One op
// builds the program, runs it while streaming snapshots, restores the
// middle snapshot into a fresh engine, and runs the remainder, which must
// reproduce the full run's result byte for byte.

const (
	resumeRanks = 2048
	resumeIters = 40
	// resumeSnapEvery yields three snapshots of the ~1.7M-event run.
	resumeSnapEvery = 450_000
	// resumeLabel keys per-op seeds in the seed-derivation tree ("rsm").
	resumeLabel uint64 = 0x72736d
)

var resumeParams = checkpoint.Params{Interval: 5 * simtime.Millisecond, Write: 500 * simtime.Microsecond}

type scaleResume struct{ seed uint64 }

func newScaleResume(seed uint64) (instance, error) {
	s := scaleResume{seed: seed}
	if _, err := s.op(-1, nil); err != nil { // warm-up op
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	return s, nil
}

// opSeed derives op i's seed: every op builds and runs fresh inputs, so
// nothing one op computed can be reused by the next.
func (s scaleResume) opSeed(i int) uint64 { return rng.Derive(s.seed, resumeLabel, uint64(i+1)) }

// buildResumeProgram builds the stencil2d program for seed.
func buildResumeProgram(seed uint64) (*goal.Program, error) {
	return workload.FromName("stencil2d", workload.CommonConfig{
		Base: workload.Base{Ranks: resumeRanks, Iterations: resumeIters,
			Compute: simtime.Millisecond, Jitter: 0.1, Seed: seed},
		Bytes: 4096,
	})
}

// resumeConfig is the engine configuration for prog with a fresh protocol
// agent (agents are single-simulation).
func resumeConfig(prog *goal.Program, seed uint64) (sim.Config, error) {
	proto, err := checkpoint.NewCoordinated(resumeParams)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{Net: network.DefaultParams(), Program: prog, Agents: []sim.Agent{proto}, Seed: seed}, nil
}

func (s scaleResume) op(i int, tr *tracer) (sample, error) {
	seed := s.opSeed(i)
	root := tr.begin("scale_resume.op", -1)
	defer tr.end(root)
	t0 := time.Now()

	sp := tr.begin("goal.build", root)
	prog, err := buildResumeProgram(seed)
	tr.end(sp)
	if err != nil {
		return sample{}, err
	}
	want, events, mid, err := fullRun(prog, seed, tr, root)
	if err != nil {
		return sample{}, err
	}
	rcfg, err := resumeConfig(prog, seed)
	if err != nil {
		return sample{}, err
	}
	sp = tr.begin("sim.new", root)
	reng, err := sim.New(rcfg)
	tr.end(sp)
	if err != nil {
		return sample{}, err
	}
	sp = tr.begin("snapshot.restore", root)
	err = reng.Restore(mid.Blob)
	tr.end(sp)
	if err != nil {
		return sample{}, err
	}
	sp = tr.begin("sim.run.resumed", root)
	rest, err := reng.Run()
	tr.end(sp)
	d := time.Since(t0)
	if err != nil {
		return sample{}, err
	}
	if err := checkResume(want, rest.CanonicalBytes()); err != nil {
		return sample{}, err
	}
	return sample{dur: d, events: events + events - mid.Events}, nil
}

// fullRun runs prog from the start while streaming snapshots and returns
// the canonical result, the event count, and the middle snapshot. The
// engine is unreachable once it returns, so the resumed run does not
// share the heap with it.
func fullRun(prog *goal.Program, seed uint64, tr *tracer, parent int) (want []byte, events int64, mid sim.Snapshot, err error) {
	cfg, err := resumeConfig(prog, seed)
	if err != nil {
		return nil, 0, mid, err
	}
	var snaps []sim.Snapshot
	cfg.SnapshotEvery = resumeSnapEvery
	cfg.OnSnapshot = func(sn sim.Snapshot) { snaps = append(snaps, sn) }
	sp := tr.begin("sim.new", parent)
	eng, err := sim.New(cfg)
	tr.end(sp)
	if err != nil {
		return nil, 0, mid, err
	}
	sp = tr.begin("sim.run+snapshot", parent)
	full, err := eng.Run()
	tr.end(sp)
	if err != nil {
		return nil, 0, mid, err
	}
	if len(snaps) == 0 {
		return nil, 0, mid, errors.New("scale_resume: the run took no snapshot")
	}
	return full.CanonicalBytes(), full.Events, snaps[len(snaps)/2], nil
}

func (scaleResume) close() {}

// checkResume compares the resumed run's canonical result with the full
// run's.
func checkResume(full, resumed []byte) error {
	if !bytes.Equal(full, resumed) {
		return errors.New("scale_resume: resumed result differs from the full run's")
	}
	return nil
}
