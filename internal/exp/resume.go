package exp

// Crash–resume differential verification (Options.SnapshotEvery): every
// simulation proves its own snapshots. The monolithic run (execute) records
// its full trace and every snapshot (one after every SnapshotEvery-th
// event — any event boundary can be snapshotted, mid-round included); then,
// for each snapshot, run.Run assembles the run afresh, restores the blob
// and runs the remainder. The resumed run must reproduce the monolithic run
// byte-for-byte from the snapshot on: identical Result.CanonicalBytes, an
// event-for-event identical trace suffix, and — when the monolithic run was
// aborted by an event/time cap — the identical error. Any divergence is a correctness
// bug in snapshot coverage (state not serialized, or serialized wrong) and
// fails the run.

import (
	"bytes"
	"fmt"
	"sync/atomic"

	"checkpointsim/internal/run"
	"checkpointsim/internal/sim"
)

// verifyResume replays the run's remainder from each snapshot and compares
// it against the monolithic run. cfg must be the monolithic run's config;
// each replay is a fresh assembly (new protocol, store and injectors), so
// the blob alone must carry every agent's state. A capped monolithic run
// (runErr != nil, res == nil) is verified up to the cap: the resumed run
// must fail with the identical error after emitting the identical trace
// suffix.
func verifyResume(cfg run.Config, snaps []sim.Snapshot, full []sim.TraceEvent,
	res *sim.Result, runErr error, counter *int64) error {
	if counter != nil && len(snaps) > 0 {
		atomic.AddInt64(counter, int64(len(snaps)))
	}
	var want []byte
	if res != nil {
		want = res.CanonicalBytes()
	}
	for i, s := range snaps {
		at := fmt.Sprintf("snapshot %d/%d (t=%v, %d events)", i+1, len(snaps), s.Time, s.Events)
		if s.TraceEvents > int64(len(full)) {
			return fmt.Errorf("resume: %s claims %d trace events, monolithic run emitted %d",
				at, s.TraceEvents, len(full))
		}
		rcfg := cfg
		rcfg.ResumeFrom = s.Blob
		var suffix []sim.TraceEvent
		rcfg.Trace = func(ev sim.TraceEvent) { suffix = append(suffix, ev) }
		r2, err2 := run.Run(rcfg)
		if runErr != nil {
			if err2 == nil {
				return fmt.Errorf("resume: %s: monolithic run failed (%v) but resumed run completed", at, runErr)
			}
			if err2.Error() != runErr.Error() {
				return fmt.Errorf("resume: %s: error diverged: monolithic %q, resumed %q", at, runErr, err2)
			}
		} else {
			if err2 != nil {
				return fmt.Errorf("resume: %s: resumed run failed: %w", at, err2)
			}
			if !bytes.Equal(r2.CanonicalBytes(), want) {
				return fmt.Errorf("resume: %s: result diverged from monolithic run", at)
			}
		}
		wantSuffix := full[s.TraceEvents:]
		if len(suffix) != len(wantSuffix) {
			return fmt.Errorf("resume: %s: trace suffix has %d events, monolithic remainder has %d",
				at, len(suffix), len(wantSuffix))
		}
		for j := range suffix {
			if suffix[j] != wantSuffix[j] {
				return fmt.Errorf("resume: %s: trace diverged at suffix event %d: resumed %+v, monolithic %+v",
					at, j, suffix[j], wantSuffix[j])
			}
		}
	}
	return nil
}
