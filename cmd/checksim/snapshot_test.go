package main

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"checkpointsim/internal/sim"
)

// stripLines drops output lines with any of the given prefixes, so runs
// that only differ in snapshot/resume bookkeeping compare equal.
func stripLines(out string, prefixes ...string) string {
	var keep []string
	for _, ln := range strings.Split(out, "\n") {
		drop := false
		for _, p := range prefixes {
			if strings.HasPrefix(ln, p) {
				drop = true
				break
			}
		}
		if !drop {
			keep = append(keep, ln)
		}
	}
	return strings.Join(keep, "\n")
}

// TestSnapshotResumeCLI drives the full user-facing loop: run once plain,
// run once snapshotting to disk, then resume from every snapshot taken —
// each resumed run must print the identical report.
func TestSnapshotResumeCLI(t *testing.T) {
	args := []string{"-workload", "cg", "-ranks", "8", "-iters", "10",
		"-protocol", "uncoordinated", "-offset", "staggered",
		"-interval", "3ms", "-write", "300us", "-log-alpha", "1us",
		"-noise-period", "5ms", "-noise-duration", "50us", "-seed", "9"}
	plain := capture(t, args...)

	dir := t.TempDir()
	snapped := capture(t, append(args, "-snapshot-every", "2000", "-snapshot-dir", dir)...)
	if got := stripLines(snapped, "snapshots:"); got != plain {
		t.Fatalf("snapshotting changed the report:\nsnapshotting:\n%s\nplain:\n%s", snapped, plain)
	}
	blobs, err := filepath.Glob(filepath.Join(dir, "snap-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) == 0 {
		t.Fatal("no snapshot blobs written")
	}
	sort.Strings(blobs)
	for _, b := range blobs {
		resumed := capture(t, append(args, "-resume", b)...)
		if got := stripLines(resumed, "resumed:"); got != plain {
			t.Errorf("resume from %s diverged:\nresumed:\n%s\nplain:\n%s",
				filepath.Base(b), resumed, plain)
		}
	}
	if leftover, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(leftover) != 0 {
		t.Errorf("atomic writes left temp files behind: %v", leftover)
	}
}

// TestSnapshotFlagValidation covers the flag interactions that must be
// rejected up front.
func TestSnapshotFlagValidation(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-snapshot-every", "100"}, &sb); err == nil ||
		!strings.Contains(err.Error(), "-snapshot-dir") {
		t.Errorf("-snapshot-every without -snapshot-dir: got err %v", err)
	}
	sb.Reset()
	if err := run([]string{"-resume", "nope.ckpt", "-validate"}, &sb); err == nil ||
		!strings.Contains(err.Error(), "-validate") {
		t.Errorf("-resume with -validate: got err %v", err)
	}
	sb.Reset()
	if err := run([]string{"-resume", filepath.Join(t.TempDir(), "missing.ckpt")}, &sb); err == nil {
		t.Error("-resume with a missing file succeeded")
	}
}

// TestResumeRejectsCorruptBlob resumes from a truncated blob and expects a
// clean error, not a crash or a silently wrong run.
func TestResumeRejectsCorruptBlob(t *testing.T) {
	args := []string{"-workload", "ep", "-ranks", "4", "-iters", "20", "-seed", "3"}
	dir := t.TempDir()
	capture(t, append(args, "-snapshot-every", "50", "-snapshot-dir", dir)...)
	blobs, _ := filepath.Glob(filepath.Join(dir, "snap-*.ckpt"))
	if len(blobs) == 0 {
		t.Fatal("no snapshot blobs written")
	}
	data, err := os.ReadFile(blobs[0])
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(bad, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run(append(args, "-resume", bad), &sb); err == nil {
		t.Fatal("resume from truncated blob succeeded")
	}
}

// TestResumeRefusesOtherConfig: a snapshot resumes only the run that took
// it. Changing the checkpoint interval and write time, or the noise
// duration, between the snapshotting and the resuming run is refused with
// the config-mismatch error instead of printing a result that belongs to
// neither run.
func TestResumeRefusesOtherConfig(t *testing.T) {
	for name, tc := range map[string]struct{ base, changed []string }{
		"protocol": {
			base:    []string{"-interval", "5ms", "-write", "1ms"},
			changed: []string{"-interval", "2ms", "-write", "3ms"},
		},
		"noise": {
			base:    []string{"-noise-period", "2ms", "-noise-duration", "100us"},
			changed: []string{"-noise-period", "2ms", "-noise-duration", "300us"},
		},
	} {
		args := []string{"-ranks", "16", "-iters", "20", "-protocol", "coordinated"}
		dir := t.TempDir()
		capture(t, append(append(args, tc.base...), "-snapshot-every", "2000", "-snapshot-dir", dir)...)
		blob := filepath.Join(dir, "snap-000000002000.ckpt")
		if _, err := os.Stat(blob); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		err := run(append(append(args, tc.changed...), "-resume", blob), &sb)
		if !errors.Is(err, sim.ErrConfigMismatch) {
			t.Errorf("%s: resume under a changed config: %v, want ErrConfigMismatch; output:\n%s", name, err, sb.String())
		}
	}
}
