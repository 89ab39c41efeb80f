package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"checkpointsim/internal/exp"
)

func TestListExperiments(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, id := range []string{"E1", "E8", "E15", "E17"} {
		if !strings.Contains(out, id+" ") {
			t.Errorf("list missing %s:\n%s", id, out)
		}
	}
	// Every row carries the experiment's bench target and description.
	for _, e := range exp.All() {
		if !strings.Contains(out, e.Bench) {
			t.Errorf("list missing bench name %s:\n%s", e.Bench, out)
		}
		if !strings.Contains(out, e.Desc) {
			t.Errorf("list missing description for %s:\n%s", e.ID, out)
		}
	}
}

// The storage flags feed Options.Storage: E17 run with an explicit writer
// cap must still work, and invalid parameters — negative, NaN or infinite
// bandwidths, negative ranks per node — must be rejected, not silently
// mapped to "no storage".
func TestStorageFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "E1", "-quick", "-store-agg", "8",
		"-store-writer", "1", "-timings=false"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "storage: ") {
		t.Errorf("storage line not printed:\n%s", sb.String())
	}
	for _, c := range [][]string{
		{"-exp", "E1", "-quick", "-store-agg", "-1"},
		{"-exp", "E1", "-quick", "-store-writer", "-2"},
		{"-exp", "E1", "-quick", "-store-node", "-3"},
		{"-exp", "E19", "-quick", "-store-agg", "NaN"},
		{"-exp", "E19", "-quick", "-store-writer", "+Inf"},
		{"-exp", "E1", "-quick", "-ranks-per-node", "-4"},
	} {
		if err := run(c, &sb); err == nil {
			t.Errorf("args %v accepted", c)
		}
	}
}

func TestQuickSingleExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "E1", "-quick"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"mode: quick", "E1a", "E1b", "took"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestCSVOutput(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run([]string{"-exp", "E1", "-quick", "-csv", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"e1_0.csv", "e1_1.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
		if len(data) == 0 {
			t.Errorf("%s empty", name)
		}
	}
}

func TestNetPresets(t *testing.T) {
	for _, preset := range []string{"capability", "ethernet"} {
		var sb strings.Builder
		if err := run([]string{"-exp", "E1", "-quick", "-net", preset}, &sb); err != nil {
			t.Errorf("preset %s: %v", preset, err)
		}
	}
}

func TestErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "E99"}, &sb); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-net", "bogus"}, &sb); err == nil {
		t.Error("bogus preset accepted")
	}
	if err := run([]string{"-exp", "E1", "-quick", "-j", "0"}, &sb); err == nil {
		t.Error("-j 0 accepted")
	}
}

// The full CLI path must emit byte-identical output at any -j, and across
// repeated parallel runs: the acceptance bar for the parallel runner.
// Timing lines are wall-clock and are suppressed via -timings=false; every
// other byte, headers and CSV included, must match.
func TestJobsDeterminismEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full quick experiments")
	}
	runWith := func(jobs string, csvDir string) string {
		args := []string{"-exp", "E2,E4,E8", "-quick", "-seed", "42",
			"-timings=false", "-j", jobs}
		if csvDir != "" {
			args = append(args, "-csv", csvDir)
		}
		var sb strings.Builder
		if err := run(args, &sb); err != nil {
			t.Fatalf("-j %s: %v", jobs, err)
		}
		return sb.String()
	}
	dir1, dir8 := t.TempDir(), t.TempDir()
	serial := runWith("1", dir1)
	parallel := runWith("8", dir8)
	if serial != parallel {
		t.Fatalf("-j 1 and -j 8 outputs differ:\n--- j1 ---\n%s\n--- j8 ---\n%s", serial, parallel)
	}
	if again := runWith("8", ""); again != parallel {
		t.Fatal("two -j 8 runs differ: scheduling leaked into results")
	}
	// CSV side channel must be deterministic too.
	for _, name := range []string{"e2_0.csv", "e4_0.csv", "e8_0.csv", "e8_1.csv"} {
		a, err := os.ReadFile(filepath.Join(dir1, name))
		if err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
		b, err := os.ReadFile(filepath.Join(dir8, name))
		if err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
		if string(a) != string(b) {
			t.Errorf("%s differs between -j 1 and -j 8", name)
		}
	}
}

// The -csv directory is created before any experiment runs, so an
// unwritable path fails fast instead of after the first table's sweep.
func TestCSVDirCreatedUpFront(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "deep")
	var sb strings.Builder
	if err := run([]string{"-exp", "E1", "-quick", "-csv", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("csv dir not created: %v", err)
	}
}
