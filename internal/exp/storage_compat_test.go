package exp

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"checkpointsim/internal/storage"
)

// Backward-compatibility property: running the goldened experiments with an
// explicitly built but unconstrained store — the Unlimited path, as opposed
// to the nil store the zero Options take — must reproduce the committed
// seed-42 quick tables byte-for-byte. This pins the whole store-routed write
// plumbing (Options.Storage → run.Config.Storage → Assemble → Params.Store
// → storeWrite) to the legacy fixed-duration results whenever no tier is
// bandwidth-limited.
func TestUnlimitedStoreMatchesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs quick experiments")
	}
	for _, id := range []string{"E2", "E4", "E8"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			o := DefaultOptions()
			o.Quick = true
			o.Seed = 42
			// Non-zero parameters with every bandwidth unconstrained: the
			// experiments build a real store per simulation and the write
			// path must still be byte-identical to the legacy one.
			o.Storage = storage.Params{RanksPerNode: 1}
			got := renderOpts(t, id, o)
			path := filepath.Join("testdata", strings.ToLower(id)+"_quick_seed42.golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			if got != string(want) {
				t.Errorf("%s with the Unlimited store drifted from golden %s\n--- got ---\n%s--- want ---\n%s",
					id, path, got, want)
			}
		})
	}
}

// Every experiment that routes writes through Options.Storage rejects an
// invalid parameter set with a storage validation error, never with
// storage-free tables under a storage banner.
func TestInvalidStorageRejected(t *testing.T) {
	paths := corpusTraces(t)
	prog, name, digest, err := LoadTraceFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]func(Options) error{
		"trace": func(o Options) error { _, err := TraceExperiment(name, prog, digest).Run(o); return err },
	}
	for _, id := range []string{"E4", "E8", "E17", "E19"} {
		e, _ := ByID(id)
		runs[id] = func(o Options) error { _, err := e.Run(o); return err }
	}
	for id, run := range runs {
		o := DefaultOptions()
		o.Quick = true
		o.Storage = storage.Params{AggregateBytesPerSec: math.NaN()}
		if err := run(o); err == nil || !strings.Contains(err.Error(), "bad bandwidth") {
			t.Errorf("%s with NaN aggregate bandwidth: err = %v, want a storage validation error", id, err)
		}
	}
}
