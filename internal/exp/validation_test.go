package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"checkpointsim/internal/storage"
)

// Every quick experiment must run clean under the trace-conformance
// checker (any invariant violation fails the run), and validation must be
// a pure observer: the rendered tables stay byte-identical to the
// unvalidated goldens.
func TestValidatedQuickSweepMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs quick experiments under validation")
	}
	for _, id := range allIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			o := DefaultOptions()
			o.Quick = true
			o.Validate = true
			got := renderOpts(t, id, o)
			path := filepath.Join("testdata", strings.ToLower(id)+"_quick_seed42.golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s validated output drifted from golden %s — validation perturbed results",
					id, path)
			}
		})
	}
}

// Under validation, every experiment that writes through Options.Storage
// hands its store to the trace checker, whose Finish reconciles the
// store's drain accounting against the trace of each run. With a
// constrained store the validated tables must equal the unvalidated ones,
// and the ones that keep the template's aggregate bandwidth must differ
// from the unconstrained goldens (the store really carried the writes).
// E17 sweeps the aggregate bandwidth itself and keeps the 1 GB/s writer
// cap, so its tables match its golden.
func TestValidatedStorageReconciles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs quick experiments under validation")
	}
	paths := corpusTraces(t)
	prog, name, digest, err := LoadTraceFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	trace := TraceExperiment(name, prog, digest)
	exps := []Experiment{trace}
	for _, id := range []string{"E4", "E8", "E17", "E19"} {
		e, _ := ByID(id)
		exps = append(exps, e)
	}
	render := func(t *testing.T, e Experiment, validate bool) string {
		o := DefaultOptions()
		o.Quick = true
		o.Validate = validate
		o.Storage = storage.Params{AggregateBytesPerSec: 2e9, PerWriterBytesPerSec: 1e9}
		tables, err := e.Run(o)
		if err != nil {
			t.Fatalf("%s (validate=%v): %v", e.ID, validate, err)
		}
		var sb strings.Builder
		for _, tb := range tables {
			sb.WriteString(tb.String())
			sb.WriteString("\n")
		}
		return sb.String()
	}
	for _, e := range exps {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			got := render(t, e, true)
			if plain := render(t, e, false); got != plain {
				t.Errorf("%s: validated storage run differs from the unvalidated one", e.ID)
			}
			golden := filepath.Join("testdata", strings.ToLower(e.ID)+"_quick_seed42.golden")
			if e.ID == trace.ID {
				golden = filepath.Join("testdata", "traces", name+".golden")
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if (got == string(want)) != (e.ID == "E17") {
				t.Errorf("%s: constrained-storage tables equal to golden = %v, want %v",
					e.ID, got == string(want), e.ID == "E17")
			}
		})
	}
}
