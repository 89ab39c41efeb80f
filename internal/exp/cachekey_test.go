package exp

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"checkpointsim/internal/cache"
	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/failure"
	"checkpointsim/internal/network"
	"checkpointsim/internal/noise"
	"checkpointsim/internal/run"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/storage"
	"checkpointsim/internal/workload"
)

func keyOf(id string, o Options) string { return cache.Key("test", o.CacheFields(id)) }

// Every knob that can change a completed run's rows must move the key.
func TestCacheFieldsCoverResultKnobs(t *testing.T) {
	base := DefaultOptions()
	mutations := map[string]func(*Options){
		"seed":              func(o *Options) { o.Seed = 43 },
		"quick":             func(o *Options) { o.Quick = true },
		"validate":          func(o *Options) { o.Validate = true },
		"net preset":        func(o *Options) { o.Net = network.EthernetClassParams() },
		"net latency":       func(o *Options) { o.Net = base.Net; o.Net.Latency++ },
		"net gap/byte":      func(o *Options) { o.Net = base.Net; o.Net.GapPerByte *= 2 },
		"net bisection":     func(o *Options) { o.Net = base.Net; o.Net.BisectionBytesPerSec = 1e9 },
		"storage aggregate": func(o *Options) { o.Storage.AggregateBytesPerSec = 1e9 },
		"storage writer":    func(o *Options) { o.Storage.PerWriterBytesPerSec = 1e9 },
		"storage node":      func(o *Options) { o.Storage.NodeBytesPerSec = 1e9 },
		"storage ranks":     func(o *Options) { o.Storage.RanksPerNode = 4 },
	}
	ref := keyOf("E1", base)
	for name, mutate := range mutations {
		o := base
		mutate(&o)
		if keyOf("E1", o) == ref {
			t.Errorf("mutating %s did not change the cache key", name)
		}
	}
	if keyOf("E2", base) == ref {
		t.Error("experiment id does not partition the key space")
	}
}

// Knobs that provably cannot change rows must not fragment the key space:
// worker count (determinism guarantee), telemetry, and cancellation.
func TestCacheFieldsIgnoreExecutionKnobs(t *testing.T) {
	base := DefaultOptions()
	ref := keyOf("E1", base)

	var events int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := base
	o.Jobs = 7
	o.Events = &events
	o.Ctx = ctx
	if keyOf("E1", o) != ref {
		t.Error("Jobs/Events/Ctx leaked into the cache key; identical configs at different parallelism would miss")
	}
}

// Net is addressed as resolved: the zero value and an explicit
// DefaultParams() run identically, so they must hit the same entry.
func TestCacheFieldsResolveNetDefault(t *testing.T) {
	zero := Options{Seed: 42}
	explicit := Options{Seed: 42, Net: network.DefaultParams()}
	if keyOf("E1", zero) != keyOf("E1", explicit) {
		t.Error("zero Net and DefaultParams() produce different keys for identical runs")
	}
}

// The storage zero value (legacy fixed-duration path) must key differently
// from any constrained store.
func TestCacheFieldsStorageZeroDistinct(t *testing.T) {
	base := DefaultOptions()
	constrained := base
	constrained.Storage = storage.Params{AggregateBytesPerSec: 64e9}
	if keyOf("E17", base) == keyOf("E17", constrained) {
		t.Error("constrained and unconstrained storage share a key")
	}
}

// A dead context aborts an experiment before any sweep point runs, and the
// error is the context's.
func TestExperimentContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := DefaultOptions()
	o.Quick = true
	o.Ctx = ctx
	var events int64
	o.Events = &events
	_, err := E1Validation(o)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if events != 0 {
		t.Errorf("%d simulation events ran under a dead context", events)
	}
}

// A timeout that expires mid-sweep surfaces context.DeadlineExceeded: the
// worker pool stops dequeuing points rather than running the sweep out.
func TestExperimentContextTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick experiment")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	o := DefaultOptions()
	o.Quick = true
	o.Ctx = ctx
	if _, err := E8Crossover(o); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// keyLeaf is one reachable field of a config struct: a keyed leaf, or a
// member tagged `cache:"-"` (which the walk does not descend into).
type keyLeaf struct {
	name   string
	path   []int
	tagged bool
}

// keyLeaves lists every reachable leaf of t, descending into nested structs
// and struct pointers the way cache.Fields does.
func keyLeaves(t reflect.Type, prefix string, path []int) []keyLeaf {
	var out []keyLeaf
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		l := keyLeaf{name: prefix + sf.Name, path: append(append([]int(nil), path...), i),
			tagged: sf.Tag.Get("cache") == "-"}
		ft := sf.Type
		if ft.Kind() == reflect.Pointer && ft.Elem().Kind() == reflect.Struct {
			ft = ft.Elem()
		}
		if !l.tagged && ft.Kind() == reflect.Struct {
			out = append(out, keyLeaves(ft, l.name+".", l.path)...)
			continue
		}
		out = append(out, l)
	}
	return out
}

// leafAt returns the settable field at path, allocating the struct
// pointers on the way.
func leafAt(v reflect.Value, path []int) reflect.Value {
	for _, i := range path {
		if v.Kind() == reflect.Pointer {
			if v.IsNil() {
				v.Set(reflect.New(v.Type().Elem()))
			}
			v = v.Elem()
		}
		v = v.Field(i)
	}
	return v
}

// nonZero builds a non-zero value of type t.
func nonZero(t *testing.T, typ reflect.Type) reflect.Value {
	switch typ.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return reflect.ValueOf(int64(1)).Convert(typ)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return reflect.ValueOf(uint64(1)).Convert(typ)
	case reflect.Float32, reflect.Float64:
		return reflect.ValueOf(0.5).Convert(typ)
	case reflect.Bool:
		return reflect.ValueOf(true)
	case reflect.String:
		return reflect.ValueOf("x").Convert(typ)
	case reflect.Pointer:
		return reflect.New(typ.Elem())
	case reflect.Slice:
		return reflect.MakeSlice(typ, 1, 1)
	case reflect.Func:
		return reflect.MakeFunc(typ, func([]reflect.Value) []reflect.Value { return nil })
	case reflect.Interface:
		if ctx := reflect.ValueOf(context.Background()); ctx.Type().Implements(typ) {
			return ctx
		}
	}
	t.Fatalf("no non-zero value for %s", typ)
	return reflect.Value{}
}

// checkKeyExact sets every reachable leaf of T, one at a time, on a value
// whose struct pointers are all allocated: each keyed leaf must move the
// key and each `cache:"-"` member must not, except those listed in set,
// which supplies their value and whose keys must move. The tagged members
// must be exactly unkeyed, so leaving a knob out of the key is a visible
// change to this test.
func checkKeyExact[T any](t *testing.T, key func(T) string, unkeyed []string, set map[string]any) {
	t.Helper()
	leaves := keyLeaves(reflect.TypeFor[T](), "", nil)
	var tagged []string
	for _, l := range leaves {
		if l.tagged {
			tagged = append(tagged, l.name)
		}
	}
	if !reflect.DeepEqual(tagged, unkeyed) {
		t.Errorf("%s: members tagged cache:\"-\" are %q, want %q", reflect.TypeFor[T](), tagged, unkeyed)
	}
	fresh := func() reflect.Value {
		v := reflect.New(reflect.TypeFor[T]()).Elem()
		for _, l := range leaves {
			leafAt(v, l.path)
		}
		return v
	}
	ref := key(fresh().Interface().(T))
	for _, l := range leaves {
		v := fresh()
		f := leafAt(v, l.path)
		val, special := set[l.name]
		if special {
			f.Set(reflect.ValueOf(val))
		} else {
			f.Set(nonZero(t, f.Type()))
		}
		moved := key(v.Interface().(T)) != ref
		switch {
		case (!l.tagged || special) && !moved:
			t.Errorf("setting %s did not change the cache key", l.name)
		case l.tagged && !special && moved:
			t.Errorf("setting %s (tagged cache:\"-\") changed the cache key", l.name)
		}
	}
}

// No setting escapes the key: every exported leaf of run.Config and
// exp.Options either moves the key or is declared out of it.
func TestCacheKeyCoversEveryLeaf(t *testing.T) {
	prog, err := workload.FromName("stencil2d", workload.CommonConfig{
		Base: workload.Base{Ranks: 4, Iterations: 2, Compute: ms(1)}, Bytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	checkKeyExact(t, func(c run.Config) string { return cache.Key("v", c.CacheFields()) },
		[]string{"Program", "Trace", "SnapshotEvery", "OnSnapshot", "ResumeFrom", "Validate"},
		map[string]any{"Program": prog})
	checkKeyExact(t, func(o Options) string { return keyOf("E1", o) },
		[]string{"Jobs", "Events", "Ctx", "Snapshots"}, nil)
}

// mutateLeaf sets f to a valid value different from its current one.
func mutateLeaf(t *testing.T, name string, f reflect.Value) {
	switch f.Kind() {
	case reflect.Int, reflect.Int64:
		f.SetInt(f.Int() + 1)
	case reflect.Uint8, reflect.Uint64:
		f.SetUint(f.Uint() + 1)
	case reflect.Float64:
		if v := f.Float(); v != 0 {
			f.SetFloat(2 * v)
		} else {
			f.SetFloat(0.5)
		}
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.String:
		alt := map[string]string{"Workload": "cg", "Protocol.Kind": "uncoordinated", "Protocol.Offset": "random"}
		f.SetString(alt[name])
	default:
		t.Fatalf("%s: no mutation for %s", name, f.Type())
	}
}

// A snapshot resumes only the run that took it: every keyed leaf of
// run.Config, and the Program, is sealed into the blob, so resuming under
// any other value fails with sim.ErrConfigMismatch instead of silently
// simulating a run that belongs to neither configuration.
func TestResumeRefusesEveryKeyedLeaf(t *testing.T) {
	base := run.Config{
		Workload: "stencil2d", Ranks: 4, Iterations: 6, Compute: ms(1), Jitter: 0.1, MsgBytes: 1024,
		Protocol: checkpoint.Config{Kind: checkpoint.KindCoordinated, Interval: ms(2), Write: ms(1) / 4},
		Noise:    &noise.Config{Period: ms(1), Duration: ms(1) / 100},
		Failures: &failure.Config{MTBF: 1000 * ms(1000), Restart: ms(1)},
		Seed:     3,
	}
	var blob []byte
	snap := base
	snap.SnapshotEvery = 200
	snap.OnSnapshot = func(s sim.Snapshot) {
		if blob == nil {
			blob = s.Blob
		}
	}
	want, err := run.Run(snap)
	if err != nil {
		t.Fatal(err)
	}
	if blob == nil {
		t.Fatal("the run took no snapshot")
	}
	resumed := base
	resumed.ResumeFrom = blob
	got, err := run.Run(resumed)
	if err != nil {
		t.Fatalf("resume under the unchanged config: %v", err)
	}
	if !bytes.Equal(got.CanonicalBytes(), want.CanonicalBytes()) {
		t.Error("resume under the unchanged config diverged from the uninterrupted run")
	}

	// Every mutation is one a fresh run accepts, so each leaf reaches the
	// config digest rather than failing earlier. The fresh run is capped at
	// 1 ns: only its acceptance matters, and some mutations (a storage
	// bandwidth of 0.5 B/s) would otherwise simulate for a long time.
	prog, err := workload.FromName("cg", workload.CommonConfig{
		Base: workload.Base{Ranks: 4, Iterations: 2, Compute: ms(1)}, Bytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range keyLeaves(reflect.TypeFor[run.Config](), "", nil) {
		if l.tagged && l.name != "Program" {
			continue
		}
		cfg := resumed
		cfg.Noise, cfg.Failures = new(noise.Config), new(failure.Config)
		*cfg.Noise, *cfg.Failures = *base.Noise, *base.Failures
		f := leafAt(reflect.ValueOf(&cfg).Elem(), l.path)
		if l.name == "Program" {
			f.Set(reflect.ValueOf(prog))
		} else {
			mutateLeaf(t, l.name, f)
		}
		fresh := cfg
		fresh.ResumeFrom, fresh.MaxTime = nil, 1
		if _, err := run.Run(fresh); err != nil && !errors.Is(err, sim.ErrCapExceeded) {
			t.Errorf("%s: a fresh run refused the mutated config: %v", l.name, err)
			continue
		}
		if _, err := run.Run(cfg); !errors.Is(err, sim.ErrConfigMismatch) {
			t.Errorf("%s: resume under a different value: %v, want ErrConfigMismatch", l.name, err)
		}
	}
}
