package cache

import (
	"strings"
	"testing"
)

func TestCanonicalOrderIndependent(t *testing.T) {
	a := Canonical([]Field{F("seed", "42"), F("exp", "E1"), F("quick", "true")})
	b := Canonical([]Field{F("quick", "true"), F("seed", "42"), F("exp", "E1")})
	if a != b {
		t.Fatalf("field order leaked into canonical form:\n%q\n%q", a, b)
	}
}

// The classic concatenation ambiguities must not collide: splitting a name
// across the name/value boundary, merging two fields into one, or moving a
// character between adjacent fields all change the canonical form.
func TestCanonicalInjectivityCorners(t *testing.T) {
	cases := [][2][]Field{
		{{F("ab", "c")}, {F("a", "bc")}},
		{{F("a", "b;2:cd")}, {F("a", "b"), F("cd", "")}},
		{{F("a", "1"), F("b", "2")}, {F("a", "12"), F("b", "")}},
		{{F("x", "")}, {F("", "x")}},
		{{F("k", "v")}, {F("k", "v"), F("k", "v")}}, // multiset: duplicates count
		{{F("k", "v")}, {}},
	}
	for i, c := range cases {
		if Canonical(c[0]) == Canonical(c[1]) {
			t.Errorf("case %d: distinct field sets share a canonical form %q", i, Canonical(c[0]))
		}
	}
}

func TestKeyVersionSeparation(t *testing.T) {
	fields := []Field{F("exp", "E1"), F("seed", "42")}
	if Key("v1", fields) == Key("v2", fields) {
		t.Error("code version does not partition the key space")
	}
	// Version/field boundary must be unambiguous too.
	if Key("v", []Field{F("a", "b")}) == Key("", []Field{F("va", "b")}) {
		t.Error("version bytes alias into field bytes")
	}
	k := Key("v1", fields)
	if len(k) != 64 || strings.ToLower(k) != k {
		t.Errorf("key %q is not lowercase hex sha256", k)
	}
}

type fieldsInner struct {
	Rate  float64
	Count uint16
}

type fieldsOuter struct {
	Name    string
	N       int64
	On      bool
	In      fieldsInner
	Opt     *fieldsInner
	Skipped func() `cache:"-"`
	hidden  []int  `cache:"-"`
}

// Fields names leaves by dotted path and renders each kind canonically.
func TestFieldsRendering(t *testing.T) {
	got := Fields(fieldsOuter{Name: "a b", N: -3, On: true,
		In: fieldsInner{Rate: 0.1, Count: 7}, Opt: &fieldsInner{Rate: 1e21}})
	want := []Field{F("Name", "a b"), F("N", "-3"), F("On", "true"),
		F("In.Rate", "0.1"), F("In.Count", "7"), F("Opt.Rate", "1e+21"), F("Opt.Count", "0")}
	if len(got) != len(want) {
		t.Fatalf("Fields = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("field %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// An absent sub-config and a present zero-valued one are different
// configurations, so they must key differently.
func TestFieldsNilPointerDistinctFromZero(t *testing.T) {
	absent := Key("v", Fields(fieldsOuter{}))
	zero := Key("v", Fields(fieldsOuter{Opt: &fieldsInner{}}))
	if absent == zero {
		t.Error("nil pointer and pointer to zero value share a key")
	}
	if got := Fields(fieldsOuter{}); got[len(got)-1] != F("Opt", "nil") {
		t.Errorf("nil pointer renders as %q, want Opt=nil", got[len(got)-1])
	}
}

// A field the encoder cannot render canonically panics instead of being
// silently left out of the key.
func TestFieldsRejectsUnkeyable(t *testing.T) {
	cases := map[string]any{
		"func":           struct{ F func() }{},
		"slice":          struct{ S []int }{},
		"map":            struct{ M map[string]int }{},
		"chan":           struct{ C chan int }{},
		"interface":      struct{ I any }{},
		"pointer to int": struct{ P *int }{},
		"unexported":     struct{ x int }{},
		"nested":         struct{ In struct{ S []byte } }{},
		"not a struct":   42,
	}
	for name, v := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("Fields(%T) did not panic", v)
				}
			}()
			Fields(v)
		})
	}
}
