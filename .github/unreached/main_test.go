package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func TestSplitNM(t *testing.T) {
	for _, c := range []struct{ line, typ, sym string }{
		{"  4dcaa0 T checkpointsim/internal/stats.Mean", "T", "checkpointsim/internal/stats.Mean"},
		{"  4db7a0 T pkg.(*Queue[go.shape.struct { a int32; b int64 }]).Items",
			"T", "pkg.(*Queue[go.shape.struct { a int32; b int64 }]).Items"},
		{"         U pkg.undefined", "U", "pkg.undefined"},
		{"       0 _ go.go", "_", "go.go"},
	} {
		typ, sym := splitNM(c.line)
		if typ != c.typ || sym != c.sym {
			t.Errorf("splitNM(%q) = %q, %q; want %q, %q", c.line, typ, sym, c.typ, c.sym)
		}
	}
}

func TestNormalize(t *testing.T) {
	for in, want := range map[string]string{
		"pkg.(*Queue[go.shape.struct { a [4]int; b map[string]int }]).Items": "pkg.(*Queue).Items",
		"pkg.Map[go.shape.int,go.shape.string]":                              "pkg.Map",
		"pkg.(*Server).handle-fm":                                            "pkg.(*Server).handle",
		"pkg.Time.Add":                                                       "pkg.Time.Add",
	} {
		if got := normalize(in); got != want {
			t.Errorf("normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestFuncName(t *testing.T) {
	src := `package p
func F() {}
func (T) M() {}
func (*T) P() {}
func (q *Queue[T]) Items() {}
func (m Pair[K, V]) Key() {}
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"F", "T.M", "(*T).P", "(*Queue).Items", "Pair.Key"}
	for i, d := range f.Decls {
		if got := funcName(d.(*ast.FuncDecl)); got != want[i] {
			t.Errorf("decl %d: funcName = %q, want %q", i, got, want[i])
		}
	}
}

func TestParseAllowlist(t *testing.T) {
	allow, err := parseAllowlist("# comment\n\npkg.F kept for a reason\n")
	if err != nil || allow["pkg.F"] != "kept for a reason" || len(allow) != 1 {
		t.Errorf("parseAllowlist = %v, %v", allow, err)
	}
	if _, err := parseAllowlist("pkg.F\n"); err == nil {
		t.Error("an entry without a reason was accepted")
	}
}
