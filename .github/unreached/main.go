// Command unreached fails when the module declares a function that no
// front end links in.
//
// It builds every command under cmd/ and the perfbench harness with
// inlining off (-gcflags=all=-l), so that every function a binary reaches
// keeps its own text symbol, and reads those symbols with `go tool nm`.
// It then parses every non-test func declaration of the module (skipping
// perfbench/, testdata/ and directories whose names start with "." or
// "_") and reports each one that no binary contains and that
// allowlist.txt does not name. An allowlist entry that is reached, or
// that names no declaration, is reported too, so the list cannot go stale.
//
// Run it from the module root:
//
//	go run ./.github/unreached
package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

//go:embed allowlist.txt
var allowlistText string

const modulePath = "checkpointsim"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "unreached:", err)
		os.Exit(1)
	}
}

func run() error {
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the module root: %v", err)
	}
	allow, err := parseAllowlist(allowlistText)
	if err != nil {
		return err
	}
	reached, err := linkedSymbols()
	if err != nil {
		return err
	}
	decls, err := declarations(".")
	if err != nil {
		return err
	}

	var unreached, stale []string
	declared := make(map[string]bool, len(decls))
	for _, d := range decls {
		declared[d] = true
		switch {
		case reached[d] && allow[d] != "":
			stale = append(stale, d+" is reached; drop it from the allowlist")
		case !reached[d] && allow[d] == "":
			unreached = append(unreached, d)
		}
	}
	for name := range allow {
		if !declared[name] {
			stale = append(stale, name+" is allowlisted but not declared")
		}
	}
	sort.Strings(unreached)
	sort.Strings(stale)
	for _, s := range stale {
		fmt.Println("stale allowlist entry:", s)
	}
	for _, u := range unreached {
		fmt.Println("unreached:", u)
	}
	if n := len(unreached) + len(stale); n > 0 {
		return fmt.Errorf("%d unreached functions, %d stale allowlist entries", len(unreached), len(stale))
	}
	fmt.Printf("unreached: all %d declared functions are linked in or allowlisted (%d)\n", len(decls), len(allow))
	return nil
}

// parseAllowlist reads "name reason..." lines; blank lines and lines
// starting with # are skipped. Every entry must give a reason.
func parseAllowlist(text string) (map[string]string, error) {
	allow := make(map[string]string)
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			return nil, fmt.Errorf("allowlist.txt:%d: %s has no reason", i+1, name)
		}
		allow[name] = reason
	}
	return allow, nil
}

// linkedSymbols builds each front end without inlining and returns the
// normalized names of the text symbols linked into any of them. A main
// package's symbols are renamed from "main." to its import path.
func linkedSymbols() (map[string]bool, error) {
	tmp, err := os.MkdirTemp("", "unreached")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	type target struct{ dir, pkg, importPath string }
	var targets []target
	cmds, err := os.ReadDir("cmd")
	if err != nil {
		return nil, err
	}
	for _, c := range cmds {
		if c.IsDir() {
			targets = append(targets, target{".", "./cmd/" + c.Name(), modulePath + "/cmd/" + c.Name()})
		}
	}
	targets = append(targets, target{"perfbench", ".", modulePath + "/perfbench"})

	reached := make(map[string]bool)
	for i, t := range targets {
		bin := filepath.Join(tmp, fmt.Sprint("bin", i))
		build := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin, t.pkg)
		build.Dir = t.dir
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			return nil, fmt.Errorf("build %s: %v", t.importPath, err)
		}
		out, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			return nil, fmt.Errorf("nm %s: %v", t.importPath, err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
		for sc.Scan() {
			typ, sym := splitNM(sc.Text())
			if typ != "T" && typ != "t" {
				continue
			}
			sym = normalize(sym)
			if rest, ok := strings.CutPrefix(sym, "main."); ok {
				sym = t.importPath + "." + rest
			}
			reached[sym] = true
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return reached, nil
}

// splitNM splits a `go tool nm` line "  addr T name" into its type and
// symbol. The symbol is everything after the type field, since generic
// instantiations print names with spaces in them. Undefined symbols have
// no address.
func splitNM(line string) (typ, sym string) {
	first, rest, _ := strings.Cut(strings.TrimLeft(line, " "), " ")
	if len(rest) > 1 && rest[1] == ' ' { // first is the address
		return rest[:1], strings.TrimSpace(rest[2:])
	}
	return first, strings.TrimSpace(rest)
}

// normalize strips type arguments by bracket depth and the "-fm" suffix
// of method values, so that
// "pkg.(*Queue[go.shape.struct { … }]).Items" reads "pkg.(*Queue).Items".
func normalize(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return strings.TrimSuffix(b.String(), "-fm")
}

// declarations returns the symbol name of every non-test func
// declaration under root, in the form linkedSymbols reports.
func declarations(root string) ([]string, error) {
	var decls []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || path == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		importPath := modulePath
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			importPath += "/" + dir
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			decls = append(decls, importPath+"."+funcName(fn))
		}
		return nil
	})
	return decls, err
}

// funcName spells a declaration the way the linker names it: "F",
// "T.M" or "(*T).M", with any type parameters dropped.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = true, s.X
	}
	switch t := typ.(type) {
	case *ast.IndexExpr:
		typ = t.X
	case *ast.IndexListExpr:
		typ = t.X
	}
	recv := typ.(*ast.Ident).Name
	if star {
		return "(*" + recv + ")." + fn.Name.Name
	}
	return recv + "." + fn.Name.Name
}
