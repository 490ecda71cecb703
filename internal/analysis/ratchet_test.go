package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

// ignoreBudget pins how many //lint:ignore directives the module holds
// for every registered check. The count may only shrink: a change that
// adds an exception to any check fails here, and one that removes
// exceptions must lower the pin, so the next change cannot quietly
// spend them again.
var ignoreBudget = map[string]int{
	"ctxflow":     3,
	"deadexport":  46,
	"errcheck":    2,
	"goleak":      0,
	"kvscope":     0,
	"lockscope":   1,
	"planver":     0,
	"retrynaked":  0,
	"spanbalance": 0,
	"tensormut":   0,
	"timerleak":   0,
}

// TestIgnoreRatchet counts the directives in every non-test file the
// driver would analyze under ./... and compares each against its pin.
func TestIgnoreRatchet(t *testing.T) {
	modRoot, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := ExpandPatterns(modRoot, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(modRoot)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, dir := range dirs {
		names, err := goFiles(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			f, err := parser.ParseFile(loader.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
	}
	got := make(map[string]int)
	for _, d := range collectIgnores(loader.Fset, files) {
		if d.broken == "" {
			got[d.check]++
		}
	}
	for _, a := range Analyzers() {
		if _, ok := ignoreBudget[a.Name]; !ok {
			t.Errorf("check %s has no pin: add it to ignoreBudget at %d", a.Name, got[a.Name])
		}
	}
	for check, n := range got {
		if _, ok := ignoreBudget[check]; !ok {
			t.Errorf("%d //lint:ignore %s directives and no pin for %q: name one check per directive and fix the findings", n, check, check)
		}
	}
	for check, pin := range ignoreBudget {
		switch n := got[check]; {
		case !isCheck(check):
			t.Errorf("ignoreBudget pins %s, which is no registered check: drop the pin", check)
		case n > pin:
			t.Errorf("%d //lint:ignore %s directives, pinned at %d: fix the new findings instead of ignoring them", n, check, pin)
		case n < pin:
			t.Errorf("%d //lint:ignore %s directives, pinned at %d: lower the pin in ignoreBudget to %d", n, check, pin, n)
		}
	}
}

// flagBudget pins how many command-line flags each cmd/* binary
// declares. Like ignoreBudget it only shrinks: a value the program can
// derive from what it already knows (a library default, the backend
// count, an environment variable it already reads) is not a flag, so a
// change that adds one fails here, and one that removes flags must
// lower the pin.
var flagBudget = map[string]int{
	"genie-bench":   11,
	"genie-gateway": 22,
	"genie-lint":    3,
	"genie-server":  6,
	"genie-viz":     6,
}

// flagDefiners are the package flag functions that declare one flag.
var flagDefiners = map[string]bool{
	"String": true, "Int": true, "Int64": true, "Bool": true,
	"Duration": true, "Float64": true, "Var": true,
}

// TestFlagRatchet counts the flag.X calls in the non-test files of
// every main package under cmd/ and compares each against its pin.
func TestFlagRatchet(t *testing.T) {
	modRoot, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(modRoot, "cmd"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	seen := make(map[string]bool)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		cmd := e.Name()
		dir := filepath.Join(modRoot, "cmd", cmd)
		names, err := goFiles(dir)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			n += countFlagDefs(f)
		}
		seen[cmd] = true
		pin, ok := flagBudget[cmd]
		switch {
		case !ok:
			t.Errorf("cmd/%s declares %d flags and has no pin: add it to flagBudget", cmd, n)
		case n > pin:
			t.Errorf("cmd/%s declares %d flags, pinned at %d: derive the new value instead of adding a flag", cmd, n, pin)
		case n < pin:
			t.Errorf("cmd/%s declares %d flags, pinned at %d: lower the pin in flagBudget to %d", cmd, n, pin, n)
		}
	}
	for cmd := range flagBudget {
		if !seen[cmd] {
			t.Errorf("flagBudget pins cmd/%s, which does not exist: drop the pin", cmd)
		}
	}
}

// countFlagDefs counts the calls flag.String, flag.Int, ... in f.
func countFlagDefs(f *ast.File) int {
	n := 0
	ast.Inspect(f, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "flag" && flagDefiners[sel.Sel.Name] {
			n++
		}
		return true
	})
	return n
}
