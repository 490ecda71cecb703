package analysis

import (
	"go/ast"
	"go/parser"
	"path/filepath"
	"testing"
)

// ignoreBudget pins how many //lint:ignore directives the module holds
// per check. The count may only shrink: a change that adds an exception
// fails here, and one that removes exceptions must lower the pin, so
// the next change cannot quietly spend them again.
var ignoreBudget = map[string]int{
	"deadexport": 52,
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
		got[d.check]++
	}
	for check, pin := range ignoreBudget {
		switch n := got[check]; {
		case n > pin:
			t.Errorf("%d //lint:ignore %s directives, pinned at %d: fix the new findings instead of ignoring them", n, check, pin)
		case n < pin:
			t.Errorf("%d //lint:ignore %s directives, pinned at %d: lower the pin in ignoreBudget to %d", n, check, pin, n)
		}
	}
}
