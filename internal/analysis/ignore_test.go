package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseIgnores runs collectIgnores over a single in-memory source file
// named ignores.go.
func parseIgnores(t *testing.T, src string) []ignoreDirective {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "ignores.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("fixture source does not parse: %v", err)
	}
	return collectIgnores(fset, []*ast.File{f})
}

// TestIgnoreMultiDiagnosticLine: a single directive covers every
// matching diagnostic on its line, however many analyzers fired there.
func TestIgnoreMultiDiagnosticLine(t *testing.T) {
	directives := []ignoreDirective{
		{check: "timerleak", file: "x.go", line: 7},
	}
	diags := []Diagnostic{
		{Check: "timerleak", File: "x.go", Line: 7, Col: 2, Message: "first"},
		{Check: "timerleak", File: "x.go", Line: 7, Col: 30, Message: "second"},
		{Check: "timerleak", File: "x.go", Line: 8, Col: 2, Message: "line below (standalone form)"},
		{Check: "goleak", File: "x.go", Line: 7, Col: 2, Message: "different check, must survive"},
		{Check: "timerleak", File: "x.go", Line: 9, Col: 2, Message: "out of range, must survive"},
	}
	out := applyIgnores(diags, directives)
	if len(out) != 2 {
		t.Fatalf("got %d diagnostics, want 2 survivors: %+v", len(out), out)
	}
	if out[0].Check != "goleak" || out[1].Line != 9 {
		t.Fatalf("wrong survivors: %+v", out)
	}
}

// TestIgnoreAllOnLine: check ID "all" in a line directive suppresses
// every check on that line.
func TestIgnoreAllOnLine(t *testing.T) {
	directives := []ignoreDirective{{check: "all", file: "x.go", line: 4}}
	diags := []Diagnostic{
		{Check: "timerleak", File: "x.go", Line: 4},
		{Check: "goleak", File: "x.go", Line: 5},
		{Check: "goleak", File: "x.go", Line: 6},
	}
	out := applyIgnores(diags, directives)
	if len(out) != 1 || out[0].Line != 6 {
		t.Fatalf("want only the line-6 diagnostic to survive, got %+v", out)
	}
}

// TestFileIgnoreDirective: //lint:file-ignore suppresses the named
// check across its whole file — and only there, and only that check.
func TestFileIgnoreDirective(t *testing.T) {
	directives := parseIgnores(t, `// Package p.
//lint:file-ignore timerleak this file IS the chaos injector
package p
`)
	if len(directives) != 1 {
		t.Fatalf("got %d directives, want 1: %+v", len(directives), directives)
	}
	d := directives[0]
	if !d.fileWide || d.check != "timerleak" || d.broken != "" {
		t.Fatalf("bad parse: %+v", d)
	}
	diags := []Diagnostic{
		{Check: "timerleak", File: "ignores.go", Line: 10},
		{Check: "timerleak", File: "ignores.go", Line: 400},
		{Check: "goleak", File: "ignores.go", Line: 10, Message: "other check, must survive"},
		{Check: "timerleak", File: "other.go", Line: 10, Message: "other file, must survive"},
	}
	out := applyIgnores(diags, directives)
	if len(out) != 2 {
		t.Fatalf("got %d diagnostics, want 2 survivors: %+v", len(out), out)
	}
	for _, d := range out {
		if d.Check == "timerleak" && d.File == "ignores.go" {
			t.Fatalf("file-ignore failed to suppress %+v", d)
		}
	}
}

// TestFileIgnoreRejectsAll: a file exempt from every check should not
// be under analysis at all, so "all" is malformed for file-ignore.
func TestFileIgnoreRejectsAll(t *testing.T) {
	directives := parseIgnores(t, `package p

//lint:file-ignore all because reasons
`)
	if len(directives) != 1 || directives[0].broken == "" {
		t.Fatalf(`file-ignore "all" not marked malformed: %+v`, directives)
	}
	out := applyIgnores(nil, directives)
	if len(out) != 1 || out[0].Check != "lint" {
		t.Fatalf("malformed file-ignore not surfaced as a finding: %+v", out)
	}
	if !strings.Contains(out[0].Message, `"all"`) || !strings.Contains(out[0].Message, "lint:file-ignore") {
		t.Fatalf("finding message %q does not explain the rejection", out[0].Message)
	}
}

// TestMalformedDirectiveAudit walks every malformed shape through the
// parser and checks each one surfaces as an auditable "lint" finding
// with the directive's own position.
func TestMalformedDirectiveAudit(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		wantMsg string // substring of the resulting finding
	}{
		{
			name:    "line directive with no fields",
			src:     "package p\n\n//lint:ignore\n",
			wantMsg: "missing check ID and reason",
		},
		{
			name:    "line directive with check but no reason",
			src:     "package p\n\n//lint:ignore goleak\n",
			wantMsg: "missing reason",
		},
		{
			name:    "file directive with no fields",
			src:     "package p\n\n//lint:file-ignore\n",
			wantMsg: "missing check ID and reason",
		},
		{
			name:    "file directive with check but no reason",
			src:     "package p\n\n//lint:file-ignore goleak\n",
			wantMsg: "missing reason (format: //lint:file-ignore <check> <reason>)",
		},
		{
			name:    "line directive naming no registered check",
			src:     "package p\n\n//lint:ignore atomicmix the check was deleted\n",
			wantMsg: `unknown check "atomicmix"`,
		},
		{
			name:    "file directive with a misspelled check",
			src:     "package p\n\n//lint:file-ignore timerlaek chaos injector\n",
			wantMsg: `unknown check "timerlaek"`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			directives := parseIgnores(t, tc.src)
			if len(directives) != 1 {
				t.Fatalf("got %d directives, want 1: %+v", len(directives), directives)
			}
			if directives[0].broken == "" {
				t.Fatalf("directive not marked malformed: %+v", directives[0])
			}
			out := applyIgnores(nil, directives)
			if len(out) != 1 || out[0].Check != "lint" {
				t.Fatalf("malformed directive not reported: %+v", out)
			}
			if !strings.Contains(out[0].Message, tc.wantMsg) {
				t.Fatalf("message %q missing %q", out[0].Message, tc.wantMsg)
			}
			if out[0].File != "ignores.go" || out[0].Line != 3 {
				t.Fatalf("finding not anchored at the directive: %+v", out[0])
			}
		})
	}
}

// TestWellFormedDirectivesParse pins the happy-path shapes so the
// malformed checks cannot creep into them.
func TestWellFormedDirectivesParse(t *testing.T) {
	directives := parseIgnores(t, `package p

//lint:ignore goleak metrics flusher runs for process lifetime by design

//lint:ignore all generated shim

//lint:file-ignore timerleak chaos injector leaks timers on purpose
`)
	if len(directives) != 3 {
		t.Fatalf("got %d directives, want 3: %+v", len(directives), directives)
	}
	for i, d := range directives {
		if d.broken != "" {
			t.Errorf("directive %d spuriously malformed: %+v", i, d)
		}
	}
	if directives[0].check != "goleak" || directives[0].fileWide {
		t.Errorf("bad parse of line directive: %+v", directives[0])
	}
	if directives[1].check != "all" || directives[1].fileWide {
		t.Errorf(`bad parse of "all" line directive: %+v`, directives[1])
	}
	if directives[2].check != "timerleak" || !directives[2].fileWide {
		t.Errorf("bad parse of file directive: %+v", directives[2])
	}
}
