package genie_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goTestLine matches one `$(GO) test ...` recipe line of the Makefile.
var goTestLine = regexp.MustCompile(`^\s*\$\(GO\) test (.*)$`)

// flagArg matches `-run X` / `-bench X`, X bare or single-quoted.
var flagArg = regexp.MustCompile(`-(run|bench) ('[^']*'|\S+)`)

// TestMakefileSelectorsMatch: every alternative of every -run regex in
// the Makefile names at least one Test or Fuzz function of its package,
// and every -bench alternative at least one Benchmark — a selector that
// matches nothing makes its suite pass silently. Lines with -bench use
// -run only to exclude tests, so their -run is not checked. Names come
// from the package's _test.go files via go/parser; nothing is run.
func TestMakefileSelectorsMatch(t *testing.T) {
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i, line := range strings.Split(string(data), "\n") {
		m := goTestLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var pkg string
		for _, f := range strings.Fields(m[1]) {
			if strings.HasPrefix(f, "./") {
				pkg = f
			}
		}
		flags := map[string]string{}
		for _, fm := range flagArg.FindAllStringSubmatch(m[1], -1) {
			flags[fm[1]] = strings.Trim(fm[2], "'")
		}
		kind, sel := "run", flags["run"]
		if b, ok := flags["bench"]; ok {
			kind, sel = "bench", b
		}
		if sel == "" {
			continue
		}
		if strings.HasSuffix(pkg, "...") {
			t.Errorf("Makefile:%d: -%s %q over %s: selectors are checked per package", i+1, kind, sel, pkg)
			continue
		}
		names := testFuncs(t, pkg, kind)
		for _, alt := range topLevelAlternatives(sel) {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("Makefile:%d: bad -%s alternative %q: %v", i+1, kind, alt, err)
				continue
			}
			found := false
			for _, n := range names {
				if re.MatchString(n) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("Makefile:%d: -%s alternative %q matches no function in %s", i+1, kind, alt, pkg)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no -run or -bench selector found in the Makefile")
	}
}

// testFuncs lists the Test/Fuzz (kind "run") or Benchmark (kind
// "bench") functions declared in dir's _test.go files.
func testFuncs(t *testing.T, dir, kind string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(filepath.FromSlash(dir), "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no test files in %s (%v)", dir, err)
	}
	prefixes := []string{"Test", "Fuzz"}
	if kind == "bench" {
		prefixes = []string{"Benchmark"}
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil {
				continue
			}
			for _, p := range prefixes {
				if strings.HasPrefix(fd.Name.Name, p) {
					names = append(names, fd.Name.Name)
				}
			}
		}
	}
	return names
}

// topLevelAlternatives splits a regex at the `|` operators outside any
// group.
func topLevelAlternatives(re string) []string {
	var alts []string
	depth, start := 0, 0
	for i := 0; i < len(re); i++ {
		switch re[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, re[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, re[start:])
}
