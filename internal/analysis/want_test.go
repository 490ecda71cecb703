package analysis

// The fixture harness: testdata packages carry `// want "regexp"`
// comments on the lines where an analyzer must report, in the style of
// golang.org/x/tools' analysistest (reimplemented here to keep the
// module dependency-free). Every diagnostic must match a want on its
// line and every want must be matched — missing and unexpected findings
// both fail, so the fixtures pin positives AND negatives.

import (
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"testing"
)

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)
var quotedRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type wantExpectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// fixtureLoader is shared by every fixture test: the source importer
// type-checks the stdlib once (about 1.6 s) instead of once per fixture.
// Fixture tests run sequentially, and the driver likewise builds its
// Program over one load of the whole module, so a Program spanning
// earlier fixtures' packages is the production shape, not a shortcut.
var fixtureLoader struct {
	once   sync.Once
	loader *Loader
	err    error
}

// loadFixture loads one testdata package through the real loader and
// returns it with the loader, so callers can build a Program over
// everything the load pulled in (the fixture plus its stand-in
// dependency packages).
func loadFixture(t *testing.T, relDir string) (*Package, *Loader) {
	t.Helper()
	if testing.Short() {
		t.Skip("fixture loading type-checks the stdlib from source; skipped with -short")
	}
	fixtureLoader.once.Do(func() {
		modRoot, err := FindModuleRoot(".")
		if err == nil {
			fixtureLoader.loader, err = NewLoader(modRoot)
		}
		fixtureLoader.err = err
	})
	if fixtureLoader.err != nil {
		t.Fatal(fixtureLoader.err)
	}
	loader := fixtureLoader.loader
	pkg, err := loader.Load(filepath.Join(loader.ModRoot, filepath.FromSlash(relDir)))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range pkg.Errs {
		t.Errorf("fixture %s: %v", relDir, e)
	}
	if t.Failed() {
		t.FailNow()
	}
	return pkg, loader
}

// runWantTest applies one analyzer (with ignore directives and the
// interprocedural Program, as the driver would) and diffs the
// diagnostics against the want comments.
func runWantTest(t *testing.T, analyzerName, relDir string) {
	t.Helper()
	pkg, loader := loadFixture(t, relDir)
	var analyzer *Analyzer
	for _, a := range Analyzers() {
		if a.Name == analyzerName {
			analyzer = a
		}
	}
	if analyzer == nil {
		t.Fatalf("no analyzer %q", analyzerName)
	}
	prog := BuildProgram(loader.Packages())
	diags := applyIgnores(RunAnalyzer(analyzer, pkg, prog), collectIgnores(pkg.Fset, pkg.Files))
	wants := parseWants(t, pkg)

	for _, d := range diags {
		if !claimWant(wants, d) {
			t.Errorf("unexpected diagnostic at %s:%d: %s", filepath.Base(d.File), d.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing diagnostic at %s:%d: want match for %q",
				filepath.Base(w.file), w.line, w.raw)
		}
	}
}

// claimWant consumes the first unmatched expectation matching d.
func claimWant(wants []*wantExpectation, d Diagnostic) bool {
	for _, w := range wants {
		if !w.matched && w.file == d.File && w.line == d.Line && w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

// parseWants extracts every `// want "..."` comment in the package.
func parseWants(t *testing.T, pkg *Package) []*wantExpectation {
	t.Helper()
	var wants []*wantExpectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				quoted := quotedRE.FindAllStringSubmatch(m[1], -1)
				if len(quoted) == 0 {
					t.Fatalf("%s:%d: want comment with no quoted pattern", pos.Filename, pos.Line)
				}
				for _, q := range quoted {
					pattern, err := strconv.Unquote(`"` + q[1] + `"`)
					if err != nil {
						t.Fatalf("%s:%d: bad want quoting %q: %v", pos.Filename, pos.Line, q[1], err)
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pattern, err)
					}
					wants = append(wants, &wantExpectation{
						file: pos.Filename, line: pos.Line, re: re, raw: q[1],
					})
				}
			}
		}
	}
	return wants
}

// fixtureDir maps an analyzer fixture name to its testdata directory.
func fixtureDir(parts ...string) string {
	return filepath.ToSlash(filepath.Join(append([]string{"internal", "analysis", "testdata", "src"}, parts...)...))
}

// assertFixtureScoped guards the invariant scope mapping depends on:
// a fixture package under testdata/src must pretend to live at the
// mapped genie/... path.
func assertFixtureScoped(t *testing.T, pkg *Package, wantScope string) {
	t.Helper()
	if got := pkg.ScopePath(); got != wantScope {
		t.Fatalf("fixture scope path = %q, want %q", got, wantScope)
	}
}
