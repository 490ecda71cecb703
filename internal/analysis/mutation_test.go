package analysis

// The mutation table: every check shows that it can still fire. Each
// row applies one realistic edit to today's non-test source through the
// loader's in-memory overlay (no file on disk changes) and asserts that
// the edited package type-checks and that the row's check reports at
// the named line and nowhere else. A check for which no compiling edit
// of the real tree exists guards something the types already rule out;
// delete it instead of adding a row.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mutation is one edit of a module source file that one check must
// catch.
type mutation struct {
	check string
	file  string // module-relative, slash-separated
	old   string // must occur exactly once in file
	new   string
	// at is the text of the line the check must report on; it must
	// occur exactly once in the edited package. Empty means the first
	// line of new.
	at string
}

var mutations = []mutation{
	{
		// The hedged lanes detach from the caller: a cancelled request
		// no longer stops its prefill RPCs.
		check: "ctxflow",
		file:  "internal/kvcache/split.go",
		old:   "hctx, cancel := context.WithCancel(ctx)",
		new:   "hctx, cancel := context.WithCancel(context.Background())",
	},
	{
		// The hedge worker reports before releasing its lane's call
		// lock, holding it across a channel send.
		check: "lockscope",
		file:  "internal/kvcache/split.go",
		old: `			call.Unlock()
			ch <- result{ok, err, isBackup}`,
		new: `			ch <- result{ok, err, isBackup}
			call.Unlock()`,
	},
	{
		// The lane loop polls instead of selecting on wake and stop:
		// Drain can no longer end it.
		check: "goleak",
		file:  "internal/serve/lane.go",
		old: `		l.maybeProbe()
		if wait := l.idleWait(); wait > 0 {
			// Wake on our own: when the quarantine dwell lapses with work
			// still queued, and on the health prober's cadence.
			t := time.NewTimer(wait)
			select {
			case <-l.wake:
				t.Stop()
			case <-t.C:
			case <-l.e.stop:
				t.Stop()
				return
			}
			continue
		}
		select {
		case <-l.wake:
		case <-l.e.stop:
			return
		}
	}`,
		new: `		l.maybeProbe()
		time.Sleep(l.idleWait())
	}`,
		at: "go l.run()",
	},
	{
		// The explicit discard of a socket option's error is dropped.
		check: "errcheck",
		file:  "internal/backend/serve.go",
		old:   "_ = tc.SetNoDelay(true)",
		new:   "tc.SetNoDelay(true)",
	},
	{
		// Page rows are copied through raw views instead of the tensor
		// package's row copy.
		check: "tensormut",
		file:  "internal/kvcache/page.go",
		old: `	tmp, err := tensor.CopyRowRange(src, lo, hi)
	if err != nil {
		return err
	}
	defer tmp.Release()
	return tensor.CopyRowsAt(dst, tmp, at)`,
		new: `	dim := src.Shape()[1]
	copy(dst.F32()[at*dim:], src.F32()[lo*dim:hi*dim])
	return nil`,
		at: "copy(dst.F32()[at*dim:], src.F32()[lo*dim:hi*dim])",
	},
	{
		// The repair loop stops consulting the caller's deadline, so a
		// churn storm retries a dead pool back to back.
		check: "retrynaked",
		file:  "internal/runtime/session.go",
		old: `		// A repaired retry must not outlive the request: the caller's
		// deadline is the only thing bounding a churn storm.
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return 0, nil, nil, err
			}
		}
`,
		new: "",
		at:  "tok, _, _, repair, err = s.pass(ctx, true, s.log[:s.hist], 0, nil)",
	},
	{
		// The split handoff keeps a prefix row under a bare key that a
		// second session on the decode backend would collide with.
		check: "kvscope",
		file:  "internal/kvcache/split.go",
		old:   "hx.Keep[full.ID()] = scope + models.CacheRef(i, half.name)",
		new:   "hx.Keep[full.ID()] = models.CacheRef(i, half.name)",
	},
	{
		// A sanity check reads the departed plan after the swap
		// replaced it.
		check: "planver",
		file:  "internal/pool/pool.go",
		old: `	m.swapPlan(pl.finish(old.strategy, owners, ver), nil, ver)
	m.rebuilds.Inc()`,
		new: `	m.swapPlan(pl.finish(old.strategy, owners, ver), nil, ver)
	if ver <= old.version {
		return fmt.Errorf("pool: plan version %d does not advance past %d", ver, old.version)
	}
	m.rebuilds.Inc()`,
		at: "if ver <= old.version {",
	},
	{
		// The HTTP root span is never ended, so every request's trace
		// goes missing.
		check: "spanbalance",
		file:  "internal/serve/http.go",
		old: `		defer root.End()
`,
		new: "",
		at:  `ctx, root := e.tracer.StartRoot(r.Context(), "http.generate")`,
	},
	{
		// The hedge deadline races time.After in the select loop; the
		// timer leaks whenever a lane answers first.
		check: "timerleak",
		file:  "internal/kvcache/split.go",
		old:   "case <-timer.C:",
		new:   "case <-time.After(deadline):",
	},
	{
		// An exported accessor that only a test would call.
		check: "deadexport",
		file:  "internal/health/health.go",
		old:   "func (t *Tracker) Name() string { return t.name }",
		new: `func (t *Tracker) Name() string { return t.name }

// Dwelling reports whether the tracker is still dwelling after a trip.
func (t *Tracker) Dwelling() bool { return t.RetryAfter() > 0 }`,
		at: "func (t *Tracker) Dwelling() bool { return t.RetryAfter() > 0 }",
	},
}

// moduleLoader type-checks the whole module once for the mutation
// rows, reusing the module packages the fixture loader already checked.
func moduleLoader(t *testing.T) *Loader {
	t.Helper()
	_, fx := loadFixture(t, fixtureDir("internal", "clean"))
	base := childLoader(fx, func(path string) bool { return strings.Contains(path, testdataMarker) })
	dirs, err := ExpandPatterns(base.ModRoot, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		pkg, err := base.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range pkg.Errs {
			t.Fatalf("%s: %v", pkg.Path, e)
		}
	}
	return base
}

// childLoader returns a loader sharing every package of l for which
// drop is false.
func childLoader(l *Loader, drop func(path string) bool) *Loader {
	c := &Loader{
		Fset: l.Fset, ModRoot: l.ModRoot, ModPath: l.ModPath,
		pkgs: make(map[string]*Package), loading: make(map[string]bool),
	}
	for path, p := range l.pkgs {
		if !drop(path) {
			c.pkgs[path] = p
		}
	}
	return c
}

// analyze runs the named checks (all when none are named) over pkgs as
// the driver does: one Program over everything loaded, ignore
// directives applied.
func analyze(l *Loader, pkgs []*Package, checks ...string) ([]Diagnostic, error) {
	analyzers, err := selectAnalyzers(checks)
	if err != nil {
		return nil, err
	}
	prog := BuildProgram(l.Packages())
	prog.refs.complete = true
	var diags []Diagnostic
	for _, pkg := range pkgs {
		var pd []Diagnostic
		for _, a := range analyzers {
			pd = append(pd, RunAnalyzer(a, pkg, prog)...)
		}
		diags = append(diags, applyIgnores(pd, collectIgnores(pkg.Fset, pkg.Files))...)
	}
	return diags, nil
}

// importers returns path and every loaded package that imports it,
// directly or not.
func importers(l *Loader, path string) map[string]bool {
	out := map[string]bool{path: true}
	for grew := true; grew; {
		grew = false
		for p, pkg := range l.pkgs {
			if out[p] {
				continue
			}
			for _, imp := range pkg.Types.Imports() {
				if out[imp.Path()] {
					out[p], grew = true, true
					break
				}
			}
		}
	}
	return out
}

func TestMutationsFire(t *testing.T) {
	base := moduleLoader(t)
	diags, err := analyze(base, base.Packages())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unedited tree is not clean: %s", d)
	}
	rows := make(map[string]bool)
	for _, m := range mutations {
		rows[m.check] = true
	}
	for _, a := range Analyzers() {
		if !rows[a.Name] {
			t.Errorf("check %s has no mutation row: add an edit of the real tree it catches, or delete the check", a.Name)
		}
	}
	for _, m := range mutations {
		t.Run(m.check, func(t *testing.T) { runMutation(t, base, m) })
	}
}

// runMutation applies one row's edit on a child of base that re-checks
// the edited package, and asserts the row's check reports exactly at
// the row's line.
func runMutation(t *testing.T, base *Loader, m mutation) {
	file := filepath.Join(base.ModRoot, filepath.FromSlash(m.file))
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(src), m.old); n != 1 {
		t.Fatalf("%s: edit anchor occurs %d times, want 1: %q", m.file, n, m.old)
	}
	edited := strings.Replace(string(src), m.old, m.new, 1)
	path, err := base.importPath(filepath.Dir(file))
	if err != nil {
		t.Fatal(err)
	}
	stale := importers(base, path)
	child := childLoader(base, func(p string) bool { return stale[p] })
	child.overlay = map[string][]byte{file: []byte(edited)}
	// Only deadexport's answer depends on the edited package's importers
	// (its use index spans the module); for every other check they are
	// dropped, not re-checked.
	if m.check != DeadexportAnalyzer.Name {
		stale = map[string]bool{path: true}
	}
	for p := range stale {
		pkg, err := child.Load(base.pkgs[p].Dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range pkg.Errs {
			t.Fatalf("edited tree does not type-check: %v", e)
		}
	}
	pkg := child.pkgs[path]

	at := m.at
	if at == "" {
		at, _, _ = strings.Cut(m.new, "\n")
	}
	wantFile, wantLine := "", 0
	for _, f := range pkg.Files {
		name := child.Fset.Position(f.Pos()).Filename
		text := edited
		if name != file {
			b, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			text = string(b)
		}
		n := strings.Count(text, at)
		if n == 0 {
			continue
		}
		if n > 1 || wantFile != "" {
			t.Fatalf("line text %q is not unique in %s", at, path)
		}
		before, _, _ := strings.Cut(text, at)
		wantFile, wantLine = name, strings.Count(before, "\n")+1
	}
	if wantFile == "" {
		t.Fatalf("line text %q not found in %s", at, path)
	}

	diags, err := analyze(child, []*Package{pkg}, m.check)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatalf("%s reports nothing after the edit of %s; want a finding at %s:%d",
			m.check, m.file, filepath.Base(wantFile), wantLine)
	}
	for _, d := range diags {
		if d.File != wantFile || d.Line != wantLine {
			t.Errorf("finding away from the edit (want %s:%d): %s", filepath.Base(wantFile), wantLine, d)
		}
	}
}
