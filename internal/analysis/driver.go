package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Exit codes of the driver (and of cmd/genie-lint).
const (
	ExitClean    = 0 // no findings
	ExitFindings = 1 // at least one diagnostic
	ExitError    = 2 // load failure, type error, or bad usage
)

// Options configures one driver run.
type Options struct {
	// Dir is where module-root discovery starts ("" = current directory).
	Dir string
	// Checks restricts the run to the named analyzers (nil = all).
	Checks []string
	// JSON switches the report to a JSON array of Diagnostic objects.
	JSON bool
	// Out and Errout receive the report and load errors respectively.
	Out    io.Writer
	Errout io.Writer
}

// Run loads the packages matched by patterns, applies the analyzer
// registry, filters //lint:ignore directives, prints the report, and
// returns the process exit code.
func Run(patterns []string, opts Options) int {
	if opts.Out == nil || opts.Errout == nil {
		panic("analysis: Options.Out and Errout are required")
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	modRoot, err := FindModuleRoot(opts.Dir)
	if err != nil {
		fmt.Fprintln(opts.Errout, err)
		return ExitError
	}
	analyzers, err := selectAnalyzers(opts.Checks)
	if err != nil {
		fmt.Fprintln(opts.Errout, err)
		return ExitError
	}
	loader, err := NewLoader(modRoot)
	if err != nil {
		fmt.Fprintln(opts.Errout, err)
		return ExitError
	}
	dirs, err := ExpandPatterns(modRoot, patterns)
	if err != nil {
		fmt.Fprintln(opts.Errout, err)
		return ExitError
	}

	// Phase 1: load every requested package (the loader pulls in
	// module-internal dependencies transitively, each type-checked once).
	var pkgs []*Package
	loadFailed := false
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			fmt.Fprintf(opts.Errout, "genie-lint: %v\n", err)
			loadFailed = true
			continue
		}
		if len(pkg.Errs) > 0 {
			for _, e := range pkg.Errs {
				fmt.Fprintf(opts.Errout, "genie-lint: %s: %v\n", pkg.Path, e)
			}
			loadFailed = true
			continue
		}
		pkgs = append(pkgs, pkg)
	}
	if loadFailed {
		return ExitError
	}

	// Phase 2: build the interprocedural index over everything the
	// loader saw — requested packages and their dependencies alike, so
	// summaries cross package boundaries.
	prog := BuildProgram(loader.Packages())
	prog.refs.complete = coversModule(loader, modRoot)

	// Phase 3: analyze the requested packages in parallel. Results land
	// in a per-package slot so the report order is deterministic
	// regardless of scheduling.
	perPkg := make([][]Diagnostic, len(pkgs))
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			var pkgDiags []Diagnostic
			for _, a := range analyzers {
				pkgDiags = append(pkgDiags, RunAnalyzer(a, pkg, prog)...)
			}
			perPkg[i] = applyIgnores(pkgDiags, collectIgnores(pkg.Fset, pkg.Files))
		}(i, pkg)
	}
	wg.Wait()
	var diags []Diagnostic
	for _, pd := range perPkg {
		diags = append(diags, pd...)
	}

	for i := range diags {
		if rel, err := filepath.Rel(modRoot, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = filepath.ToSlash(rel)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})

	if opts.JSON {
		enc := json.NewEncoder(opts.Out)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []Diagnostic{} // JSON: always an array, never null
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(opts.Errout, err)
			return ExitError
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(opts.Out, d)
		}
	}
	if len(diags) > 0 {
		return ExitFindings
	}
	return ExitClean
}

// coversModule reports whether the loader saw every package of the
// module, so a use index built over its packages is the whole story.
func coversModule(loader *Loader, modRoot string) bool {
	all, err := ExpandPatterns(modRoot, []string{"./..."})
	if err != nil {
		return false
	}
	for _, dir := range all {
		path, err := loader.importPath(dir)
		if err != nil {
			return false
		}
		if p, ok := loader.pkgs[path]; !ok || len(p.Errs) > 0 {
			return false
		}
	}
	return true
}

// selectAnalyzers resolves a -checks filter against the registry.
func selectAnalyzers(checks []string) ([]*Analyzer, error) {
	all := Analyzers()
	if len(checks) == 0 {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range checks {
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("genie-lint: unknown check %q (have %s)", name, strings.Join(names(all), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

func names(as []*Analyzer) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return out
}
