package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Loader type-checks module packages from source. Module-internal import
// paths are resolved by the loader itself (so a package and its
// dependents share one *types.Package); everything else — the standard
// library — is delegated to the stdlib "source" importer. No compiled
// export data and no external dependencies are involved.
type Loader struct {
	Fset    *token.FileSet
	ModRoot string
	ModPath string

	pkgs    map[string]*Package // import path -> loaded package
	loading map[string]bool     // import-cycle guard
	// overlay replaces the contents of the named files (absolute paths)
	// without touching the disk; the mutation test edits source here.
	overlay map[string][]byte
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path (e.g. genie/internal/serve)
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File // non-test files only
	Types *types.Package
	Info  *types.Info
	// Errs holds parse and type errors; a package with errors is not
	// analyzable and the driver reports it as a load failure.
	Errs []error
}

// testdataMarker splits a testdata package path from the path it
// pretends to live at, so analyzer scoping works identically on fixture
// packages: genie/internal/analysis/testdata/src/internal/serve/x scopes
// as genie/internal/serve/x.
const testdataMarker = "/testdata/src/"

// ScopePath returns the path analyzers should use for scope decisions.
func (p *Package) ScopePath() string {
	return scopePath(p.Path)
}

func scopePath(path string) string {
	if i := strings.Index(path, testdataMarker); i >= 0 {
		return "genie/" + path[i+len(testdataMarker):]
	}
	return path
}

// NewLoader builds a loader for the module rooted at modRoot (the
// directory containing go.mod).
func NewLoader(modRoot string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Loader{
		Fset:    stdFileSet(),
		ModRoot: modRoot,
		ModPath: modPath,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// std is the process's one stdlib source importer and the file set it
// records positions in. The importer type-checks the standard library
// from source, which costs seconds; every Loader in a process (the
// driver's, each test's) shares what it has already checked instead of
// checking it again. The source importer is not safe for concurrent
// use, hence mu.
var std struct {
	once sync.Once
	mu   sync.Mutex
	fset *token.FileSet
	imp  types.Importer
}

func stdFileSet() *token.FileSet {
	std.once.Do(func() {
		std.fset = token.NewFileSet()
		std.imp = importer.ForCompiler(std.fset, "source", nil)
	})
	return std.fset
}

// Packages returns every package the loader has type-checked so far —
// the requested ones plus all their module-internal dependencies —
// sorted by import path. This is the input set for BuildProgram: one
// shared type-checked load feeds both the per-package analyzers and the
// module-wide interprocedural index.
func (l *Loader) Packages() []*Package {
	out := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Import implements types.Importer. Module-internal paths load through
// the loader; all other paths go to the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		p, err := l.Load(filepath.Join(l.ModRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if len(p.Errs) > 0 {
			return nil, p.Errs[0]
		}
		return p.Types, nil
	}
	std.mu.Lock()
	defer std.mu.Unlock()
	return std.imp.Import(path)
}

// Load parses and type-checks the package in dir (non-test files only),
// caching by import path. Type errors are collected on the returned
// Package rather than aborting, so the driver can report all of them.
func (l *Loader) Load(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path, err := l.importPath(abs)
	if err != nil {
		return nil, err
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	p := &Package{Path: path, Dir: abs, Fset: l.Fset}
	names, err := goFiles(abs)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", abs)
	}
	for _, name := range names {
		file := filepath.Join(abs, name)
		var src any // nil: read the file from disk
		if b, ok := l.overlay[file]; ok {
			src = b
		}
		f, err := parser.ParseFile(l.Fset, file, src, parser.ParseComments)
		if err != nil {
			p.Errs = append(p.Errs, err)
			continue
		}
		p.Files = append(p.Files, f)
	}
	p.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	cfg := types.Config{
		Importer: l,
		Error:    func(err error) { p.Errs = append(p.Errs, err) },
	}
	p.Types, _ = cfg.Check(path, l.Fset, p.Files, p.Info)
	l.pkgs[path] = p
	return p, nil
}

// importPath maps an absolute directory inside the module to its import
// path.
func (l *Loader) importPath(abs string) (string, error) {
	rel, err := filepath.Rel(l.ModRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", abs, l.ModRoot)
	}
	if rel == "." {
		return l.ModPath, nil
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

// goFiles lists the non-test Go files of dir in sorted order.
func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// ExpandPatterns resolves go-tool-style package patterns ("./...",
// "./internal/...", a plain directory) to package directories. The
// recursive walk skips testdata, hidden, and VCS directories — exactly
// like the go tool — but a directory named explicitly is always
// included, which is how the driver tests point at fixtures.
func ExpandPatterns(modRoot string, patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			root := filepath.Join(modRoot, filepath.FromSlash(strings.TrimSuffix(rest, "/")))
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				names, err := goFiles(path)
				if err != nil {
					return err
				}
				if len(names) > 0 {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		add(filepath.Join(modRoot, filepath.FromSlash(pat)))
	}
	return dirs, nil
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		abs = parent
	}
}
