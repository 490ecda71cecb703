package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeadexportAnalyzer flags exported API under internal/ that no program
// reaches: a function, method or type that no non-test file of the
// module references. Tests alone do not keep code alive — an export
// only its own tests call is a side door nobody walks through, and it
// costs every reader of the package. The fix is to delete it, or to
// annotate why it stays (a test fake, a mechanism another change will
// wire in) with //lint:ignore deadexport <reason>; the number of those
// directives is pinned by a shrink-only test.
//
// The rules are reference-based, not a reachability analysis:
//   - any use in a non-test file counts, except uses inside the
//     symbol's own declaration (recursion, a type's own methods);
//   - uses from internal/analysis/testdata count only for symbols
//     declared there, so fixtures never keep real code alive;
//   - a method whose name matches a method of some interface type in
//     the module or the standard library counts as used, since a
//     dynamic call may reach it (a cheap, conservative stand-in for
//     rapid type analysis);
//   - a symbol that only the public facade (a non-main package outside
//     internal/, i.e. genie.go) uses is reported in its own "facade
//     only" category: such code is reached by the facade's callers,
//     which may all be tests.
//
// A reference from any package keeps a symbol alive, so the check is
// silent unless the run loaded the whole module (./...).
var DeadexportAnalyzer = &Analyzer{
	Name: "deadexport",
	Doc:  "no exported internal API that only tests (or only the facade) reference",
	AppliesTo: func(scope string) bool {
		return hasPrefixPath(scope, "genie/internal")
	},
	Run: runDeadexport,
}

// refKind records where a symbol is used from.
type refKind uint8

const (
	refProgram refKind = 1 << iota // a non-facade, non-test file
	refFacade                      // the public facade only
)

// refIndex is the module-wide use index deadexport reads.
type refIndex struct {
	refs map[types.Object]refKind
	// ifaceMethods holds every method name of every interface type the
	// module declares or imports from the standard library.
	ifaceMethods map[string]bool
	// complete is set by the driver when the load covered the whole
	// module; a partial index would report live code as dead.
	complete bool
}

// buildRefIndex records every use of a module object from a non-test
// file, and the method names of every interface in reach.
func buildRefIndex(pkgs []*Package) *refIndex {
	idx := &refIndex{refs: make(map[types.Object]refKind), ifaceMethods: make(map[string]bool)}
	idx.addIfaceMethods(types.Universe.Lookup("error").Type())
	seen := make(map[*types.Package]bool)
	var scanScope func(p *types.Package)
	scanScope = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				idx.addIfaceMethods(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			scanScope(imp)
		}
	}
	for _, pkg := range pkgs {
		if len(pkg.Errs) > 0 {
			continue
		}
		scanScope(pkg.Types)
		kind := refProgram
		if pkg.Types.Name() != "main" && !hasPrefixPath(pkg.ScopePath(), "genie/internal") {
			kind = refFacade
		}
		fromTestdata := strings.Contains(pkg.Path, testdataMarker)
		for _, f := range pkg.Files {
			// Interfaces declared inside functions are out of the
			// package-scope scan's reach.
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					idx.addIfaceMethods(typeOfExpr(pkg.Info, it))
				}
				return true
			})
			for _, decl := range f.Decls {
				owners := declOwners(pkg.Info, decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := originOf(pkg.Info.Uses[id])
					if obj == nil || obj.Pkg() == nil || owners[obj] {
						return true
					}
					if fromTestdata && !strings.Contains(obj.Pkg().Path(), testdataMarker) {
						return true
					}
					idx.refs[obj] |= kind
					return true
				})
			}
		}
	}
	return idx
}

func (idx *refIndex) addIfaceMethods(t types.Type) {
	if t == nil {
		return
	}
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		idx.ifaceMethods[it.Method(i).Name()] = true
	}
}

// declOwners returns the objects a declaration's own uses must not keep
// alive: a function itself, a method and its receiver's base type, a
// type spec's type.
func declOwners(info *types.Info, decl ast.Decl) map[types.Object]bool {
	owners := make(map[types.Object]bool)
	switch d := decl.(type) {
	case *ast.FuncDecl:
		owners[info.Defs[d.Name]] = true
		if tn := recvTypeName(info, d); tn != nil {
			owners[tn] = true
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			if ts, ok := spec.(*ast.TypeSpec); ok {
				owners[info.Defs[ts.Name]] = true
			}
		}
	}
	return owners
}

// recvTypeName resolves a method declaration's receiver base type.
func recvTypeName(info *types.Info, fd *ast.FuncDecl) *types.TypeName {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	t := typeOfExpr(info, fd.Recv.List[0].Type)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// originOf maps an instantiated generic function or method to its
// declaration, so a use through an instantiation counts for the
// declared object.
func originOf(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

func runDeadexport(pass *Pass) {
	if !pass.Prog.refs.complete {
		return
	}
	idx := pass.Prog.refs
	report := func(id *ast.Ident, what string) {
		obj := pass.Info.Defs[id]
		switch idx.refs[obj] {
		case 0:
			pass.Reportf(id.Pos(), "exported %s is referenced by no non-test file: delete it, or //lint:ignore deadexport <reason>", what)
		case refFacade:
			pass.Reportf(id.Pos(), "exported %s is facade only: nothing but the public facade references it", what)
		}
	}
	// Types first: a dead type's methods are reported with it, not one
	// by one.
	deadTypes := make(map[types.Object]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() {
					continue
				}
				if obj := pass.Info.Defs[ts.Name]; idx.refs[obj]&refProgram == 0 {
					deadTypes[obj] = true
					report(ts.Name, "type "+ts.Name.Name)
				}
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			if fd.Recv == nil {
				report(fd.Name, "func "+fd.Name.Name)
				continue
			}
			tn := recvTypeName(pass.Info, fd)
			if tn == nil || deadTypes[tn] || idx.ifaceMethods[fd.Name.Name] {
				continue
			}
			report(fd.Name, "method "+tn.Name()+"."+fd.Name.Name)
		}
	}
}
