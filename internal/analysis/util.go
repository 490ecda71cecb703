package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// unparen strips redundant parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (nil for builtins, function-typed variables, and type conversions).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// funcPkgPath returns the defining package path of fn ("" for methods of
// universe types such as error.Error).
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isFuncNamed reports whether call invokes the package-level function
// pkgPath.name.
func isFuncNamed(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Name() == name && funcPkgPath(fn) == pkgPath
}

// recvTypeString renders a method's receiver type (e.g.
// "*sync.Mutex"), or "" for non-methods.
func recvTypeString(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	return sig.Recv().Type().String()
}

// isEndpointMethod reports whether fn is a method of runtime.Endpoint or
// runtime.Executor: every hop reaches its backend through one of them,
// so a call through either crosses the wire.
func isEndpointMethod(fn *types.Func) bool {
	recv := recvTypeString(fn)
	return strings.HasSuffix(recv, "runtime.Endpoint") || strings.HasSuffix(recv, "runtime.Executor")
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// isErrorType reports whether t is the predeclared error type.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// typeOfExpr returns the type of e, or nil when the checker has none.
func typeOfExpr(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isScopedNamed reports whether t (after pointer deref) is the named
// type `name` declared in a package whose scope path is `scope` or
// below it. Matching by scope path rather than type identity lets
// testdata fixtures declare stand-in types under the path they pretend
// to live at.
func isScopedNamed(t types.Type, scope, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return hasPrefixPath(scopePath(obj.Pkg().Path()), scope)
}

// isSpanType reports whether t is (a pointer to) obs.Span.
func isSpanType(t types.Type) bool {
	return isScopedNamed(t, "genie/internal/obs", "Span")
}

// isScopedFunc reports whether call invokes function `name` of a
// package whose scope path is `scope`, with testdata translation.
func isScopedFunc(info *types.Info, call *ast.CallExpr, scope, name string) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Name() == name && scopePath(funcPkgPath(fn)) == scope
}

// hasPrefixPath reports whether scope path p is pkg or below it.
func hasPrefixPath(p, pkg string) bool {
	return p == pkg || strings.HasPrefix(p, pkg+"/")
}

// walkIgnoringFuncLits walks the subtree of n, calling fn for every
// node, but does not descend into function literals: a FuncLit's body
// executes on its own schedule (often another goroutine), so its
// contents must not be attributed to the enclosing function's control
// flow.
func walkIgnoringFuncLits(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok && node != n {
			return false
		}
		return fn(node)
	})
}

// funcBodies yields every function body in the files: declarations and
// literals, each exactly once, with the literal bodies presented as
// independent roots.
func funcBodies(files []*ast.File, visit func(name string, body *ast.BlockStmt)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					visit(fn.Name.Name, fn.Body)
				}
			case *ast.FuncLit:
				visit("func literal", fn.Body)
			}
			return true
		})
	}
}
