package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TensormutAnalyzer protects the lazy-capture layer's central
// assumption: a materialized tensor is immutable. The SRG records
// tensors by identity; the scheduler dedupes uploads by fingerprint;
// the backend caches residency by key+epoch. All three are sound only
// if nobody scribbles on a tensor's backing store after capture —
// a mutation outside the kernel packages silently desynchronizes the
// local bytes from their remote replica and from every SRG node that
// captured the old value.
//
// Scope: everywhere in the module except genie/internal/tensor (the
// owner of the representation), genie/internal/nn (the kernels, which
// write into freshly allocated outputs), and genie/internal/quant (the
// raw-speed tier's quantizers, which fill the int8/f16 tensors they
// just created — the same freshly-allocated-output discipline as nn).
// Flagged:
//
//   - element stores through a raw view: t.F32()[i] = v, and the same
//     through a local bound to a view (d := t.F32(); d[i] = v)
//   - copy() or clear() with a raw view (or view-bound local) as dst
//   - calls to the mutating API — SetAt, Fill, RandN — in library code
//     under genie/internal/ (binaries and examples legitimately
//     initialize tensors they just allocated)
//
// Reads through views are fine; Clone() then mutate is the sanctioned
// escape hatch.
var TensormutAnalyzer = &Analyzer{
	Name: "tensormut",
	Doc:  "materialized tensors are immutable outside the tensor/nn kernel packages",
	AppliesTo: func(scope string) bool {
		return !hasPrefixPath(scope, "genie/internal/tensor") &&
			!hasPrefixPath(scope, "genie/internal/nn") &&
			!hasPrefixPath(scope, "genie/internal/quant")
	},
	Run: runTensormut,
}

// viewMethods are the accessors exposing the raw backing store. I8 and
// Scales joined with the raw-speed tier: a write through either
// desynchronizes a quantized weight from its content hash and remote
// replica just like an F32 store.
var viewMethods = map[string]bool{
	"F32": true, "F16": true, "I64": true, "I32": true, "U8": true, "Bytes": true,
	"I8": true, "Scales": true,
}

// mutMethods are the mutating halves of the tensor API.
var mutMethods = map[string]bool{"SetAt": true, "Fill": true, "RandN": true}

func runTensormut(pass *Pass) {
	internal := hasPrefixPath(pass.ScopePath, "genie/internal")
	funcBodies(pass.Files, func(name string, body *ast.BlockStmt) {
		tainted := make(map[types.Object]bool) // locals bound to raw views
		walkIgnoringFuncLits(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if pos, ok := viewStore(pass, tainted, lhs); ok {
						pass.Reportf(pos, "write into a tensor's backing store outside the kernel packages: Clone() before mutating")
					}
				}
				// Taint after checking LHS so `d[0] = ...; d := t.F32()`
				// ordering is irrelevant within the walk.
				taintFromAssign(pass, tainted, n)
			case *ast.IncDecStmt:
				if pos, ok := viewStore(pass, tainted, n.X); ok {
					pass.Reportf(pos, "write into a tensor's backing store outside the kernel packages: Clone() before mutating")
				}
			case *ast.CallExpr:
				checkBuiltinDst(pass, tainted, n)
				if internal {
					if m := tensorMethod(pass, n); mutMethods[m] {
						pass.Reportf(n.Pos(), "tensor.%s mutates a tensor in library code: materialized tensors are immutable, Clone() first", m)
					}
				}
			}
			return true
		})
	})
}

// viewStore reports whether lhs stores through a raw tensor view,
// returning the position to report.
func viewStore(pass *Pass, tainted map[types.Object]bool, lhs ast.Expr) (token.Pos, bool) {
	idx, ok := unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return 0, false
	}
	if isRawView(pass, tainted, idx.X) {
		return lhs.Pos(), true
	}
	return 0, false
}

// isRawView reports whether e is a raw-view call or a local bound to
// one, or a slice of either (a slice shares the backing store).
func isRawView(pass *Pass, tainted map[types.Object]bool, e ast.Expr) bool {
	switch e := unparen(e).(type) {
	case *ast.CallExpr:
		return viewMethods[tensorMethod(pass, e)]
	case *ast.Ident:
		return tainted[pass.Info.Uses[e]]
	case *ast.SliceExpr:
		return isRawView(pass, tainted, e.X)
	}
	return false
}

// taintFromAssign marks locals assigned directly from raw-view calls.
func taintFromAssign(pass *Pass, tainted map[types.Object]bool, n *ast.AssignStmt) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, rhs := range n.Rhs {
		call, ok := unparen(rhs).(*ast.CallExpr)
		if !ok || !viewMethods[tensorMethod(pass, call)] {
			continue
		}
		id, ok := n.Lhs[i].(*ast.Ident)
		if !ok {
			continue
		}
		if obj := pass.Info.Defs[id]; obj != nil {
			tainted[obj] = true
		} else if obj := pass.Info.Uses[id]; obj != nil {
			tainted[obj] = true
		}
	}
}

// checkBuiltinDst flags copy/clear whose destination is a raw view.
func checkBuiltinDst(pass *Pass, tainted map[types.Object]bool, call *ast.CallExpr) {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return
	}
	if b, ok := pass.Info.Uses[id].(*types.Builtin); !ok || (b.Name() != "copy" && b.Name() != "clear") {
		return
	}
	if isRawView(pass, tainted, call.Args[0]) {
		pass.Reportf(call.Pos(), "%s into a tensor's backing store outside the kernel packages: Clone() before mutating", id.Name)
	}
}

// tensorMethod returns the method name when call is a method call on
// *genie/internal/tensor.Tensor, else "".
func tensorMethod(pass *Pass, call *ast.CallExpr) string {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || funcPkgPath(fn) != "genie/internal/tensor" {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	return fn.Name()
}
