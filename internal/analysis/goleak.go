package analysis

import (
	"go/ast"
	"go/types"
)

// GoleakAnalyzer requires a visible cancellation path for every
// goroutine launched in the serving layers. Drain correctness — the
// property that Stop/Drain actually terminates the engine — is a global
// invariant assembled from local ones: each per-lane and per-connection
// goroutine must observe some stop signal. A `go` statement whose body
// loops forever without consulting a context, a done/stop channel, or a
// closable work channel outlives every drain and pins its session (and
// the remote KV residency it scopes) for the life of the process.
//
// Scope: go statements in genie/internal/serve, genie/internal/backend,
// genie/internal/runtime, genie/internal/compute (the kernel worker
// pool: its resident helpers must observe Stop's done-channel close, or
// every Configure call would strand a band of goroutines for the life of
// the process), and genie/internal/obs (the trace recorder's drain
// goroutine must observe Stop's done-channel close for the same
// reason), plus genie/internal/chaos and genie/internal/pool (elastic
// membership: rebuild and repair paths must not strand per-member
// goroutines when a member leaves), plus genie/internal/simnet and
// genie/internal/eval (the simulator fabric and the eval harness spawn
// per-connection pumps of their own), plus genie/internal/kvcache (the
// prefix cache's split sessions pin resident state that a stranded
// goroutine would hold forever), plus genie/internal/health (the
// scorer's probe and hedge paths spawn racing goroutines whose losers
// must be cancelled, not abandoned). A goroutine is flagged when its
// body (the literal, or the function/method it calls — resolved
// cross-package through the interprocedural Program)
// contains an unconditional `for { ... }` loop with no cancellation
// signal anywhere in the body: no channel receive, no select, no
// ranging over a channel, and no context Done/Err check. The summaries
// extend the reach one more hop: a goroutine whose body merely *calls*
// a function that (transitively) loops forever without a cancel signal
// or a return is flagged too — the case the old AST-local pass could
// not see. Bounded goroutines (no infinite loop) pass; dynamic leak
// detection is the job of metrics.GoroutineSnapshot.
var GoleakAnalyzer = &Analyzer{
	Name: "goleak",
	Doc:  "goroutines in the serving layers need a visible cancellation path",
	AppliesTo: func(scope string) bool {
		return hasPrefixPath(scope, "genie/internal/serve") ||
			hasPrefixPath(scope, "genie/internal/backend") ||
			hasPrefixPath(scope, "genie/internal/runtime") ||
			hasPrefixPath(scope, "genie/internal/compute") ||
			hasPrefixPath(scope, "genie/internal/obs") ||
			hasPrefixPath(scope, "genie/internal/chaos") ||
			hasPrefixPath(scope, "genie/internal/pool") ||
			hasPrefixPath(scope, "genie/internal/simnet") ||
			hasPrefixPath(scope, "genie/internal/eval") ||
			hasPrefixPath(scope, "genie/internal/quant") ||
			hasPrefixPath(scope, "genie/internal/kvcache") ||
			hasPrefixPath(scope, "genie/internal/health")
	},
	Run: runGoleak,
}

func runGoleak(pass *Pass) {
	decls := declBodies(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body, info := goBody(pass, g, decls)
			if body == nil {
				return true
			}
			if loop := endlessLoop(body); loop != nil && !hasCancelSignalIn(info, body) {
				pass.Reportf(g.Pos(),
					"goroutine runs an unconditional loop with no cancellation path: select on a ctx/done channel or bound the loop")
				return true
			}
			if callee := loopingCallee(pass, body, info); callee != nil {
				pass.Reportf(g.Pos(),
					"goroutine calls %s, which loops forever with no cancellation path or return; plumb a ctx/done signal through it", callee.FullName())
			}
			return true
		})
	}
}

// loopingCallee finds a call in body to a module-local function whose
// interprocedural summary loops forever.
func loopingCallee(pass *Pass, body *ast.BlockStmt, info *types.Info) *types.Func {
	var found *types.Func
	walkIgnoringFuncLits(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(info, call); fn != nil {
			if sum, ok := pass.Prog.Summary(fn); ok && sum.LoopsForever {
				found = fn
			}
		}
		return found == nil
	})
	return found
}

// declBodies indexes the package's function declarations by object so a
// `go s.run()` can be traced to run's body.
func declBodies(pass *Pass) map[types.Object]*ast.BlockStmt {
	out := make(map[types.Object]*ast.BlockStmt)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.Info.Defs[fd.Name]; obj != nil {
					out[obj] = fd.Body
				}
			}
		}
	}
	return out
}

// goBody resolves the body a go statement will execute — a literal's
// body, a same-package function/method, or (through the Program) a
// module-local function in any package — together with the *types.Info
// of the package that owns the body. Dynamic callees resolve to nil
// (not analyzable, not flagged).
func goBody(pass *Pass, g *ast.GoStmt, decls map[types.Object]*ast.BlockStmt) (*ast.BlockStmt, *types.Info) {
	if lit, ok := unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return lit.Body, pass.Info
	}
	fn := calleeFunc(pass.Info, g.Call)
	if fn == nil {
		return nil, nil
	}
	if body := decls[fn]; body != nil {
		return body, pass.Info
	}
	if decl, pkg := pass.Prog.Decl(fn); decl != nil {
		return decl.Body, pkg.Info
	}
	return nil, nil
}

// endlessLoop finds an unconditional for-loop in body (not inside a
// nested function literal).
func endlessLoop(body *ast.BlockStmt) *ast.ForStmt {
	var found *ast.ForStmt
	walkIgnoringFuncLits(body, func(n ast.Node) bool {
		if f, ok := n.(*ast.ForStmt); ok && f.Cond == nil && found == nil {
			found = f
		}
		return found == nil
	})
	return found
}
