package analysis

import (
	"go/ast"
	"go/types"
)

// PlanverAnalyzer enforces plan-snapshot freshness. A ShardPlan is a
// versioned snapshot of pool membership: its version is the epoch the
// KV-ownership argument hangs off (DESIGN.md §10). Its fields are
// unexported, so only internal/pool can build or change a plan; that
// half of the invariant is a type property and needs no check. What
// the types cannot say is when a snapshot went stale: a *ShardPlan
// local captured before a rebuild section runs (any call that — per
// the interprocedural summaries — replaces a plan field: swapPlan,
// rebuild, evict, Join, Leave, and anything that calls them) is stale
// afterwards; reading it is reading a membership epoch that may no
// longer exist.
//
// The rule needs the call graph: reportExecFailure looks nothing like a
// rebuild at the call site — it becomes one three calls down.
var PlanverAnalyzer = &Analyzer{
	Name: "planver",
	Doc:  "no stale ShardPlan snapshot read after a rebuild replaced the plan",
	AppliesTo: func(scope string) bool {
		return hasPrefixPath(scope, "genie/internal")
	},
	Run: runPlanver,
}

func runPlanver(pass *Pass) {
	funcBodies(pass.Files, func(name string, body *ast.BlockStmt) {
		ps := &planScan{pass: pass, reported: make(map[types.Object]bool)}
		ps.block(body.List, make(map[types.Object]*planLocal))
	})
}

// planLocal tracks one *ShardPlan-typed local.
type planLocal struct {
	name    string
	stale   bool
	staleBy string // the rebuild call that invalidated it
}

type planScan struct {
	pass     *Pass
	reported map[types.Object]bool
}

// block walks statements in order with branch-cloned staleness state,
// mirroring lockscope's scanner shape.
func (ps *planScan) block(stmts []ast.Stmt, st map[types.Object]*planLocal) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			for _, rhs := range s.Rhs {
				ps.expr(rhs, st)
			}
			for _, lhs := range s.Lhs {
				if id, ok := unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
					obj := ps.pass.Info.Defs[id]
					if obj == nil {
						obj = ps.pass.Info.Uses[id]
					}
					if obj != nil && isScopedNamed(obj.Type(), "genie/internal/pool", "ShardPlan") {
						st[obj] = &planLocal{name: id.Name} // (re)captured: fresh
						continue
					}
				}
				ps.expr(lhs, st)
			}
		case *ast.ExprStmt:
			ps.expr(s.X, st)
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				ps.expr(r, st)
			}
		case *ast.DeferStmt:
			// Deferred calls run at return; scan their arguments (read
			// now) but apply no rebuild effect to this path.
			ps.expr(s.Call.Fun, st)
			for _, a := range s.Call.Args {
				ps.expr(a, st)
			}
		case *ast.GoStmt:
			for _, a := range s.Call.Args {
				ps.expr(a, st)
			}
		case *ast.BlockStmt:
			ps.block(s.List, st)
		case *ast.IfStmt:
			if s.Init != nil {
				ps.block([]ast.Stmt{s.Init}, st)
			}
			ps.expr(s.Cond, st)
			ps.block(s.Body.List, clonePlans(st))
			if s.Else != nil {
				ps.block([]ast.Stmt{s.Else}, clonePlans(st))
			}
		case *ast.ForStmt:
			if s.Init != nil {
				ps.block([]ast.Stmt{s.Init}, st)
			}
			if s.Cond != nil {
				ps.expr(s.Cond, st)
			}
			ps.block(s.Body.List, clonePlans(st))
		case *ast.RangeStmt:
			ps.expr(s.X, st)
			ps.block(s.Body.List, clonePlans(st))
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				ps.block(c.(*ast.CommClause).Body, clonePlans(st))
			}
		case *ast.SwitchStmt:
			if s.Init != nil {
				ps.block([]ast.Stmt{s.Init}, st)
			}
			if s.Tag != nil {
				ps.expr(s.Tag, st)
			}
			for _, c := range s.Body.List {
				ps.block(c.(*ast.CaseClause).Body, clonePlans(st))
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				ps.block(c.(*ast.CaseClause).Body, clonePlans(st))
			}
		case *ast.LabeledStmt:
			ps.block([]ast.Stmt{s.Stmt}, st)
		case *ast.SendStmt:
			ps.expr(s.Chan, st)
			ps.expr(s.Value, st)
		case *ast.IncDecStmt:
			ps.expr(s.X, st)
		case *ast.DeclStmt:
			if gd, ok := s.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, v := range vs.Values {
						ps.expr(v, st)
					}
					for _, name := range vs.Names {
						if obj := ps.pass.Info.Defs[name]; obj != nil &&
							isScopedNamed(obj.Type(), "genie/internal/pool", "ShardPlan") {
							st[obj] = &planLocal{name: name.Name}
						}
					}
				}
			}
		}
	}
}

// expr walks an expression in evaluation order: a rebuild call
// invalidates tracked snapshots only after its arguments are read, so
// `m.swapPlan(pl.finish(old.strategy, ...), ...)` does not flag old.
func (ps *planScan) expr(e ast.Expr, st map[types.Object]*planLocal) {
	switch e := unparen(e).(type) {
	case nil:
	case *ast.Ident:
		ps.checkUse(e, st)
	case *ast.SelectorExpr:
		ps.expr(e.X, st)
	case *ast.CallExpr:
		ps.expr(e.Fun, st)
		for _, a := range e.Args {
			ps.expr(a, st)
		}
		ps.applyCall(e, st)
	case *ast.BinaryExpr:
		ps.expr(e.X, st)
		ps.expr(e.Y, st)
	case *ast.UnaryExpr:
		ps.expr(e.X, st)
	case *ast.StarExpr:
		ps.expr(e.X, st)
	case *ast.IndexExpr:
		ps.expr(e.X, st)
		ps.expr(e.Index, st)
	case *ast.SliceExpr:
		ps.expr(e.X, st)
		ps.expr(e.Low, st)
		ps.expr(e.High, st)
		ps.expr(e.Max, st)
	case *ast.TypeAssertExpr:
		ps.expr(e.X, st)
	case *ast.KeyValueExpr:
		ps.expr(e.Value, st)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			ps.expr(elt, st)
		}
	}
	// Function literals are skipped: their bodies are scanned as their
	// own funcBodies roots.
}

// applyCall marks every tracked snapshot stale when the callee's
// summary says it (transitively) rebuilds the plan.
func (ps *planScan) applyCall(call *ast.CallExpr, st map[types.Object]*planLocal) {
	callee := calleeFunc(ps.pass.Info, call)
	if callee == nil {
		return
	}
	sum, ok := ps.pass.Prog.Summary(callee)
	if !ok || !sum.RebuildsPlan {
		return
	}
	for _, pl := range st {
		if !pl.stale {
			pl.stale, pl.staleBy = true, callee.Name()
		}
	}
}

func (ps *planScan) checkUse(id *ast.Ident, st map[types.Object]*planLocal) {
	obj := ps.pass.Info.Uses[id]
	if obj == nil {
		return
	}
	pl, ok := st[obj]
	if !ok || !pl.stale || ps.reported[obj] {
		return
	}
	ps.reported[obj] = true
	ps.pass.Reportf(id.Pos(),
		"plan snapshot %q read after %s rebuilt the plan: the membership epoch may have advanced — re-read the plan after the rebuild section", pl.name, pl.staleBy)
}

func clonePlans(st map[types.Object]*planLocal) map[types.Object]*planLocal {
	out := make(map[types.Object]*planLocal, len(st))
	for k, v := range st {
		c := *v
		out[k] = &c
	}
	return out
}
