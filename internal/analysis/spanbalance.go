package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// SpanbalanceAnalyzer requires every obs span started in a function to
// be ended on every path that leaves the function. A span that is
// started but never ended is worse than no span at all: the recorder
// never sees it, its children dangle, and — because spans carry the
// request-scoped trace context across the disaggregation boundary —
// the trace for exactly the failing request (the error return that
// skipped End) is the one that goes missing.
//
// The analysis tracks span-typed locals assigned from calls into
// genie/internal/obs, then walks the function with branch-cloned state
// like lockscope:
//
//   - span.End() — direct, deferred, or inside a deferred closure —
//     closes the span
//   - passing the span to a module-local function whose interprocedural
//     summary says it ends that parameter (Pass.Prog) closes it too
//   - storing the span in a field/composite, returning it, sending it
//     on a channel, capturing it in a non-deferred literal, or passing
//     it to a function without an ends-span summary hands ownership off
//     — tracking stops, nothing is reported
//   - a return, continue, or break reached while a tracked span is
//     still open is a leak, reported once per span at its start site
//
// Discarding the span result outright (`_`) is reported immediately.
var SpanbalanceAnalyzer = &Analyzer{
	Name: "spanbalance",
	Doc:  "every obs span Start must have an End on all return paths",
	AppliesTo: func(scope string) bool {
		return hasPrefixPath(scope, "genie/internal")
	},
	Run: runSpanbalance,
}

const (
	spanOpen = iota
	spanClosed
	spanEscaped
)

type spanVar struct {
	name  string
	pos   token.Pos
	state int
}

func runSpanbalance(pass *Pass) {
	funcBodies(pass.Files, func(name string, body *ast.BlockStmt) {
		sc := &spanScanner{pass: pass, reported: make(map[types.Object]bool)}
		st := make(map[types.Object]spanVar)
		sc.block(body.List, st, nil)
		sc.checkExit(st, nil)
	})
}

type spanScanner struct {
	pass     *Pass
	reported map[types.Object]bool
}

// block scans statements in order. st is the span state, cloned into
// branch bodies; loopLocal (non-nil inside a loop body) collects spans
// started in the innermost loop so continue/break leak-check only
// those.
func (sc *spanScanner) block(stmts []ast.Stmt, st map[types.Object]spanVar, loopLocal map[types.Object]bool) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			sc.assign(s, st, loopLocal)
		case *ast.ExprStmt:
			sc.scanExpr(s.X, st)
		case *ast.DeferStmt:
			sc.deferred(s, st)
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				sc.scanExpr(r, st)
			}
			sc.checkExit(st, nil)
		case *ast.BranchStmt:
			if s.Tok == token.CONTINUE || s.Tok == token.BREAK {
				sc.checkExit(st, loopLocal)
			}
		case *ast.GoStmt:
			// The goroutine takes over anything it references.
			sc.escapeAll(s.Call, st)
		case *ast.BlockStmt:
			sc.block(s.List, st, loopLocal)
		case *ast.IfStmt:
			if s.Init != nil {
				sc.block([]ast.Stmt{s.Init}, st, loopLocal)
			}
			sc.scanExpr(s.Cond, st)
			sc.block(s.Body.List, cloneSpans(st), loopLocal)
			if s.Else != nil {
				sc.block([]ast.Stmt{s.Else}, cloneSpans(st), loopLocal)
			}
		case *ast.ForStmt:
			if s.Init != nil {
				sc.block([]ast.Stmt{s.Init}, st, loopLocal)
			}
			if s.Cond != nil {
				sc.scanExpr(s.Cond, st)
			}
			sc.loopBody(s.Body, st)
		case *ast.RangeStmt:
			sc.scanExpr(s.X, st)
			sc.loopBody(s.Body, st)
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				sc.block(c.(*ast.CommClause).Body, cloneSpans(st), loopLocal)
			}
		case *ast.SwitchStmt:
			if s.Init != nil {
				sc.block([]ast.Stmt{s.Init}, st, loopLocal)
			}
			if s.Tag != nil {
				sc.scanExpr(s.Tag, st)
			}
			for _, c := range s.Body.List {
				sc.block(c.(*ast.CaseClause).Body, cloneSpans(st), loopLocal)
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				sc.block(c.(*ast.CaseClause).Body, cloneSpans(st), loopLocal)
			}
		case *ast.LabeledStmt:
			sc.block([]ast.Stmt{s.Stmt}, st, loopLocal)
		case *ast.SendStmt:
			sc.scanExpr(s.Chan, st)
			sc.scanExpr(s.Value, st)
		case *ast.IncDecStmt:
			sc.scanExpr(s.X, st)
		case *ast.DeclStmt:
			if gd, ok := s.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							sc.scanExpr(v, st)
						}
					}
				}
			}
		}
	}
}

// loopBody scans a loop body with its own loop-local span set: a span
// started in iteration N and still open when the body falls through to
// iteration N+1 is leaked once per iteration.
func (sc *spanScanner) loopBody(body *ast.BlockStmt, st map[types.Object]spanVar) {
	inner := cloneSpans(st)
	local := make(map[types.Object]bool)
	sc.block(body.List, inner, local)
	sc.checkExit(inner, local)
}

// assign handles span creation (`ctx, span := obs.StartSpan(...)`) and
// ordinary assignments that use tracked spans.
func (sc *spanScanner) assign(s *ast.AssignStmt, st map[types.Object]spanVar, loopLocal map[types.Object]bool) {
	if len(s.Rhs) == 1 {
		if call, ok := unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			if spanPositions := sc.spanResults(call); spanPositions != nil {
				sc.scanExpr(call, st) // arguments first
				for i, lhs := range s.Lhs {
					if !spanPositions[i] {
						continue
					}
					id, ok := unparen(lhs).(*ast.Ident)
					if !ok {
						continue // stored straight into a field: handed off
					}
					if id.Name == "_" {
						sc.pass.Reportf(call.Pos(),
							"span returned by %s is discarded without End; keep it and defer its End", types.ExprString(call.Fun))
						continue
					}
					obj := sc.pass.Info.Defs[id]
					if obj == nil {
						obj = sc.pass.Info.Uses[id]
					}
					if obj == nil {
						continue
					}
					st[obj] = spanVar{name: id.Name, pos: call.Pos(), state: spanOpen}
					if loopLocal != nil {
						loopLocal[obj] = true
					}
				}
				return
			}
		}
	}
	for _, rhs := range s.Rhs {
		sc.scanExpr(rhs, st)
	}
	for _, lhs := range s.Lhs {
		// Re-binding a tracked name drops the old span from tracking
		// (we can no longer say anything sound about it).
		if id, ok := unparen(lhs).(*ast.Ident); ok {
			if obj := sc.pass.Info.Uses[id]; obj != nil {
				delete(st, obj)
			}
		} else {
			sc.scanExpr(lhs, st)
		}
	}
}

// spanResults reports which result positions of call carry an obs span;
// nil when none do or the call is not into genie/internal/obs.
func (sc *spanScanner) spanResults(call *ast.CallExpr) map[int]bool {
	fn := calleeFunc(sc.pass.Info, call)
	if fn == nil || scopePath(funcPkgPath(fn)) != "genie/internal/obs" {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out map[int]bool
	for i := 0; i < sig.Results().Len(); i++ {
		if isSpanType(sig.Results().At(i).Type()) {
			if out == nil {
				out = make(map[int]bool)
			}
			out[i] = true
		}
	}
	return out
}

// deferred handles defer statements: a deferred End (direct, through a
// summary-known callee, or inside a deferred closure) closes the span
// for every later exit.
func (sc *spanScanner) deferred(s *ast.DeferStmt, st map[types.Object]spanVar) {
	if lit, ok := unparen(s.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "End" {
				if id, ok := unparen(sel.X).(*ast.Ident); ok {
					sc.setState(id, st, spanClosed)
				}
			}
			return true
		})
		return
	}
	sc.scanExpr(s.Call, st)
}

// scanExpr classifies every use of a tracked span inside e: End closes,
// a summary-known ender closes, anything else that takes the value
// escapes it.
func (sc *spanScanner) scanExpr(e ast.Expr, st map[types.Object]spanVar) {
	if e == nil {
		return
	}
	switch e := unparen(e).(type) {
	case *ast.Ident:
		sc.setState(e, st, spanEscaped)
	case *ast.SelectorExpr:
		// span.Field or receiver position: neutral use of the span.
		if id, ok := unparen(e.X).(*ast.Ident); ok && sc.trackedObj(id, st) != nil {
			return
		}
		sc.scanExpr(e.X, st)
	case *ast.CallExpr:
		if sel, ok := unparen(e.Fun).(*ast.SelectorExpr); ok {
			if id, ok := unparen(sel.X).(*ast.Ident); ok && sc.trackedObj(id, st) != nil {
				if sel.Sel.Name == "End" {
					sc.setState(id, st, spanClosed)
				}
				// Other span methods (SetTag, Annotate) are neutral.
			} else {
				sc.scanExpr(sel.X, st)
			}
		} else {
			sc.scanExpr(e.Fun, st)
		}
		callee := calleeFunc(sc.pass.Info, e)
		sum, haveSum := sc.pass.Prog.Summary(callee)
		for j, arg := range e.Args {
			if id, ok := unparen(arg).(*ast.Ident); ok && sc.trackedObj(id, st) != nil {
				if haveSum && sum.EndsSpanParams[j] {
					sc.setState(id, st, spanClosed)
				} else {
					sc.setState(id, st, spanEscaped)
				}
				continue
			}
			sc.scanExpr(arg, st)
		}
	case *ast.BinaryExpr:
		sc.scanExpr(e.X, st)
		sc.scanExpr(e.Y, st)
	case *ast.UnaryExpr:
		sc.scanExpr(e.X, st)
	case *ast.StarExpr:
		sc.scanExpr(e.X, st)
	case *ast.IndexExpr:
		sc.scanExpr(e.X, st)
		sc.scanExpr(e.Index, st)
	case *ast.SliceExpr:
		sc.scanExpr(e.X, st)
	case *ast.TypeAssertExpr:
		sc.scanExpr(e.X, st)
	case *ast.KeyValueExpr:
		sc.scanExpr(e.Value, st)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			sc.scanExpr(elt, st)
		}
	case *ast.FuncLit:
		// A literal that captures the span may run anytime: ownership
		// is no longer this function's.
		sc.escapeAll(e, st)
	}
}

// escapeAll marks every tracked span referenced anywhere under n as
// escaped.
func (sc *spanScanner) escapeAll(n ast.Node, st map[types.Object]spanVar) {
	ast.Inspect(n, func(node ast.Node) bool {
		if id, ok := node.(*ast.Ident); ok {
			sc.setState(id, st, spanEscaped)
		}
		return true
	})
}

// trackedObj resolves id to a tracked span object (nil when untracked).
func (sc *spanScanner) trackedObj(id *ast.Ident, st map[types.Object]spanVar) types.Object {
	obj := sc.pass.Info.Uses[id]
	if obj == nil {
		return nil
	}
	if _, ok := st[obj]; !ok {
		return nil
	}
	return obj
}

func (sc *spanScanner) setState(id *ast.Ident, st map[types.Object]spanVar, state int) {
	obj := sc.trackedObj(id, st)
	if obj == nil {
		return
	}
	v := st[obj]
	if v.state == spanOpen {
		v.state = state
		st[obj] = v
	}
}

// checkExit reports spans still open at a function exit. When restrict
// is non-nil (continue/break) only spans started in the innermost loop
// count. Each span is reported once, at its start site.
func (sc *spanScanner) checkExit(st map[types.Object]spanVar, restrict map[types.Object]bool) {
	type leak struct {
		name string
		pos  token.Pos
	}
	var leaks []leak
	for obj, v := range st {
		if v.state != spanOpen || sc.reported[obj] {
			continue
		}
		if restrict != nil && !restrict[obj] {
			continue
		}
		sc.reported[obj] = true
		leaks = append(leaks, leak{v.name, v.pos})
	}
	sort.Slice(leaks, func(i, j int) bool { return leaks[i].pos < leaks[j].pos })
	for _, l := range leaks {
		sc.pass.Reportf(l.pos,
			"span %q is not ended on every path out of this function; defer %s.End() right after starting it", l.name, l.name)
	}
}

func cloneSpans(st map[types.Object]spanVar) map[types.Object]spanVar {
	out := make(map[types.Object]spanVar, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}
