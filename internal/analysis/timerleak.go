package analysis

import (
	"go/ast"
	"go/types"
)

// TimerleakAnalyzer flags timer allocations that leak, with loops as
// the amplifier: the retry/quarantine/churn paths run for the life of the
// process, so a timer leaked per iteration is an unbounded heap of
// runtime timers all pinned on the scheduler's heap until they fire —
// exactly the slow-burn resource exhaustion chaos testing never quite
// reproduces. Rules:
//
//   - time.Tick anywhere: the ticker can never be stopped
//   - time.After inside a multi-case select inside a loop: when another
//     case fires first the timer is abandoned until it expires (a
//     plain `<-time.After(d)` sleep is fine — it is always consumed)
//   - time.NewTimer/NewTicker allocated in a loop without a Stop in the
//     same loop body; a *deferred* Stop in a loop is called out
//     specially, since it only runs at function return
//   - interprocedurally (Pass.Prog): a loop calling a module-local
//     function whose summary says it leaks a timer is flagged at the
//     call site — the allocation may be any number of calls down
var TimerleakAnalyzer = &Analyzer{
	Name: "timerleak",
	Doc:  "no timer/ticker allocated in a loop without Stop, no unstoppable time.Tick",
	AppliesTo: func(scope string) bool {
		return hasPrefixPath(scope, "genie/internal")
	},
	Run: runTimerleak,
}

func runTimerleak(pass *Pass) {
	funcBodies(pass.Files, func(name string, body *ast.BlockStmt) {
		walkIgnoringFuncLits(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if isFuncNamed(pass.Info, n, "time", "Tick") {
					pass.Reportf(n.Pos(),
						"time.Tick's ticker can never be stopped and leaks for the life of the process; use time.NewTicker and defer its Stop")
				}
			case *ast.ForStmt:
				checkLoopTimers(pass, n.Body)
			case *ast.RangeStmt:
				checkLoopTimers(pass, n.Body)
			}
			return true
		})
	})
}

// checkLoopTimers scans one loop body (not descending into nested
// loops, which are visited as loops of their own, nor into function
// literals).
func checkLoopTimers(pass *Pass, body *ast.BlockStmt) {
	type allocSite struct {
		kind string
		name string
		pos  ast.Node
	}
	alloc := make(map[types.Object]*allocSite)
	var order []types.Object
	stopped := make(map[types.Object]bool)
	deferStopped := make(map[types.Object]bool)

	var walk func(n ast.Node, inDefer bool)
	walk = func(root ast.Node, inDefer bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ForStmt, *ast.RangeStmt:
				return false
			case *ast.DeferStmt:
				walk(n.Call, true)
				return false
			case *ast.GoStmt:
				// The spawned function runs as its own root: a leak in its
				// body is reported there, not again per iteration here.
				// Its arguments are still evaluated in this loop.
				for _, arg := range n.Call.Args {
					walk(arg, inDefer)
				}
				return false
			case *ast.SelectStmt:
				if len(n.Body.List) >= 2 {
					if after := selectAfterCall(pass.Info, n); after != nil {
						pass.Reportf(after.Pos(),
							"time.After in a multi-case select inside a loop leaks a timer every iteration another case wins; hoist a time.NewTimer out of the loop and reset it")
					}
				}
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, rhs := range n.Rhs {
					call, ok := unparen(rhs).(*ast.CallExpr)
					if !ok {
						continue
					}
					kind := timerAllocName(pass.Info, call)
					if kind == "" {
						continue
					}
					if id, ok := unparen(n.Lhs[i]).(*ast.Ident); ok && id.Name != "_" {
						if obj := pass.Info.Defs[id]; obj != nil {
							if _, seen := alloc[obj]; !seen {
								order = append(order, obj)
							}
							alloc[obj] = &allocSite{kind: kind, name: id.Name, pos: call}
							continue
						}
					}
					pass.Reportf(call.Pos(),
						"%s result in a loop is not held in a local; nothing can Stop it and it leaks every iteration", kind)
				}
			case *ast.CallExpr:
				if sel, ok := unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Stop" {
					if id, ok := unparen(sel.X).(*ast.Ident); ok {
						if obj := pass.Info.Uses[id]; obj != nil {
							if inDefer {
								deferStopped[obj] = true
							} else {
								stopped[obj] = true
							}
						}
					}
				}
				if callee := calleeFunc(pass.Info, n); callee != nil {
					if sum, ok := pass.Prog.Summary(callee); ok && sum.TimerLeak {
						pass.Reportf(n.Pos(),
							"each loop iteration calls %s, which leaks a timer (%s); hoist the timer out of the loop or make the callee stop it", callee.Name(), sum.TimerReason)
					}
				}
			}
			return true
		})
	}
	walk(body, false)

	for _, obj := range order {
		site := alloc[obj]
		switch {
		case stopped[obj]:
		case deferStopped[obj]:
			pass.Reportf(site.pos.Pos(),
				"%s in a loop with only a deferred %s.Stop(): defers run at function return, not per iteration — every earlier timer leaks until then; call Stop in the loop body", site.kind, site.name)
		default:
			pass.Reportf(site.pos.Pos(),
				"%s allocated in a loop without a Stop in the loop body; the timer leaks every iteration until it fires", site.kind)
		}
	}
}

// selectAfterCall returns the time.After call used as a comm operand of
// sel, if any.
func selectAfterCall(info *types.Info, sel *ast.SelectStmt) *ast.CallExpr {
	for _, c := range sel.Body.List {
		comm := c.(*ast.CommClause).Comm
		if comm == nil {
			continue
		}
		var found *ast.CallExpr
		ast.Inspect(comm, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isFuncNamed(info, call, "time", "After") {
				found = call
			}
			return found == nil
		})
		if found != nil {
			return found
		}
	}
	return nil
}
