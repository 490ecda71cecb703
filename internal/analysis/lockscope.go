package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockscopeAnalyzer forbids holding a sync.Mutex/RWMutex across a
// blocking operation. The serving engine's step-boundary guarantees
// (continuous batching, drain) depend on short critical sections; a
// mutex held across a transport round trip, a channel operation, or a
// sleep turns one slow backend into a head-of-line block for every
// goroutine sharing the lock — the classic disaggregation outage mode
// where a network stall propagates into the control plane.
//
// The analysis is a conservative intra-function walk: statements are
// scanned in order; Lock/RLock adds the receiver to the held set,
// Unlock/RUnlock removes it, and a deferred Unlock keeps it held to the
// end of the body. Branch bodies are analyzed with a copy of the held
// set. While any lock is held, these count as blocking:
//
//   - channel send and receive (outside a select with a default case)
//   - select without a default case
//   - time.Sleep and (*sync.WaitGroup).Wait
//   - any call into genie/internal/transport, net, or net/http declared
//     outside the current package (the transport package's own conn
//     mutex IS the RPC serialization point and is exempt), except
//     Close, which is a non-blocking teardown
//   - any module-local call whose interprocedural summary (Pass.Prog)
//     says it may block — the helper that parks on a channel or sleeps
//     three calls down is the same head-of-line block, just hidden
//
// sync.Cond.Wait is exempt: it releases the associated lock while
// waiting. The transport self-exemption extends to the summary rule:
// transport-internal calls analyzed inside transport stay exempt.
var LockscopeAnalyzer = &Analyzer{
	Name: "lockscope",
	Doc:  "no mutex held across transport calls, channel operations, or sleeps",
	AppliesTo: func(scope string) bool {
		return hasPrefixPath(scope, "genie/internal")
	},
	Run: runLockscope,
}

// blockingPkgs are the package paths whose calls block on the network.
var blockingPkgs = map[string]bool{
	"genie/internal/transport": true,
	"net":                      true,
	"net/http":                 true,
}

func runLockscope(pass *Pass) {
	funcBodies(pass.Files, func(name string, body *ast.BlockStmt) {
		ls := &lockScanner{pass: pass}
		ls.block(body.List, map[string]ast.Expr{})
	})
}

// lockScanner walks one function body tracking held locks. The held map
// is keyed by the rendered receiver expression ("e.mu") and stores the
// expression for the report.
type lockScanner struct {
	pass *Pass
}

func (ls *lockScanner) block(stmts []ast.Stmt, held map[string]ast.Expr) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if recv, op, ok := ls.lockOp(s.X); ok {
				switch op {
				case "Lock", "RLock":
					held[types.ExprString(recv)] = recv
				case "Unlock", "RUnlock":
					delete(held, types.ExprString(recv))
				}
				continue
			}
			ls.scanExpr(s.X, held)
		case *ast.DeferStmt:
			// A deferred Unlock keeps the lock held for the rest of the
			// body; any other deferred call runs after the body and is
			// not a blocking op on this path.
			continue
		case *ast.GoStmt:
			// The goroutine does not inherit the caller's locks; its
			// body is analyzed as its own root by funcBodies. Arguments
			// are evaluated here, though.
			for _, arg := range s.Call.Args {
				ls.scanExpr(arg, held)
			}
		case *ast.BlockStmt:
			ls.block(s.List, held)
		case *ast.IfStmt:
			if s.Init != nil {
				ls.scanStmt(s.Init, held)
			}
			ls.scanExpr(s.Cond, held)
			ls.block(s.Body.List, cloneHeld(held))
			if s.Else != nil {
				ls.block([]ast.Stmt{s.Else}, cloneHeld(held))
			}
		case *ast.ForStmt:
			if s.Init != nil {
				ls.scanStmt(s.Init, held)
			}
			if s.Cond != nil {
				ls.scanExpr(s.Cond, held)
			}
			ls.block(s.Body.List, cloneHeld(held))
		case *ast.RangeStmt:
			ls.scanExpr(s.X, held)
			ls.block(s.Body.List, cloneHeld(held))
		case *ast.SelectStmt:
			ls.selectStmt(s, held)
		case *ast.SwitchStmt:
			if s.Init != nil {
				ls.scanStmt(s.Init, held)
			}
			if s.Tag != nil {
				ls.scanExpr(s.Tag, held)
			}
			for _, c := range s.Body.List {
				ls.block(c.(*ast.CaseClause).Body, cloneHeld(held))
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				ls.block(c.(*ast.CaseClause).Body, cloneHeld(held))
			}
		case *ast.LabeledStmt:
			ls.block([]ast.Stmt{s.Stmt}, held)
		default:
			ls.scanStmt(stmt, held)
		}
	}
}

// selectStmt handles select: with a default case the communication ops
// are non-blocking polls; without one the select parks the goroutine.
func (ls *lockScanner) selectStmt(s *ast.SelectStmt, held map[string]ast.Expr) {
	hasDefault := false
	for _, c := range s.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		ls.reportHeld(s.Pos(), "select without default", held)
	}
	for _, c := range s.Body.List {
		ls.block(c.(*ast.CommClause).Body, cloneHeld(held))
	}
}

// scanStmt scans a statement subtree (no lock-set mutations inside).
func (ls *lockScanner) scanStmt(stmt ast.Stmt, held map[string]ast.Expr) {
	if len(held) == 0 {
		return
	}
	walkIgnoringFuncLits(stmt, func(n ast.Node) bool {
		ls.checkNode(n, held)
		return true
	})
}

func (ls *lockScanner) scanExpr(e ast.Expr, held map[string]ast.Expr) {
	if len(held) == 0 {
		return
	}
	walkIgnoringFuncLits(e, func(n ast.Node) bool {
		ls.checkNode(n, held)
		return true
	})
}

// checkNode reports n if it is a blocking operation.
func (ls *lockScanner) checkNode(n ast.Node, held map[string]ast.Expr) {
	switch n := n.(type) {
	case *ast.SendStmt:
		ls.reportHeld(n.Pos(), "channel send", held)
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			ls.reportHeld(n.Pos(), "channel receive", held)
		}
	case *ast.SelectStmt:
		// Reached only via scanStmt on a statement kind the structured
		// walk does not special-case; treat like the structured path.
		ls.selectStmt(n, held)
	case *ast.CallExpr:
		if name, ok := ls.blockingCall(n); ok {
			ls.reportHeld(n.Pos(), "call to "+name, held)
		}
	}
}

// blockingCall classifies a call as blocking and names it.
func (ls *lockScanner) blockingCall(call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(ls.pass.Info, call)
	if fn == nil {
		return "", false
	}
	pkg := funcPkgPath(fn)
	switch {
	case pkg == "time" && fn.Name() == "Sleep":
		return "time.Sleep", true
	case pkg == "sync" && fn.Name() == "Wait" && recvTypeString(fn) == "*sync.WaitGroup":
		return "WaitGroup.Wait", true
	case blockingPkgs[pkg] && pkg != ls.pass.Pkg.Path() && fn.Name() != "Close":
		return fn.FullName(), true
	}
	// Interprocedural: a module-local callee that may block transitively
	// is the same hazard as a direct blocking op.
	if fn.Name() != "Close" &&
		!(blockingPkgs[pkg] && pkg == ls.pass.Pkg.Path()) {
		if sum, ok := ls.pass.Prog.Summary(fn); ok && sum.Blocks {
			return fn.Name() + " (blocks transitively: " + sum.BlockReason + ")", true
		}
	}
	return "", false
}

// lockOp matches a call to a sync mutex method and returns its receiver
// expression and method name.
func (ls *lockScanner) lockOp(e ast.Expr) (ast.Expr, string, bool) {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, "", false
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return nil, "", false
	}
	fn := calleeFunc(ls.pass.Info, call)
	if fn == nil || funcPkgPath(fn) != "sync" {
		return nil, "", false
	}
	return sel.X, name, true
}

// reportHeld emits one diagnostic naming the blocking op and every lock
// held at that point.
func (ls *lockScanner) reportHeld(pos token.Pos, what string, held map[string]ast.Expr) {
	if len(held) == 0 {
		return
	}
	names := make([]string, 0, len(held))
	for k := range held {
		names = append(names, k)
	}
	sort.Strings(names)
	ls.pass.Reportf(pos, "%s while holding %s: release the lock before blocking", what, strings.Join(names, ", "))
}

func cloneHeld(held map[string]ast.Expr) map[string]ast.Expr {
	out := make(map[string]ast.Expr, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}
