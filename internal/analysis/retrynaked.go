package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// RetrynakedAnalyzer flags naked retry loops: a for-loop that re-issues
// a remote operation when it fails, with nothing between attempts — no
// sleep, no backoff, no select, no context check. Under a dead or
// overloaded backend such a loop becomes a busy-wait that hammers the
// very endpoint it is waiting on; every retry site must either pace
// itself (time.Sleep / timer / select) or observe cancellation
// (ctx.Done / ctx.Err), and most should simply use transport.Retrier,
// which does both.
//
// A loop is a retry loop when its control flow is error-driven: the
// loop condition tests an error against nil, or the body continues on
// `err != nil`, or exits only on `err == nil`. Loops that merely
// propagate an error out (`if err != nil { return err }`) are not
// retries and are never flagged.
var RetrynakedAnalyzer = &Analyzer{
	Name: "retrynaked",
	Doc:  "report retry loops around remote calls with no backoff or cancellation",
	AppliesTo: func(scope string) bool {
		return hasPrefixPath(scope, "genie/internal")
	},
	Run: runRetrynaked,
}

func runRetrynaked(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			s := retryScan{info: pass.Info, prog: pass.Prog}
			if loop.Cond != nil && s.errCompare(loop.Cond, token.NEQ) {
				// `for err != nil { ... }` keeps looping until success.
				s.retries = true
			}
			walkIgnoringFuncLits(loop.Body, s.visit)
			if s.remote != nil && s.retries && !s.paced {
				pass.Reportf(s.remote.Pos(), "retry loop re-issues %s with no backoff or cancellation; sleep between attempts, check the context, or use transport.Retrier",
					s.remoteName)
			}
			return true
		})
	}
}

// retryScan accumulates evidence about one for-loop body: a remote call
// worth retrying, error-driven control flow, and any pacing or
// cancellation signal that would make the retry polite.
type retryScan struct {
	info       *types.Info
	prog       *Program // interprocedural summaries
	remote     ast.Node // first remote call found in the body
	remoteName string
	retries    bool // error-driven control flow (continue-on-error / exit-on-success)
	paced      bool // sleep / timer / select / channel recv / ctx check
}

func (s *retryScan) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		s.classifyCall(n)
	case *ast.SelectStmt:
		// A select blocks on channels (or polls deliberately with
		// default); either way the author thought about scheduling.
		s.paced = true
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			s.paced = true // channel receive gates the next attempt
		}
	case *ast.IfStmt:
		s.classifyBranch(n)
	case *ast.ForStmt:
		// A nested loop is its own site; Inspect visits it separately.
		return false
	}
	return true
}

// classifyCall buckets one call: remote operation, pacing primitive,
// or neither.
func (s *retryScan) classifyCall(call *ast.CallExpr) {
	fn := calleeFunc(s.info, call)
	if fn == nil {
		return
	}
	name, pkg := fn.Name(), funcPkgPath(fn)
	switch pkg {
	case "time":
		switch name {
		case "Sleep", "After", "NewTimer", "NewTicker", "Tick":
			s.paced = true
		}
	case "context":
		// ctx.Done / ctx.Err consulted inside the loop counts as
		// cancellation-awareness.
		if name == "Done" || name == "Err" {
			s.paced = true
		}
	case "genie/internal/transport":
		if strings.Contains(recvTypeString(fn), "Retrier") {
			s.paced = true // Retrier owns backoff and ctx internally
			return
		}
		s.noteRemote(call, "transport."+name)
	case "genie/internal/runtime":
		// Methods of the runtime.Endpoint and Executor interfaces are
		// remote by definition — every implementation crosses the wire.
		// Any other runtime function is judged by its summary below.
		if isEndpointMethod(fn) {
			s.noteRemote(call, "Endpoint."+name)
			return
		}
		fallthrough
	default:
		// Interprocedural: a module-local helper whose summary says it
		// reaches a remote operation is a retry target the AST-local
		// pass cannot see. Pacing stays a loop-body-local judgment —
		// a sleep buried inside the callee is not backoff between
		// *these* attempts.
		if sum, ok := s.prog.Summary(fn); ok && sum.Remote {
			s.noteRemote(call, sum.RemoteName+" (via "+name+")")
		}
	}
}

func (s *retryScan) noteRemote(call *ast.CallExpr, name string) {
	if s.remote == nil {
		s.remote = call
		s.remoteName = name
	}
}

// classifyBranch recognizes the two error-driven retry shapes:
// continue when err != nil, or break/return only when err == nil. An
// `if err != nil { return err }` propagates the failure out of the
// loop and is not a retry.
func (s *retryScan) classifyBranch(ifs *ast.IfStmt) {
	switch {
	case s.errCompare(ifs.Cond, token.NEQ) && bodyBranches(ifs.Body, token.CONTINUE):
		s.retries = true
	case s.errCompare(ifs.Cond, token.EQL) && exitsLoop(ifs.Body):
		s.retries = true
	}
}

// errCompare reports whether cond contains a comparison of an
// error-typed operand against nil with the given operator, anywhere in
// the condition (so `err != nil && n < max` still counts).
func (s *retryScan) errCompare(cond ast.Expr, op token.Token) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op != op {
			return true
		}
		x, y := unparen(be.X), unparen(be.Y)
		if isNilIdent(s.info, y) && s.isErrExpr(x) {
			found = true
		}
		if isNilIdent(s.info, x) && s.isErrExpr(y) {
			found = true
		}
		return !found
	})
	return found
}

func (s *retryScan) isErrExpr(e ast.Expr) bool {
	tv, ok := s.info.Types[e]
	return ok && tv.Type != nil && isErrorType(tv.Type)
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// bodyBranches reports whether the block contains an unlabeled branch
// statement of the given kind, not nested under another loop or switch
// (where it would bind to the inner statement).
func bodyBranches(body *ast.BlockStmt, kind token.Token) bool {
	found := false
	walkIgnoringFuncLits(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return false
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			if kind == token.BREAK {
				return false // break binds to the switch/select
			}
		case *ast.BranchStmt:
			if n.Tok == kind && n.Label == nil {
				found = true
			}
		}
		return !found
	})
	return found
}

// exitsLoop reports whether the block leaves the loop: a return or an
// unlabeled break.
func exitsLoop(body *ast.BlockStmt) bool {
	if bodyBranches(body, token.BREAK) {
		return true
	}
	found := false
	walkIgnoringFuncLits(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.ReturnStmt); ok {
			found = true
		}
		return !found
	})
	return found
}
