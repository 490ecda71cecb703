package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrcheckAnalyzer flags call statements that discard an error result.
// In a disaggregated runtime almost every error is a lifecycle event —
// a lost connection, a rejected session, a stale residency epoch — and
// dropping one on the floor is how recovery goes wrong: the local
// view of remote state diverges from the real thing and the divergence
// surfaces much later as a wrong answer instead of an error.
//
// Flagged: an expression statement whose call returns an error (alone
// or as the last result) that is not consumed. Not flagged:
//
//   - explicit discards: `_ = f()` and `x, _ := f()` say "I considered
//     this error and chose to drop it" — that is reviewable
//   - defer and go statements (`defer f.Close()` teardown idiom)
//   - the allowlist: fmt Print/Fprint family, (*strings.Builder) and
//     (*bytes.Buffer) methods, hash.Hash.Write, and math/rand Read —
//     all documented to never return a non-nil error or writing to
//     stderr/stdout where there is no meaningful recovery
var ErrcheckAnalyzer = &Analyzer{
	Name: "errcheck",
	Doc:  "no silently discarded error returns",
	Run:  runErrcheck,
}

func runErrcheck(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := unparen(stmt.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			if !returnsError(pass.Info, call) || errcheckAllowed(pass.Info, call) {
				return true
			}
			pass.Reportf(call.Pos(), "%s returns an error that is not checked", calleeName(pass.Info, call))
			return true
		})
	}
}

// returnsError reports whether call's sole or last result is an error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		return t.Len() > 0 && isErrorType(t.At(t.Len()-1).Type())
	default:
		return isErrorType(t)
	}
}

// errcheckAllowed implements the allowlist.
func errcheckAllowed(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	pkg, name, recv := funcPkgPath(fn), fn.Name(), recvTypeString(fn)
	switch {
	case pkg == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")):
		return true
	case recv == "*strings.Builder" || recv == "*bytes.Buffer":
		return true
	case pkg == "hash" && name == "Write":
		return true
	case pkg == "math/rand" && name == "Read":
		return true
	}
	return false
}

// calleeName renders the called function for the report.
func calleeName(info *types.Info, call *ast.CallExpr) string {
	if fn := calleeFunc(info, call); fn != nil {
		return fn.FullName()
	}
	return types.ExprString(call.Fun)
}
