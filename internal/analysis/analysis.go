// Package analysis is genie-lint's engine: a pure-stdlib static-analysis
// driver (go/parser + go/types + the "source" importer — no external
// dependencies) that loads every package in the module and runs a
// registry of Genie-specific analyzers over the type-checked ASTs.
//
// The analyzers enforce the semantic invariants the paper argues a
// disaggregation layer must preserve and that ordinary Go tooling cannot
// see:
//
//   - ctxflow: context propagation across the remote-execution path
//   - lockscope: no mutex held across a transport call, channel
//     operation or sleep
//   - goleak: cancellable goroutines in the serving layers
//   - errcheck: no silently dropped errors
//   - tensormut: materialized tensors are immutable outside the kernel
//     packages
//   - retrynaked: no retry loop around a remote call without backoff or
//     cancellation
//   - kvscope: session KV keys are scope-prefixed and bound only by the
//     plan owners
//   - planver: no plan snapshot read after a rebuild replaced it
//   - spanbalance: every obs span started is ended on every path
//   - timerleak: no timer allocated per loop iteration without Stop
//   - deadexport: no exported internal API that only tests reach
//
// Every check must show that it can still fire: mutation_test.go edits
// today's source in memory, one realistic edit per analyzer, and
// asserts that the check reports at the edited line. A check for which
// no compiling edit of the real tree exists guards something the type
// system already rules out, and is deleted rather than kept.
//
// Deliberate exceptions are encoded in the source as
//
//	//lint:ignore <check> <reason>
//
// on the offending line or the line directly above it; the reason is
// mandatory and a malformed directive is itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one named lint pass. Check IDs are stable: they appear
// in diagnostics, in -checks filters, and in //lint:ignore directives.
type Analyzer struct {
	// Name is the stable check ID (e.g. "ctxflow").
	Name string
	// Doc is a one-line description shown by genie-lint -list.
	Doc string
	// AppliesTo gates the analyzer by package scope path (see
	// Package.ScopePath). Nil means every package.
	AppliesTo func(scopePath string) bool
	// Run inspects one package and reports diagnostics through the pass.
	Run func(*Pass)
}

// Pass carries one package's type-checked representation to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// ScopePath is the package path used for scope decisions. For real
	// packages it equals the import path; for packages under
	// internal/analysis/testdata/src it is the path the testdata package
	// pretends to live at, so analyzers scope identically in tests.
	ScopePath string
	// Prog is the module-wide interprocedural index (call graph +
	// fixpoint summaries), shared by every analyzer in a run. Never nil.
	Prog *Program

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Check:   p.Analyzer.Name,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding. The JSON field names are the -json output
// schema and are load-bearing for CI annotation; do not rename.
type Diagnostic struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Col, d.Message, d.Check)
}

// Analyzers returns the full registry in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		CtxflowAnalyzer,
		LockscopeAnalyzer,
		GoleakAnalyzer,
		ErrcheckAnalyzer,
		TensormutAnalyzer,
		RetrynakedAnalyzer,
		KvscopeAnalyzer,
		PlanverAnalyzer,
		SpanbalanceAnalyzer,
		TimerleakAnalyzer,
		DeadexportAnalyzer,
	}
}

// RunAnalyzer applies one analyzer to a loaded package and returns its
// raw diagnostics (ignore directives are applied by the driver). prog
// carries the shared interprocedural summaries and must be non-nil:
// build it with BuildProgram over everything the loader saw.
func RunAnalyzer(a *Analyzer, pkg *Package, prog *Program) []Diagnostic {
	if a.AppliesTo != nil && !a.AppliesTo(pkg.ScopePath()) {
		return nil
	}
	var diags []Diagnostic
	a.Run(&Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		Info:      pkg.Info,
		ScopePath: pkg.ScopePath(),
		Prog:      prog,
		diags:     &diags,
	})
	return diags
}
