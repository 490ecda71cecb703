package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// program.go is genie-lint's SSA-lite interprocedural layer. A Program
// indexes every function declaration across all packages the loader has
// type-checked (the analyzed packages and their module-local
// dependencies share one *types.Package world, so *types.Func identity
// is global), builds a static call graph, seeds a per-function Summary
// from each body, and propagates the summaries to a fixpoint. Analyzers
// query summaries through Pass.Prog to see through call boundaries the
// intraprocedural AST walks cannot: a KV key that escapes into a
// helper, a span ended by a callee, a goroutine target that loops
// forever two calls away.
//
// The representation is deliberately not full SSA: summaries are
// may-facts ("this function may block", "param 2 may reach a KV
// sink"), which is the right polarity for a linter — absence of a fact
// never causes a report, so imprecision degrades to silence, not
// noise.

// Summary is the fixpoint dataflow fact set for one function. All
// fields are may-facts, closed over the static call graph.
type Summary struct {
	// Blocks: the function may park the calling goroutine — a channel
	// operation outside a select-with-default, a blocking select,
	// time.Sleep, WaitGroup.Wait, or a call into a network package.
	Blocks      bool
	BlockReason string

	// Remote: the function may issue a remote operation (a transport
	// method or a runtime.Endpoint method) somewhere below it.
	Remote     bool
	RemoteName string

	// LoopsForever: the function contains (or unconditionally reaches)
	// an unconditional for-loop with no cancellation signal, no return,
	// and no loop-exiting break — once entered it never hands control
	// back.
	LoopsForever bool

	// TimerLeak: the function may allocate a timer/ticker that nothing
	// stops: time.Tick, time.After abandoned by a multi-case select, or
	// an unstopped NewTimer/NewTicker.
	TimerLeak   bool
	TimerReason string

	// RebuildsPlan: the function may replace a *pool.ShardPlan field —
	// it is (or calls into) a membership-rebuild section, after which
	// previously read plan snapshots are stale.
	RebuildsPlan bool

	// KVSinkParams marks parameters whose value may reach a KV binding
	// sink (transport.Binding.Key or a transport Exec.Keep value).
	KVSinkParams map[int]bool

	// EndsSpanParams marks span-typed parameters the function ends on
	// its own (directly or through a callee).
	EndsSpanParams map[int]bool
}

// argFlow records "our parameter param is passed as argument arg to
// callee" — the edge along which per-parameter facts propagate.
type argFlow struct {
	callee *types.Func
	arg    int
	param  int
}

type progFunc struct {
	decl    *ast.FuncDecl
	pkg     *Package
	callees []*types.Func // static module-local callees, source order
	flows   []argFlow
	sum     Summary
}

// Program is the module-wide function index plus fixpoint summaries.
// It is immutable after BuildProgram and safe for concurrent readers.
type Program struct {
	fns   map[*types.Func]*progFunc
	order []*types.Func // deterministic iteration order (by position)
	refs  *refIndex     // module-wide use index (deadexport)
}

// BuildProgram indexes every function in pkgs (packages with load
// errors are skipped), seeds summaries, and runs the propagator.
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{fns: make(map[*types.Func]*progFunc)}
	for _, pkg := range pkgs {
		if len(pkg.Errs) > 0 {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				p.fns[fn] = &progFunc{decl: fd, pkg: pkg}
				p.order = append(p.order, fn)
			}
		}
	}
	sort.Slice(p.order, func(i, j int) bool { return p.order[i].Pos() < p.order[j].Pos() })
	for _, fn := range p.order {
		seedSummary(fn, p.fns[fn])
	}
	p.propagate()
	p.refs = buildRefIndex(pkgs)
	return p
}

// Summary returns the fixpoint summary of fn, if fn is a module-local
// declared function the program indexed.
func (p *Program) Summary(fn *types.Func) (Summary, bool) {
	pf, ok := p.fns[fn]
	if !ok {
		return Summary{}, false
	}
	return pf.sum, true
}

// Decl resolves fn to its declaration and owning package (nil, nil when
// fn is not module-local or has no body).
func (p *Program) Decl(fn *types.Func) (*ast.FuncDecl, *Package) {
	pf, ok := p.fns[fn]
	if !ok {
		return nil, nil
	}
	return pf.decl, pf.pkg
}

// propagate closes the seeded summaries over the call graph. Iteration
// order is deterministic (functions by position, callees in source
// order) so the "reason" strings — which surface in diagnostics — are
// stable across runs.
func (p *Program) propagate() {
	for changed := true; changed; {
		changed = false
		for _, fn := range p.order {
			pf := p.fns[fn]
			for _, c := range pf.callees {
				cp, ok := p.fns[c]
				if !ok {
					continue
				}
				cs := &cp.sum
				if cs.Blocks && !pf.sum.Blocks {
					pf.sum.Blocks, pf.sum.BlockReason = true, cs.BlockReason
					changed = true
				}
				if cs.Remote && !pf.sum.Remote {
					pf.sum.Remote, pf.sum.RemoteName = true, cs.RemoteName
					changed = true
				}
				if cs.LoopsForever && !pf.sum.LoopsForever {
					pf.sum.LoopsForever = true
					changed = true
				}
				if cs.TimerLeak && !pf.sum.TimerLeak {
					pf.sum.TimerLeak, pf.sum.TimerReason = true, cs.TimerReason
					changed = true
				}
				if cs.RebuildsPlan && !pf.sum.RebuildsPlan {
					pf.sum.RebuildsPlan = true
					changed = true
				}
			}
			for _, fl := range pf.flows {
				cp, ok := p.fns[fl.callee]
				if !ok {
					continue
				}
				if cp.sum.KVSinkParams[fl.arg] && !pf.sum.KVSinkParams[fl.param] {
					if pf.sum.KVSinkParams == nil {
						pf.sum.KVSinkParams = make(map[int]bool)
					}
					pf.sum.KVSinkParams[fl.param] = true
					changed = true
				}
				if cp.sum.EndsSpanParams[fl.arg] && !pf.sum.EndsSpanParams[fl.param] {
					if pf.sum.EndsSpanParams == nil {
						pf.sum.EndsSpanParams = make(map[int]bool)
					}
					pf.sum.EndsSpanParams[fl.param] = true
					changed = true
				}
			}
		}
	}
}

// paramIndex maps each named parameter object of decl to its position.
func paramIndex(info *types.Info, decl *ast.FuncDecl) map[types.Object]int {
	out := make(map[types.Object]int)
	if decl.Type.Params == nil {
		return out
	}
	i := 0
	for _, field := range decl.Type.Params.List {
		if len(field.Names) == 0 {
			i++ // unnamed parameter still occupies a position
			continue
		}
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				out[obj] = i
			}
			i++
		}
	}
	return out
}

// seedSummary derives the local (call-free) facts of one function.
// Control-flow facts (Blocks, LoopsForever, Remote, TimerLeak,
// RebuildsPlan) ignore nested function literals — a literal's body runs
// on its own schedule. Per-parameter facts (KV sinks, span ends) look
// inside literals too: a deferred closure that ends a span still ends
// it.
func seedSummary(fn *types.Func, pf *progFunc) {
	info := pf.pkg.Info
	body := pf.decl.Body
	params := paramIndex(info, pf.decl)

	polls := nonBlockingCommOps(body)
	walkIgnoringFuncLits(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if !polls[n] {
				pf.seedBlocks("channel send")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !polls[n] {
				pf.seedBlocks("channel receive")
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				pf.seedBlocks("blocking select")
			}
		case *ast.RangeStmt:
			if t, ok := info.Types[n.X]; ok {
				if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
					pf.seedBlocks("range over channel")
				}
			}
		case *ast.ForStmt:
			if n.Cond == nil && loopNeverExits(info, n.Body) {
				pf.sum.LoopsForever = true
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := unparen(lhs).(*ast.SelectorExpr); ok {
					if t, ok := info.Types[sel]; ok && isScopedNamed(t.Type, "genie/internal/pool", "ShardPlan") {
						pf.sum.RebuildsPlan = true
					}
				}
			}
		case *ast.CallExpr:
			pf.seedCall(info, n)
		}
		return true
	})
	seedTimers(info, body, pf)

	// Per-parameter facts: full walk, literals included.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if !isKVKeepSink(info, lhs) {
					continue
				}
				if idx, ok := resolvedParam(info, params, n.Rhs[i]); ok {
					pf.markKVSink(idx)
				}
			}
		case *ast.CompositeLit:
			if !isScopedNamed(typeOfExpr(info, n), "genie/internal/transport", "Binding") {
				return true
			}
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Key" {
					if idx, ok := resolvedParam(info, params, kv.Value); ok {
						pf.markKVSink(idx)
					}
				}
			}
		case *ast.CallExpr:
			if sel, ok := unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "End" {
				if idx, ok := resolvedParam(info, params, sel.X); ok {
					if isSpanType(typeOfExpr(info, sel.X)) {
						pf.markSpanEnd(idx)
					}
				}
			}
			callee := calleeFunc(info, n)
			if callee == nil || callee == fn {
				return true
			}
			for argIdx, arg := range n.Args {
				if idx, ok := resolvedParam(info, params, arg); ok {
					pf.flows = append(pf.flows, argFlow{callee: callee, arg: argIdx, param: idx})
				}
			}
		}
		return true
	})
}

func (pf *progFunc) seedBlocks(reason string) {
	if !pf.sum.Blocks {
		pf.sum.Blocks, pf.sum.BlockReason = true, reason
	}
}

func (pf *progFunc) markKVSink(i int) {
	if pf.sum.KVSinkParams == nil {
		pf.sum.KVSinkParams = make(map[int]bool)
	}
	pf.sum.KVSinkParams[i] = true
}

func (pf *progFunc) markSpanEnd(i int) {
	if pf.sum.EndsSpanParams == nil {
		pf.sum.EndsSpanParams = make(map[int]bool)
	}
	pf.sum.EndsSpanParams[i] = true
}

// seedCall classifies one direct call for the control-flow facts and
// records the call-graph edge.
func (pf *progFunc) seedCall(info *types.Info, call *ast.CallExpr) {
	callee := calleeFunc(info, call)
	if callee == nil {
		return
	}
	name, pkg := callee.Name(), funcPkgPath(callee)
	recv := recvTypeString(callee)
	switch {
	case pkg == "time" && name == "Sleep":
		pf.seedBlocks("time.Sleep")
	case pkg == "sync" && name == "Wait" && recv == "*sync.WaitGroup":
		pf.seedBlocks("WaitGroup.Wait")
	case blockingPkgs[pkg] && name != "Close":
		pf.seedBlocks("call to " + callee.FullName())
	}
	switch scopePath(pkg) {
	case "genie/internal/transport":
		// Retrier methods pace themselves; encode/decode helpers are
		// pure. Remote means a method that can cross the wire.
		if recv != "" && !strings.Contains(recv, "Retrier") && name != "Close" {
			pf.seedRemote("transport." + name)
		}
	case "genie/internal/runtime":
		if isEndpointMethod(callee) {
			pf.seedRemote("Endpoint." + name)
		}
	}
	pf.callees = append(pf.callees, callee)
}

func (pf *progFunc) seedRemote(name string) {
	if !pf.sum.Remote {
		pf.sum.Remote, pf.sum.RemoteName = true, name
	}
}

// loopNeverExits reports whether a condition-less loop body offers no
// way out: no cancellation signal (select, channel receive, channel
// range, ctx.Done/Err), no return, and no loop-exiting break.
func loopNeverExits(info *types.Info, body *ast.BlockStmt) bool {
	if hasCancelSignalIn(info, body) || bodyBranches(body, token.BREAK) {
		return false
	}
	hasReturn := false
	walkIgnoringFuncLits(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.ReturnStmt); ok {
			hasReturn = true
		}
		return !hasReturn
	})
	return !hasReturn
}

// nonBlockingCommOps collects the communication operands of every
// select that has a default case: those sends/receives are polls, not
// parks.
func nonBlockingCommOps(body *ast.BlockStmt) map[ast.Node]bool {
	polls := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok || !selectHasDefault(sel) {
			return true
		}
		for _, c := range sel.Body.List {
			comm := c.(*ast.CommClause).Comm
			switch s := comm.(type) {
			case *ast.SendStmt:
				polls[s] = true
			case *ast.ExprStmt:
				if u, ok := unparen(s.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					polls[u] = true
				}
			case *ast.AssignStmt:
				for _, rhs := range s.Rhs {
					if u, ok := unparen(rhs).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
						polls[u] = true
					}
				}
			}
		}
		return true
	})
	return polls
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

// seedTimers detects locally-leaked timers: time.Tick (never
// stoppable), time.After abandoned by a multi-case select, and
// NewTimer/NewTicker results that are neither stopped nor handed off.
func seedTimers(info *types.Info, body *ast.BlockStmt, pf *progFunc) {
	alloc := make(map[types.Object]string) // timer/ticker local -> allocator
	released := make(map[types.Object]bool)
	walkIgnoringFuncLits(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					call, ok := unparen(rhs).(*ast.CallExpr)
					if ok && timerAllocName(info, call) != "" {
						if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
							if obj := info.Defs[id]; obj != nil {
								alloc[obj] = timerAllocName(info, call)
								continue
							}
						}
					}
					// A timer local re-assigned or stored elsewhere has
					// a new owner; don't second-guess it.
					if id, ok := unparen(rhs).(*ast.Ident); ok {
						released[info.Uses[id]] = true
					}
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if id, ok := unparen(r).(*ast.Ident); ok {
					released[info.Uses[id]] = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Stop" {
				if id, ok := unparen(sel.X).(*ast.Ident); ok {
					released[info.Uses[id]] = true
				}
			}
			for _, arg := range n.Args {
				if id, ok := unparen(arg).(*ast.Ident); ok {
					released[info.Uses[id]] = true
				}
			}
			switch {
			case isFuncNamed(info, n, "time", "Tick"):
				pf.seedTimerLeak("time.Tick allocates a ticker that can never be stopped")
			}
		case *ast.SelectStmt:
			if len(n.Body.List) >= 2 && selectUsesAfter(info, n) {
				pf.seedTimerLeak("time.After in a multi-case select leaks its timer when another case fires first")
			}
		}
		return true
	})
	for obj, kind := range alloc {
		if !released[obj] {
			pf.seedTimerLeak(kind + " result " + obj.Name() + " is never stopped")
		}
	}
}

func (pf *progFunc) seedTimerLeak(reason string) {
	if !pf.sum.TimerLeak {
		pf.sum.TimerLeak, pf.sum.TimerReason = true, reason
	}
}

// timerAllocName returns "time.NewTimer"/"time.NewTicker" for the
// matching allocation calls, "" otherwise.
func timerAllocName(info *types.Info, call *ast.CallExpr) string {
	if isFuncNamed(info, call, "time", "NewTimer") {
		return "time.NewTimer"
	}
	if isFuncNamed(info, call, "time", "NewTicker") {
		return "time.NewTicker"
	}
	return ""
}

// selectUsesAfter reports whether any comm clause of sel receives from
// time.After.
func selectUsesAfter(info *types.Info, sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		comm := c.(*ast.CommClause).Comm
		if comm == nil {
			continue
		}
		found := false
		ast.Inspect(comm, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isFuncNamed(info, call, "time", "After") {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// isKVKeepSink reports whether lhs is an index into a transport
// Exec.Keep map (the per-request KV retention set).
func isKVKeepSink(info *types.Info, lhs ast.Expr) bool {
	ix, ok := unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return false
	}
	sel, ok := unparen(ix.X).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Keep" {
		return false
	}
	return isScopedNamed(typeOfExpr(info, sel.X), "genie/internal/transport", "Exec")
}

// resolvedParam resolves e (through parens) to a parameter of the
// enclosing function and returns its index.
func resolvedParam(info *types.Info, params map[types.Object]int, e ast.Expr) (int, bool) {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return 0, false
	}
	obj := info.Uses[id]
	if obj == nil {
		return 0, false
	}
	idx, ok := params[obj]
	return idx, ok
}

// hasCancelSignalIn reports whether body contains any construct through
// which a stop can arrive: a channel receive (select case or direct), a
// range over a channel, or a context Done/Err call. Function literals
// are skipped — their bodies run on their own schedule.
func hasCancelSignalIn(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	walkIgnoringFuncLits(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t, ok := info.Types[n.X]; ok {
				if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if fn := calleeFunc(info, n); fn != nil {
				if (fn.Name() == "Done" || fn.Name() == "Err") && funcPkgPath(fn) == "context" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
