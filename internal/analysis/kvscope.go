package analysis

import (
	"go/ast"
	"go/types"
)

// KvscopeAnalyzer guards KV-cache key discipline. Session KV state is
// the one thing the disaggregation layer must never confuse across
// tenants or shards: keys are namespaced by a per-session scope prefix
// (runtime.Session, pool.Manager, and the kvcache strategies all derive
// keys as scope + models.CacheRef(layer, half)), and only the
// plan-owner packages — internal/pool, internal/runtime, and
// internal/kvcache (whose strategies place prefix-cached KV on
// backends) — may decide which backend retains which key. Two rules
// follow:
//
//  1. a models.CacheRef result bound into a KV sink
//     (transport.Binding.Key or a transport Exec.Keep value) must carry
//     a scope prefix: a bare CacheRef collides across sessions the
//     moment two of them share a backend
//  2. CacheRef-derived keys may reach a KV sink only in the plan-owner
//     packages; anywhere else in internal/ is cross-shard KV access
//     behind the plan's back
//
// The interprocedural summaries (Pass.Prog) extend both rules through
// helpers: passing a bare CacheRef to a function whose parameter flows
// into a sink is flagged at the call site, which the old AST-local pass
// could not see.
var KvscopeAnalyzer = &Analyzer{
	Name: "kvscope",
	Doc:  "session KV keys must be scope-prefixed and bound only by the plan owners",
	AppliesTo: func(scope string) bool {
		return hasPrefixPath(scope, "genie/internal")
	},
	Run: runKvscope,
}

// kvOwnerScope reports whether scope is a plan-owner package.
func kvOwnerScope(scope string) bool {
	return hasPrefixPath(scope, "genie/internal/pool") ||
		hasPrefixPath(scope, "genie/internal/runtime") ||
		hasPrefixPath(scope, "genie/internal/kvcache")
}

func runKvscope(pass *Pass) {
	ks := &kvScan{pass: pass, bindings: make(map[types.Object]ast.Expr)}
	// Single-level local bindings let the taint chase through
	// `key := models.CacheRef(i, "k"); ex.Keep[id] = key`.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			a, ok := n.(*ast.AssignStmt)
			if !ok || len(a.Lhs) != len(a.Rhs) {
				return true
			}
			for i, lhs := range a.Lhs {
				if id, ok := unparen(lhs).(*ast.Ident); ok {
					if obj := pass.Info.Defs[id]; obj != nil {
						ks.bindings[obj] = a.Rhs[i]
					}
				}
			}
			return true
		})
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					if isKVKeepSink(pass.Info, lhs) {
						ks.judge(n.Rhs[i], "")
					}
				}
			case *ast.CompositeLit:
				if !isScopedNamed(typeOfExpr(pass.Info, n), "genie/internal/transport", "Binding") {
					return true
				}
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Key" {
							ks.judge(kv.Value, "")
						}
					}
				}
			case *ast.CallExpr:
				callee := calleeFunc(pass.Info, n)
				if callee == nil {
					return true
				}
				sum, ok := pass.Prog.Summary(callee)
				if !ok || sum.KVSinkParams == nil {
					return true
				}
				for j, arg := range n.Args {
					if sum.KVSinkParams[j] {
						ks.judge(arg, callee.Name())
					}
				}
			}
			return true
		})
	}
}

type kvScan struct {
	pass     *Pass
	bindings map[types.Object]ast.Expr
}

// judge applies both rules to a value reaching a KV sink. via names the
// helper carrying the value to the sink ("" for a direct binding).
func (ks *kvScan) judge(value ast.Expr, via string) {
	suffix := ""
	if via != "" {
		suffix = " (reaches the sink through " + via + ")"
	}
	switch {
	case ks.derivesCacheRef(value, nil) && !kvOwnerScope(ks.pass.ScopePath):
		ks.pass.Reportf(value.Pos(),
			"KV cache key bound outside the plan-owner packages internal/pool and internal/runtime%s; cross-shard KV residency is the plan owner's decision", suffix)
	case ks.bareCacheRef(value, nil):
		ks.pass.Reportf(value.Pos(),
			"KV key is a bare models.CacheRef with no session-scope prefix%s; two sessions on one backend would collide — bind scope+models.CacheRef(...)", suffix)
	}
}

// bareCacheRef reports whether e evaluates to a raw models.CacheRef
// result with nothing concatenated in front of it, chasing single-level
// local bindings.
func (ks *kvScan) bareCacheRef(e ast.Expr, seen map[types.Object]bool) bool {
	switch e := unparen(e).(type) {
	case *ast.CallExpr:
		return isScopedFunc(ks.pass.Info, e, "genie/internal/models", "CacheRef")
	case *ast.Ident:
		obj := ks.pass.Info.Uses[e]
		if obj == nil || seen[obj] {
			return false
		}
		bound, ok := ks.bindings[obj]
		if !ok {
			return false
		}
		if seen == nil {
			seen = make(map[types.Object]bool)
		}
		seen[obj] = true
		return ks.bareCacheRef(bound, seen)
	}
	return false
}

// derivesCacheRef reports whether any part of e comes from
// models.CacheRef — scoped or not.
func (ks *kvScan) derivesCacheRef(e ast.Expr, seen map[types.Object]bool) bool {
	switch e := unparen(e).(type) {
	case *ast.CallExpr:
		return isScopedFunc(ks.pass.Info, e, "genie/internal/models", "CacheRef")
	case *ast.BinaryExpr:
		return ks.derivesCacheRef(e.X, seen) || ks.derivesCacheRef(e.Y, seen)
	case *ast.Ident:
		obj := ks.pass.Info.Uses[e]
		if obj == nil || seen[obj] {
			return false
		}
		bound, ok := ks.bindings[obj]
		if !ok {
			return false
		}
		if seen == nil {
			seen = make(map[types.Object]bool)
		}
		seen[obj] = true
		return ks.derivesCacheRef(bound, seen)
	}
	return false
}
