// Package planverdata is genie-lint test fixture data for the
// plan-snapshot freshness analyzer: stale snapshot reads across a
// rebuild section, and the shapes that are not stale.
package planverdata

import "genie/internal/pool"

type mgr struct {
	plan *pool.ShardPlan
}

// swapPlan replaces the active plan — the rebuild section planver's
// staleness rule keys off (its summary says RebuildsPlan).
func (m *mgr) swapPlan(pl *pool.ShardPlan) {
	m.plan = pl
}

// next stands in for the pool's constructors.
func next(*pool.ShardPlan) *pool.ShardPlan { return &pool.ShardPlan{} }

// staleRead keeps using a snapshot captured before the rebuild: the
// membership epoch it describes may be gone.
func (m *mgr) staleRead() string {
	snap := m.plan
	m.swapPlan(next(snap))
	return snap.Members()[0] // want "plan snapshot \"snap\" read after swapPlan rebuilt the plan"
}

// freshReread re-captures after the rebuild; no finding.
func (m *mgr) freshReread() string {
	snap := m.plan
	m.swapPlan(next(snap))
	snap = m.plan
	return snap.Members()[0]
}

// argsBeforeEffect: the rebuild call's own arguments are read before
// the swap happens — evaluation order says they are not stale reads.
func (m *mgr) argsBeforeEffect() {
	snap := m.plan
	m.swapPlan(next(snap))
}
