package pool

import "time"

// MemberStatus is one member's row in Status.
type MemberStatus struct {
	Name        string `json:"name"`
	Healthy     bool   `json:"healthy"`
	Spare       bool   `json:"spare"`
	WeightBytes int64  `json:"weight_bytes"`
	Layers      int    `json:"layers"`
	// Health/Score are the fail-slow scorer's graded state and composite
	// score for this member; empty/zero without Config.Health.
	Health string  `json:"health,omitempty"`
	Score  float64 `json:"score,omitempty"`
}

// ShardStatus is one contiguous layer run in the active plan.
type ShardStatus struct {
	Member string `json:"member"`
	Lo     int    `json:"lo"`
	Hi     int    `json:"hi"`
}

// Status is the pool's externally visible state, rendered into the
// gateway's /stats document.
type Status struct {
	Strategy    string         `json:"strategy"`
	PlanVersion int64          `json:"plan_version"`
	PlanError   string         `json:"plan_error,omitempty"`
	Members     []MemberStatus `json:"members"`
	Shards      []ShardStatus  `json:"shards,omitempty"`
	CutEdges    int            `json:"cut_edges"`
	CutBytes    int64          `json:"cut_bytes"`
	// EstimateUs is the cost model's per-decode-step latency estimate.
	EstimateUs int64 `json:"estimate_us"`

	Rebuilds        int64 `json:"rebuilds"`
	MigratedKeys    int64 `json:"migrated_keys"`
	CrossShardBytes int64 `json:"cross_shard_bytes"`
	MemberFailures  int64 `json:"member_failures"`
	SegmentExecs    int64 `json:"segment_execs"`
}

// Status reports membership, the active plan, and lifetime counters.
func (m *Manager) Status() Status {
	m.mu.Lock()
	plan := m.plan
	planErr := m.planErr
	ver := m.version
	names := append([]string(nil), m.order...)
	m.mu.Unlock()

	st := Status{
		Strategy:        m.cfg.Strategy.String(),
		PlanVersion:     ver,
		Rebuilds:        m.rebuilds.Value(),
		MigratedKeys:    m.migrated.Value(),
		CrossShardBytes: m.crossBytes.Value(),
		MemberFailures:  m.failures.Value(),
		SegmentExecs:    m.segExecs.Value(),
	}
	if plan == nil && planErr != nil {
		st.PlanError = planErr.Error()
	}
	layersOf := map[string]int{}
	if plan != nil {
		st.Strategy = plan.Strategy.String()
		st.CutEdges = plan.CutEdges
		st.CutBytes = plan.CutBytes
		st.EstimateUs = int64(plan.Estimate / time.Microsecond)
		for _, sh := range plan.Shards() {
			st.Shards = append(st.Shards, ShardStatus{Member: sh.Member, Lo: sh.Lo, Hi: sh.Hi})
			layersOf[sh.Member] += sh.Hi - sh.Lo
		}
	}
	for _, name := range names {
		ms := MemberStatus{Name: name, Layers: layersOf[name], Spare: layersOf[name] == 0}
		if plan != nil {
			ms.WeightBytes = plan.Weights[name]
		}
		m.mu.Lock()
		if mem := m.members[name]; mem != nil {
			ms.Healthy = !mem.departed
		}
		m.mu.Unlock()
		if m.cfg.Health != nil {
			tr := m.cfg.Health.Endpoint(name)
			ms.Health = tr.State().String()
			ms.Score = tr.Score()
		}
		st.Members = append(st.Members, ms)
	}
	return st
}
