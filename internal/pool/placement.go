package pool

import (
	"context"
	"fmt"
	"time"

	"genie/internal/obs"
	"genie/internal/runtime"
	"genie/internal/transport"
)

// Runner returns an LLMRunner whose sessions execute the sharded plan —
// the drop-in the serving engine batches over unchanged. Weights are
// managed by the pool (the engine must not install them), and the
// runner needs no endpoint of its own: the session core asks the pool
// who executes each hop.
func (m *Manager) Runner() *runtime.LLMRunner {
	return runtime.NewPlacedRunner(runtime.LLMRunner{Model: m.cfg.Model, WeightsResident: true}, placement{m}, nil)
}

// placement is the pool as the session core sees it
// (runtime.Placement): each forward pass walks the shard plan hop by
// hop, shipping the boundary activation to the next member and keeping
// each layer's KV resident (and lineage-tracked) on the layer's owner.
type placement struct{ m *Manager }

// Route cuts the hop at the end of the contiguous run that owns layer lo
// under the current plan snapshot. Its Failover is the pool's loss
// path: the failed member is evicted and its shards re-placed, and the
// core routes the same layer again against the repaired plan. Earlier
// hops already appended this step's KV rows on their (surviving)
// members, and the failed exec was never recorded, so lineage replay
// re-homes exactly the pre-failure state. Any exec error counts — a
// member's conn is not redialled, so a failed or cancelled round trip
// has lost it.
func (p placement) Route(_ bool, lo int) (runtime.Route, error) {
	plan, err := p.m.planSnapshot()
	if err != nil {
		return runtime.Route{}, err
	}
	seg := plan.shardFrom(lo)
	name, seen := seg.Member, plan.Version
	return runtime.Route{
		Hi: seg.Hi,
		EP: &segmentExec{m: p.m, seg: seg, last: seg.Hi == len(plan.Owners)},
		Failover: &runtime.Failover{
			Rebind:     func(error) error { return p.m.reportExecFailure(name, seen) },
			MaxRebinds: segmentRetries,
			Rebindable: func(error) bool { return true },
		},
	}, nil
}

// Free releases a session's scoped KV key on whichever member holds it
// and drops its lineage, so departures never resurrect state the
// session already released.
func (p placement) Free(key string) error {
	home, ok := p.m.lin.HomeOf(key)
	if !ok {
		return nil
	}
	var err error
	if ep, live := p.m.lin.Endpoint(home); live {
		err = ep.Free(key)
	}
	p.m.lin.Forget(key)
	return err
}

// segmentExec dispatches one hop to the member that owns its layers,
// through the member's tracked endpoint, so binding epochs are corrected
// from lineage (which is what lets a hop re-issue cleanly right after
// its cache migrated to a new owner) and provenance is recorded.
type segmentExec struct {
	m    *Manager
	seg  Shard
	last bool // ends in the head: nothing crosses to another shard
}

func (e *segmentExec) Exec(x *transport.Exec) (*transport.ExecOK, error) {
	return e.ExecCtx(nil, x)
}

func (e *segmentExec) ExecCtx(ctx context.Context, x *transport.Exec) (*transport.ExecOK, error) {
	m, name := e.m, e.seg.Member
	m.mu.Lock()
	mem := m.members[name]
	m.mu.Unlock()
	if mem == nil {
		return nil, fmt.Errorf("pool: member %q departed", name)
	}
	_, span := obs.StartSpan(ctx, "pool.segment")
	span.SetAttr("member", name)
	span.SetAttrInt("lo", int64(e.seg.Lo))
	span.SetAttrInt("hi", int64(e.seg.Hi))
	t0 := time.Now()
	ok, err := mem.te.ExecCtx(ctx, x)
	span.End()
	if m.cfg.Health != nil {
		m.cfg.Health.Endpoint(name).Observe(time.Since(t0), err != nil)
	}
	if err != nil {
		return nil, fmt.Errorf("pool: segment [%d,%d) on %q: %w", e.seg.Lo, e.seg.Hi, name, err)
	}
	m.segExecs.Inc()
	if !e.last {
		// Everything a non-final shard returns is the boundary activation.
		for _, t := range ok.Results {
			m.crossBytes.Add(int64(t.NumBytes()))
		}
	}
	return ok, nil
}
