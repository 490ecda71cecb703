package pool

import (
	"context"
	"errors"
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
// each layer's KV resident on the layer's owner.
type placement struct{ m *Manager }

// errNotResident fails a hop that would bind a KV key its member does
// not hold — the key's owner departed, or the plan moved the layer —
// before any RPC. Nothing is wrong with the member: the session only has
// to rebuild its KV there.
var errNotResident = errors.New("pool: KV not resident on the hop's member")

// Route cuts the hop at the end of the contiguous run that owns layer lo
// under the current plan snapshot. Its Repair is the pool's loss path:
// the failed member is evicted and its shards re-placed, and the session
// core restarts the pass against the repaired plan, rebuilding its KV
// from its token log first. A hop that failed only because its KV is
// not resident there needs no eviction. Any other exec error counts — a
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
		Repair: func(err error) error {
			if errors.Is(err, errNotResident) {
				return nil
			}
			return p.m.reportExecFailure(name, seen)
		},
	}, nil
}

// Free releases a session's scoped KV key on whichever member holds it
// and drops it from the index.
func (p placement) Free(key string) error {
	m := p.m
	m.mu.Lock()
	r, ok := m.resident[key]
	delete(m.resident, key)
	mem := m.members[r.member]
	m.mu.Unlock()
	if !ok || mem == nil {
		return nil
	}
	return mem.ep.Free(key)
}

// segmentExec dispatches one hop to the member that owns its layers.
// Each KV bind carries the epoch the index recorded for its key, and
// each kept output is indexed on that member with the reply's epoch.
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
	gone := mem == nil || mem.departed
	missing := ""
	for i := range x.Binds {
		b := &x.Binds[i]
		if b.Key == "" {
			continue
		}
		r, ok := m.resident[b.Key]
		if !ok || r.member != name {
			missing = b.Key
			break
		}
		b.Epoch = r.epoch
	}
	m.mu.Unlock()
	if gone {
		return nil, fmt.Errorf("pool: member %q departed", name)
	}
	if missing != "" {
		return nil, fmt.Errorf("pool: segment [%d,%d) on %q binds %q: %w", e.seg.Lo, e.seg.Hi, name, missing, errNotResident)
	}
	_, span := obs.StartSpan(ctx, "pool.segment")
	span.SetAttr("member", name)
	span.SetAttrInt("lo", int64(e.seg.Lo))
	span.SetAttrInt("hi", int64(e.seg.Hi))
	t0 := time.Now()
	ok, err := runtime.ExecEP(ctx, mem.ep, x)
	span.End()
	if m.cfg.Health != nil {
		m.cfg.Health.Endpoint(name).Observe(time.Since(t0), err != nil)
	}
	if err != nil {
		return nil, fmt.Errorf("pool: segment [%d,%d) on %q: %w", e.seg.Lo, e.seg.Hi, name, err)
	}
	m.mu.Lock()
	if !mem.departed {
		// An eviction that began meanwhile already purged this member.
		for _, key := range x.Keep {
			m.resident[key] = residence{member: name, epoch: ok.Epoch}
		}
	}
	m.mu.Unlock()
	m.segExecs.Inc()
	if !e.last {
		// Everything a non-final shard returns is the boundary activation.
		for _, t := range ok.Results {
			m.crossBytes.Add(int64(t.NumBytes()))
		}
	}
	return ok, nil
}
