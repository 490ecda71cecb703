// Package lineage implements Genie's fault-tolerance model (§3.5),
// inspired by dataflow systems: the SRG is the unit of lineage, remote
// resident objects are referenced by key+epoch, and failures trigger
// selective recomputation of exactly the chains that were lost.
//
// Stateful objects (KV caches) are overwritten in place under stable
// keys, so the manager tracks *versions*: each execution that keeps an
// output produces a new version record whose provenance points at the
// version records it consumed. Recovery replays the version chain from
// the newest surviving cut — an upload, or a version that is still
// materialized — forward to the lost tip, exactly the "subgraph on the
// cut induced by the lost state".
//
// Idempotence comes from scoping effects to key+epoch (replays overwrite
// the same keys, old epochs are rejected) and from never re-delivering
// external outputs during replay (commit points).
package lineage

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"genie/internal/runtime"
	"genie/internal/srg"
	"genie/internal/tensor"
	"genie/internal/transport"
)

// execRecord captures one tracked execution: enough to replay it.
type execRecord struct {
	graph  *srg.Graph
	inline map[string]*tensor.Tensor
	// deps maps leaf refs to the version records consumed.
	deps map[string]*version
	// keeps maps graph nodes to the keys they materialize.
	keeps map[srg.NodeID]string
	// vers lists every version record this execution produced, so a
	// replay can refresh all of their epochs at once.
	vers []*version
}

// version is one materialized value of a key.
type version struct {
	key   string
	ep    string
	epoch uint32
	// uploaded is the source tensor for directly installed objects.
	uploaded *tensor.Tensor
	// rec is the producing execution for computed objects.
	rec *execRecord
}

// Manager tracks resident objects across endpoints and recovers them on
// failure.
type Manager struct {
	mu     sync.Mutex
	eps    map[string]runtime.Endpoint
	latest map[string]*version
}

// NewManager creates an empty lineage manager.
func NewManager() *Manager {
	return &Manager{
		eps:    make(map[string]runtime.Endpoint),
		latest: make(map[string]*version),
	}
}

// RegisterEndpoint adds a named backend.
func (m *Manager) RegisterEndpoint(name string, ep runtime.Endpoint) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.eps[name] = ep
}

// Endpoint returns a registered backend.
func (m *Manager) Endpoint(name string) (runtime.Endpoint, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ep, ok := m.eps[name]
	return ep, ok
}

// UploadTracked installs a tensor under key on the named endpoint and
// records upload provenance.
func (m *Manager) UploadTracked(epName, key string, data *tensor.Tensor) error {
	ep, ok := m.Endpoint(epName)
	if !ok {
		return fmt.Errorf("lineage: unknown endpoint %q", epName)
	}
	ack, err := ep.Upload(key, data)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.latest[key] = &version{key: key, ep: epName, epoch: ack.Epoch, uploaded: data}
	return nil
}

// ExecTracked runs a subgraph on the named endpoint, filling binding
// epochs from tracked state, and records a version for every kept
// output. ctx (nil allowed) bounds and traces the RPC.
func (m *Manager) ExecTracked(ctx context.Context, epName string, x *transport.Exec) (*transport.ExecOK, error) {
	ep, ok := m.Endpoint(epName)
	if !ok {
		return nil, fmt.Errorf("lineage: unknown endpoint %q", epName)
	}
	rec := &execRecord{
		graph:  x.Graph,
		inline: map[string]*tensor.Tensor{},
		deps:   map[string]*version{},
		keeps:  map[srg.NodeID]string{},
	}
	m.mu.Lock()
	for i := range x.Binds {
		b := &x.Binds[i]
		if b.Inline != nil {
			rec.inline[b.Ref] = b.Inline
			continue
		}
		if v := m.latest[b.Key]; v != nil {
			b.Epoch = v.epoch
			rec.deps[b.Ref] = v
		}
	}
	// Implicit dependencies: param leaves without explicit binds resolve
	// from the resident store under their own ref.
	bound := map[string]bool{}
	for _, b := range x.Binds {
		bound[b.Ref] = true
	}
	for _, n := range x.Graph.Nodes() {
		if n.Op == "param" && !bound[n.Ref] {
			if v := m.latest[n.Ref]; v != nil {
				rec.deps[n.Ref] = v
			}
		}
	}
	m.mu.Unlock()

	ok2, err := runtime.ExecEP(ctx, ep, x)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for node, key := range x.Keep {
		rec.keeps[node] = key
		v := &version{key: key, ep: epName, epoch: ok2.Epoch, rec: rec}
		rec.vers = append(rec.vers, v)
		m.latest[key] = v
	}
	return ok2, nil
}

// Tracked returns the keys currently tracked, sorted.
func (m *Manager) Tracked() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]string, 0, len(m.latest))
	for k := range m.latest {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Forget drops a key's lineage (after the object is freed remotely).
// Without this, recovery would replay per-session state the session
// already released, and the version chain would pin its tensors
// forever.
func (m *Manager) Forget(key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.latest, key)
}

// HomeOf returns the endpoint currently holding key's latest version.
// The pool layer routes Frees and targeted migrations with it.
func (m *Manager) HomeOf(key string) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.latest[key]
	if !ok {
		return "", false
	}
	return v.ep, true
}

// EpochOf returns the tracked epoch for a key's latest version.
func (m *Manager) EpochOf(key string) (uint32, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.latest[key]
	if !ok {
		return 0, false
	}
	return v.epoch, true
}

// DetectLost probes an endpoint and returns the tracked keys whose
// latest versions are stale there (state lost to a crash). An
// unreachable endpoint loses everything it held.
func (m *Manager) DetectLost(epName string) ([]string, error) {
	ep, ok := m.Endpoint(epName)
	if !ok {
		return nil, fmt.Errorf("lineage: unknown endpoint %q", epName)
	}
	m.mu.Lock()
	held := map[string]uint32{}
	for k, v := range m.latest {
		if v.ep == epName {
			held[k] = v.epoch
		}
	}
	m.mu.Unlock()

	st, err := ep.Stats()
	var lost []string
	if err != nil {
		for k := range held {
			lost = append(lost, k)
		}
		sort.Strings(lost)
		return lost, nil
	}
	for k, epoch := range held {
		if st.Epoch != epoch {
			lost = append(lost, k)
		}
	}
	sort.Strings(lost)
	return lost, nil
}

// Recover regenerates the given lost keys onto endpoint onto, replaying
// the version chains below them as needed. Versions that are still the
// live, materialized latest value of an un-lost key cut the replay.
func (m *Manager) Recover(lost []string, onto string) error {
	ep, ok := m.Endpoint(onto)
	if !ok {
		return fmt.Errorf("lineage: unknown endpoint %q", onto)
	}
	lostSet := map[string]bool{}
	for _, k := range lost {
		lostSet[k] = true
	}

	m.mu.Lock()
	var tips []*version
	sorted := append([]string(nil), lost...)
	sort.Strings(sorted)
	for _, k := range sorted {
		v := m.latest[k]
		if v == nil {
			m.mu.Unlock()
			return fmt.Errorf("lineage: no provenance for lost object %q", k)
		}
		tips = append(tips, v)
	}

	// alive reports whether a version's data can be read as-is.
	alive := func(v *version) bool {
		return m.latest[v.key] == v && !lostSet[v.key]
	}

	// Collect execRecords to replay, in dependency order (DFS postorder
	// over version records, cutting at alive versions and expanding
	// uploads in place).
	var order []*version // uploads and exec tips interleaved in dep order
	visitedVer := map[*version]bool{}
	visitedRec := map[*execRecord]bool{}
	var visit func(v *version) error
	visit = func(v *version) error {
		if visitedVer[v] {
			return nil
		}
		visitedVer[v] = true
		if v.uploaded != nil {
			order = append(order, v)
			return nil
		}
		if v.rec == nil {
			return fmt.Errorf("lineage: version of %q has no provenance", v.key)
		}
		if visitedRec[v.rec] {
			return nil
		}
		visitedRec[v.rec] = true
		refs := make([]string, 0, len(v.rec.deps))
		for ref := range v.rec.deps {
			refs = append(refs, ref)
		}
		sort.Strings(refs)
		for _, ref := range refs {
			dep := v.rec.deps[ref]
			if alive(dep) {
				continue
			}
			if err := visit(dep); err != nil {
				return err
			}
		}
		order = append(order, v)
		return nil
	}
	for _, tip := range tips {
		if err := visit(tip); err != nil {
			m.mu.Unlock()
			return err
		}
	}
	m.mu.Unlock()

	// Replay in order. Each exec regenerates every key it kept; epochs
	// update as we go so later replays bind fresh state.
	replayed := map[*execRecord]bool{}
	for _, v := range order {
		if v.uploaded != nil {
			ack, err := ep.Upload(v.key, v.uploaded)
			if err != nil {
				return fmt.Errorf("lineage: re-upload %q: %w", v.key, err)
			}
			m.mu.Lock()
			v.ep, v.epoch = onto, ack.Epoch
			m.mu.Unlock()
			continue
		}
		if replayed[v.rec] {
			continue
		}
		replayed[v.rec] = true
		x := &transport.Exec{Graph: v.rec.graph, Keep: map[srg.NodeID]string{}}
		for node, key := range v.rec.keeps {
			x.Keep[node] = key
		}
		m.mu.Lock()
		for ref, data := range v.rec.inline {
			x.Binds = append(x.Binds, transport.Binding{Ref: ref, Inline: data})
		}
		for ref, dep := range v.rec.deps {
			x.Binds = append(x.Binds, transport.Binding{Ref: ref, Key: dep.key, Epoch: dep.epoch})
		}
		m.mu.Unlock()
		sort.Slice(x.Binds, func(i, j int) bool { return x.Binds[i].Ref < x.Binds[j].Ref })
		ok2, err := ep.Exec(x)
		if err != nil {
			return fmt.Errorf("lineage: replay %q: %w", v.key, err)
		}
		m.mu.Lock()
		// Every version this record produced refreshes; dependents hold
		// these version records by pointer, so the new epochs propagate
		// to later replays automatically.
		for _, w := range v.rec.vers {
			w.ep, w.epoch = onto, ok2.Epoch
		}
		m.mu.Unlock()
	}
	return nil
}

// RecoverFrom detects loss on failed and recovers onto onto in one step,
// returning how many keys were regenerated.
func (m *Manager) RecoverFrom(failed, onto string) (int, error) {
	lost, err := m.DetectLost(failed)
	if err != nil {
		return 0, err
	}
	if len(lost) == 0 {
		return 0, nil
	}
	if err := m.Recover(lost, onto); err != nil {
		return 0, err
	}
	return len(lost), nil
}

// Checkpoint materializes a key's current remote value back at the
// manager and converts its provenance into an upload, cutting the replay
// chain below it. Long decode loops call this periodically so recovery
// replays only the suffix since the last checkpoint instead of the whole
// session — and so old execRecords (and the tensors they pin) become
// garbage-collectable.
func (m *Manager) Checkpoint(key string) error {
	m.mu.Lock()
	v := m.latest[key]
	m.mu.Unlock()
	if v == nil {
		return fmt.Errorf("lineage: checkpoint of untracked key %q", key)
	}
	ep, ok := m.Endpoint(v.ep)
	if !ok {
		return fmt.Errorf("lineage: checkpoint: unknown endpoint %q", v.ep)
	}
	data, err := ep.Fetch(key, v.epoch)
	if err != nil {
		return fmt.Errorf("lineage: checkpoint fetch %q: %w", key, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Replace the version in place: same key/epoch/endpoint, but replay
	// is now a re-upload of the snapshot.
	if cur := m.latest[key]; cur == v {
		v.uploaded = data
		v.rec = nil
	}
	return nil
}

// ChainDepth reports how many executions recovery would replay for a key
// if everything were lost (the distance to the nearest upload cut). It is
// the metric checkpointing policies watch.
func (m *Manager) ChainDepth(key string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := map[*execRecord]bool{}
	var depth func(v *version) int
	depth = func(v *version) int {
		if v == nil || v.uploaded != nil || v.rec == nil || seen[v.rec] {
			return 0
		}
		seen[v.rec] = true
		best := 0
		for _, dep := range v.rec.deps {
			if d := depth(dep); d > best {
				best = d
			}
		}
		return 1 + best
	}
	return depth(m.latest[key])
}
