package pool

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"genie/internal/cluster"
	"genie/internal/device"
	"genie/internal/health"
	"genie/internal/lineage"
	"genie/internal/models"
	"genie/internal/obs"
	"genie/internal/runtime"
	"genie/internal/tensor"
	"genie/internal/transport"
)

// Config parameterizes a pool manager.
type Config struct {
	// Model is the one model the pool serves; its weights are sharded
	// across members per the active ShardPlan.
	Model *models.GPT
	// Strategy selects the placement policy (default StrategyAuto).
	Strategy Strategy
	// Metrics is the registry pool telemetry registers into; nil gets a
	// private registry.
	Metrics *obs.Registry
	// Health is the fail-slow scorer shared with the serving layer (nil
	// disables health-aware placement). The pool both consumes it —
	// candidate scores fold into the plan cost model, so rebuilds route
	// layers away from browned-out members — and feeds it: every segment
	// exec's latency and outcome is observed against the member.
	Health *health.Set
	// RebalanceOnJoin re-places shards when a member joins, instead of
	// keeping the newcomer as a hot spare. Re-placement only happens
	// while no session KV state is tracked (weight moves are provenance
	// re-uploads and always safe; splitting a live session's fused exec
	// records across members is not).
	RebalanceOnJoin bool
}

// segmentRetries bounds the shard repairs one hop may trigger before its
// error surfaces to the session's caller.
const segmentRetries = 2

// member is one live backend in the pool.
type member struct {
	name string
	gate *gateEndpoint
	te   *lineage.TrackedEndpoint
	spec device.Spec
	link cluster.Link
}

// gateEndpoint fronts a member's raw endpoint with a departure gate:
// once closed, every call fails fast, so lineage's DetectLost sees a
// departed member — voluntary or crashed — identically (everything it
// held is lost and must be replayed from provenance, never read back).
type gateEndpoint struct {
	ep     runtime.Endpoint
	closed atomic.Bool
}

func (g *gateEndpoint) err() error { return fmt.Errorf("pool: member departed") }

func (g *gateEndpoint) Upload(key string, data *tensor.Tensor) (*transport.UploadOK, error) {
	if g.closed.Load() {
		return nil, g.err()
	}
	return g.ep.Upload(key, data)
}

func (g *gateEndpoint) Exec(x *transport.Exec) (*transport.ExecOK, error) {
	return g.ExecCtx(nil, x)
}

func (g *gateEndpoint) ExecCtx(ctx context.Context, x *transport.Exec) (*transport.ExecOK, error) {
	if g.closed.Load() {
		return nil, g.err()
	}
	return runtime.ExecEP(ctx, g.ep, x)
}

func (g *gateEndpoint) Fetch(key string, epoch uint32) (*tensor.Tensor, error) {
	if g.closed.Load() {
		return nil, g.err()
	}
	return g.ep.Fetch(key, epoch)
}

func (g *gateEndpoint) Free(key string) error {
	if g.closed.Load() {
		return g.err()
	}
	return g.ep.Free(key)
}

func (g *gateEndpoint) Stats() (*transport.Stats, error) {
	if g.closed.Load() {
		return nil, g.err()
	}
	return g.ep.Stats()
}

// paramEntry is one model weight with its placement unit.
type paramEntry struct {
	ref  string
	data *tensor.Tensor
	unit int
}

// Manager owns the pool: membership, the active shard plan, weight
// placement, and state migration on departure. It is safe for
// concurrent use by many sessions.
type Manager struct {
	cfg     Config
	lin     *lineage.Manager
	cs      *cluster.State
	weights []paramEntry

	// sem serializes membership changes and plan rebuilds. It is a
	// channel, not a mutex, because the critical section spans RPCs
	// (weight installs, lineage replays) — exactly what short-lock
	// discipline forbids under a mutex.
	sem chan struct{}

	// mu guards the maps and plan pointer only; never held across RPC.
	mu      sync.Mutex
	members map[string]*member
	order   []string
	plan    *ShardPlan
	planErr error
	version int64

	membersG   *obs.Gauge
	shardsG    *obs.Gauge
	rebuilds   *obs.Counter
	migrated   *obs.Counter
	crossBytes *obs.Counter
	segExecs   *obs.Counter
	failures   *obs.Counter
}

// NewManager creates an empty pool for one model.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("pool: config needs a model")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	m := &Manager{
		cfg:     cfg,
		lin:     lineage.NewManager(),
		cs:      cluster.NewState(),
		sem:     make(chan struct{}, 1),
		members: make(map[string]*member),
		planErr: fmt.Errorf("pool: no members"),
		membersG: cfg.Metrics.Gauge("genie_pool_members",
			"live pool members"),
		shardsG: cfg.Metrics.Gauge("genie_pool_shards",
			"shards in the active plan"),
		rebuilds: cfg.Metrics.Counter("genie_pool_rebuilds_total",
			"shard plan rebuilds (join, leave, repair)"),
		migrated: cfg.Metrics.Counter("genie_pool_migrated_keys_total",
			"resident keys re-homed by lineage replay"),
		crossBytes: cfg.Metrics.Counter("genie_pool_cross_shard_bytes_total",
			"activation bytes moved across shard boundaries"),
		segExecs: cfg.Metrics.Counter("genie_pool_segment_execs_total",
			"fused segment executions dispatched to members"),
		failures: cfg.Metrics.Counter("genie_pool_member_failures_total",
			"member losses observed by sessions"),
	}
	// Enumerate the model's weights once: every param ref, its tensor,
	// and the placement unit (layer) it rides with.
	b, _ := cfg.Model.BuildPrefill([]int64{0})
	last := cfg.Model.Cfg.Layers - 1
	for _, n := range b.Graph().Nodes() {
		if n.Op != "param" {
			continue
		}
		data, ok := b.ParamData(n.Ref)
		if !ok {
			return nil, fmt.Errorf("pool: param %q has no data", n.Ref)
		}
		m.weights = append(m.weights, paramEntry{ref: n.Ref, data: data, unit: unitOfRef(n.Ref, last)})
	}
	sort.Slice(m.weights, func(i, j int) bool { return m.weights[i].ref < m.weights[j].ref })
	return m, nil
}

// unitOfRef maps a weight ref to the layer it is placed with: block
// params to their layer, embeddings to the first, head/final-norm to
// the last.
func unitOfRef(ref string, lastLayer int) int {
	if i := layerOfUnit(ref); i >= 0 {
		return i
	}
	if strings.Contains(ref, ".ln_f.") || strings.Contains(ref, ".lm_head.") {
		return lastLayer
	}
	return 0
}

// layerOfKey extracts the layer from a (possibly scope-prefixed) KV
// cache key ("req3/gpt.kv.1.k" → 1), or -1 for non-cache keys.
func layerOfKey(key string) int {
	i := strings.Index(key, ".kv.")
	if i < 0 {
		return -1
	}
	rest := key[i+4:]
	if j := strings.IndexByte(rest, '.'); j >= 0 {
		rest = rest[:j]
	}
	n, err := strconv.Atoi(rest)
	if err != nil {
		return -1
	}
	return n
}

func (m *Manager) lockRebuild()   { m.sem <- struct{}{} }
func (m *Manager) unlockRebuild() { <-m.sem }

// Join adds a backend to the pool and installs (or, with
// RebalanceOnJoin, re-places) shard weights. The endpoint must be
// exclusive to the pool. Joining never fails because the model still
// does not fit — that state is visible via Status/PlanError and session
// errors until enough members join.
func (m *Manager) Join(name string, ep runtime.Endpoint, spec device.Spec, link cluster.Link) error {
	if ep == nil {
		return fmt.Errorf("pool: member %q has no endpoint", name)
	}
	m.lockRebuild()
	defer m.unlockRebuild()
	m.mu.Lock()
	if _, dup := m.members[name]; dup {
		m.mu.Unlock()
		return fmt.Errorf("pool: duplicate member %q", name)
	}
	havePlan := m.plan != nil
	m.mu.Unlock()

	gate := &gateEndpoint{ep: ep}
	m.lin.RegisterEndpoint(name, gate)
	te, err := m.lin.TrackedEndpoint(name)
	if err != nil {
		return err
	}
	// A prior incarnation of the same name may have left residue in the
	// cluster view; membership-aware removal clears it so re-join works.
	m.cs.Remove(cluster.AcceleratorID(name))
	if err := m.cs.AddAccelerator(&cluster.Accelerator{
		ID: cluster.AcceleratorID(name), Spec: spec, Link: link,
	}); err != nil {
		return err
	}
	m.mu.Lock()
	m.members[name] = &member{name: name, gate: gate, te: te, spec: spec, link: link}
	m.order = append(m.order, name)
	m.mu.Unlock()

	if havePlan && (!m.cfg.RebalanceOnJoin || m.hasTrackedKV()) {
		// The current plan stands; the newcomer is a hot spare (and a
		// failover target). With RebalanceOnJoin, re-placement happens
		// only while no session state is in flight.
		m.refreshGauges()
		return nil
	}
	return m.rebuild()
}

// Leave removes a member voluntarily: its shards re-place onto
// survivors and its state migrates by lineage replay — the departing
// backend is never read, so Leave and a crash share one code path.
func (m *Manager) Leave(name string) error {
	m.lockRebuild()
	defer m.unlockRebuild()
	m.mu.Lock()
	_, present := m.members[name]
	m.mu.Unlock()
	if !present {
		return fmt.Errorf("pool: unknown member %q", name)
	}
	return m.evict(name)
}

// reportExecFailure is the session-side loss path: a segment exec on
// name failed at plan version seen. A nil return means the session may
// retry (the pool repaired, or someone else already had).
func (m *Manager) reportExecFailure(name string, seen int64) error {
	m.failures.Inc()
	m.lockRebuild()
	defer m.unlockRebuild()
	m.mu.Lock()
	cur := m.version
	_, present := m.members[name]
	m.mu.Unlock()
	if cur > seen || !present {
		return nil // a concurrent repair already handled it
	}
	return m.evict(name)
}

// hasTrackedKV reports whether any session KV state is tracked.
func (m *Manager) hasTrackedKV() bool {
	for _, key := range m.lin.Tracked() {
		if layerOfKey(key) >= 0 {
			return true
		}
	}
	return false
}

// candidates snapshots the live members as planner input, excluding
// names in skip.
func (m *Manager) candidates(skip string) []Candidate {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Candidate, 0, len(m.order))
	for _, name := range m.order {
		if name == skip {
			continue
		}
		mem := m.members[name]
		c := Candidate{Name: mem.name, Spec: mem.spec, Link: mem.link}
		if m.cfg.Health != nil {
			tr := m.cfg.Health.Endpoint(name)
			c.HealthScore = tr.Score()
			c.Quarantined = tr.State() == health.Quarantined
		}
		out = append(out, c)
	}
	return out
}

// rebuild computes a fresh plan over current members and reconciles
// weight placement. Caller holds the rebuild lock. An infeasible pool
// records planErr (sessions fail until membership changes) and returns
// nil; reconcile failures return the error.
func (m *Manager) rebuild() error {
	m.mu.Lock()
	ver := m.version + 1
	m.mu.Unlock()
	plan, err := BuildPlan(m.cfg.Model, m.candidates(""), m.cfg.Strategy, ver)
	if err != nil {
		m.swapPlan(nil, err, ver)
		return nil
	}
	moved, err := m.reconcile(plan)
	if err != nil {
		m.swapPlan(nil, fmt.Errorf("pool: reconcile: %w", err), ver)
		return err
	}
	m.migrated.Add(moved)
	m.swapPlan(plan, nil, ver)
	m.rebuilds.Inc()
	return nil
}

func (m *Manager) swapPlan(p *ShardPlan, err error, ver int64) {
	m.mu.Lock()
	m.plan, m.planErr, m.version = p, err, ver
	m.mu.Unlock()
	m.refreshGauges()
}

// reconcile drives resident state to the plan: weights upload to their
// owners (first install) or re-home by lineage replay (placement
// changed), as do any tracked session KV keys. Returns keys moved.
func (m *Manager) reconcile(plan *ShardPlan) (int64, error) {
	uploads := map[string][]paramEntry{}
	moves := map[string][]string{}
	prevHome := map[string]string{}
	for _, pe := range m.weights {
		owner := plan.Owners[pe.unit]
		home, tracked := m.lin.HomeOf(pe.ref)
		switch {
		case !tracked:
			uploads[owner] = append(uploads[owner], pe)
		case home != owner:
			moves[owner] = append(moves[owner], pe.ref)
			prevHome[pe.ref] = home
		}
	}
	for _, key := range m.lin.Tracked() {
		l := layerOfKey(key)
		if l < 0 {
			continue
		}
		owner := plan.Owners[l]
		if home, ok := m.lin.HomeOf(key); ok && home != owner {
			moves[owner] = append(moves[owner], key)
		}
	}
	for _, owner := range sortedKeys(uploads) {
		for _, pe := range uploads[owner] {
			if err := m.lin.UploadTracked(owner, pe.ref, pe.data); err != nil {
				return 0, fmt.Errorf("install %q on %q: %w", pe.ref, owner, err)
			}
			m.cs.SetResident(pe.ref, cluster.AcceleratorID(owner), int64(pe.data.NumBytes()))
		}
	}
	var moved int64
	for _, owner := range sortedKeys(moves) {
		if err := m.lin.Recover(moves[owner], owner); err != nil {
			return moved, fmt.Errorf("migrate to %q: %w", owner, err)
		}
		moved += int64(len(moves[owner]))
		for _, key := range moves[owner] {
			if prev, ok := prevHome[key]; ok {
				m.freeStale(prev, key, cluster.AcceleratorID(owner))
			}
		}
	}
	return moved, nil
}

// freeStale best-effort releases a re-homed weight's old copy and
// updates the cluster residency view.
func (m *Manager) freeStale(prev, key string, owner cluster.AcceleratorID) {
	var bytes int64
	for _, pe := range m.weights {
		if pe.ref == key {
			bytes = int64(pe.data.NumBytes())
			break
		}
	}
	m.cs.EvictResident(key, bytes)
	m.cs.SetResident(key, owner, bytes)
	if ep, ok := m.lin.Endpoint(prev); ok {
		_ = ep.Free(key) // departed members error here; that's fine
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// evict removes a member (voluntary Leave or session-reported crash):
// its gate closes so lineage sees everything it held as lost, its
// shards re-place onto survivors — wholesale onto one successor when
// one fits (TrackedEndpoint.Failover migrates the provenance), else
// run-by-run — and the plan swaps. Caller holds the rebuild lock.
func (m *Manager) evict(name string) error {
	m.mu.Lock()
	mem := m.members[name]
	old := m.plan
	ver := m.version + 1
	m.mu.Unlock()
	if mem == nil {
		return nil
	}
	mem.gate.closed.Store(true)
	m.cs.MarkFailed(cluster.AcceleratorID(name))

	// drop removes the member from membership and the cluster view. The
	// lineage registration stays (there is no unregister): DetectLost
	// still probes the closed gate, which reports everything lost.
	dropped := false
	drop := func() {
		if dropped {
			return
		}
		dropped = true
		m.mu.Lock()
		delete(m.members, name)
		for i, n := range m.order {
			if n == name {
				m.order = append(m.order[:i], m.order[i+1:]...)
				break
			}
		}
		m.mu.Unlock()
		m.cs.Remove(cluster.AcceleratorID(name))
		m.refreshGauges()
	}
	defer drop()

	if old == nil || !ownerIn(old.Owners, name) {
		// The departed member held no shard (spare); the plan stands.
		if old == nil {
			drop() // before rebuild, so it is not offered as a candidate
			return m.rebuild()
		}
		return nil
	}

	survivors := m.candidates(name)
	if len(survivors) == 0 {
		m.swapPlan(nil, fmt.Errorf("pool: last member %q departed", name), ver)
		m.rebuilds.Inc()
		return nil
	}

	// Re-place the departed member's contiguous runs; survivors keep
	// their shards untouched, so every fused exec record (whose kept
	// keys span one run) stays intact and migrates as a unit.
	owners := append([]string(nil), old.Owners...)
	free := map[string]int64{}
	for _, c := range survivors {
		free[c.Name] = c.Spec.MemBytes - old.Weights[c.Name]
	}
	var runs []Shard
	for _, sh := range old.Shards() {
		if sh.Member == name {
			sh.WeightBytes = m.runWeight(sh)
			runs = append(runs, sh)
		}
	}

	// Wholesale first: one successor with room for everything lets the
	// departed member's TrackedEndpoint fail over in a single replay.
	if succ := pickFit(survivors, free, old.Weights[name]); succ != "" {
		for _, r := range runs {
			for i := r.Lo; i < r.Hi; i++ {
				owners[i] = succ
			}
		}
		n, err := mem.te.Failover(succ)
		if err != nil {
			m.swapPlan(nil, fmt.Errorf("pool: failover of %q onto %q: %w", name, succ, err), ver)
			return err
		}
		m.migrated.Add(int64(n))
		for _, r := range runs {
			m.rehomeWeights(r, succ)
		}
	} else {
		// Per-run: each run goes to the survivor with the most room that
		// fits it; its keys (weights + session KV, per lineage's loss
		// view) replay there together.
		lost, err := m.lin.DetectLost(name)
		if err != nil {
			m.swapPlan(nil, fmt.Errorf("pool: detect loss on %q: %w", name, err), ver)
			return err
		}
		for _, r := range runs {
			succ := pickFit(survivors, free, r.WeightBytes)
			if succ == "" {
				m.swapPlan(nil, fmt.Errorf(
					"pool: no survivor fits layers [%d,%d) of departed %q (%d B)",
					r.Lo, r.Hi, name, r.WeightBytes), ver)
				m.rebuilds.Inc()
				return nil
			}
			free[succ] -= r.WeightBytes
			for i := r.Lo; i < r.Hi; i++ {
				owners[i] = succ
			}
			keys := keysInRun(lost, r, len(owners))
			if len(keys) > 0 {
				if err := m.lin.Recover(keys, succ); err != nil {
					m.swapPlan(nil, fmt.Errorf("pool: recover layers [%d,%d) onto %q: %w",
						r.Lo, r.Hi, succ, err), ver)
					return err
				}
				m.migrated.Add(int64(len(keys)))
			}
			m.rehomeWeights(r, succ)
		}
	}

	pl := &planner{model: m.cfg.Model, members: survivors}
	pl.embed, pl.head, pl.layers = modelUnits(m.cfg.Model)
	m.swapPlan(pl.finish(old.Strategy, owners, ver), nil, ver)
	m.rebuilds.Inc()
	return nil
}

// rehomeWeights points the cluster residency view at a run's new owner.
// The departed member's byte accounting is discarded wholesale by
// cs.Remove in drop; SetResident both re-points the key and charges the
// successor.
func (m *Manager) rehomeWeights(r Shard, succ string) {
	for _, pe := range m.weights {
		if pe.unit >= r.Lo && pe.unit < r.Hi {
			m.cs.SetResident(pe.ref, cluster.AcceleratorID(succ), int64(pe.data.NumBytes()))
		}
	}
}

// runWeight sums the weight bytes placed with a run (embed and head
// ride with the boundary layers via each entry's unit).
func (m *Manager) runWeight(r Shard) int64 {
	var w int64
	for _, pe := range m.weights {
		if pe.unit >= r.Lo && pe.unit < r.Hi {
			w += int64(pe.data.NumBytes())
		}
	}
	return w
}

// pickFit returns the survivor with the most free memory that still
// fits need, or "".
func pickFit(survivors []Candidate, free map[string]int64, need int64) string {
	best := ""
	var bestFree int64
	for _, c := range survivors {
		if f := free[c.Name]; f >= need && (best == "" || f > bestFree) {
			best, bestFree = c.Name, f
		}
	}
	return best
}

// keysInRun filters lost keys to those placed with layers [Lo,Hi):
// block weights and KV caches by layer, embeddings with layer 0, head
// weights with the last layer.
func keysInRun(lost []string, r Shard, layers int) []string {
	var out []string
	for _, key := range lost {
		u := layerOfKey(key)
		if u < 0 {
			u = unitOfRef(key, layers-1)
		}
		if u >= r.Lo && u < r.Hi {
			out = append(out, key)
		}
	}
	return out
}

func ownerIn(owners []string, name string) bool {
	for _, o := range owners {
		if o == name {
			return true
		}
	}
	return false
}

func (m *Manager) refreshGauges() {
	m.mu.Lock()
	nm := len(m.members)
	ns := 0
	if m.plan != nil {
		ns = len(m.plan.Shards())
	}
	m.mu.Unlock()
	m.membersG.Set(int64(nm))
	m.shardsG.Set(int64(ns))
}

// planSnapshot returns the active plan or why there is none.
func (m *Manager) planSnapshot() (*ShardPlan, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.plan == nil {
		if m.planErr != nil {
			return nil, m.planErr
		}
		return nil, fmt.Errorf("pool: no feasible shard plan")
	}
	return m.plan, nil
}

// Plan returns the active shard plan (nil when infeasible).
func (m *Manager) Plan() *ShardPlan {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.plan
}
