package pool

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"genie/internal/cluster"
	"genie/internal/device"
	"genie/internal/health"
	"genie/internal/models"
	"genie/internal/obs"
	"genie/internal/runtime"
	"genie/internal/tensor"
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
	// while no session KV state is resident (weights re-install from the
	// pool's copy and are always safe to move; a live session would have
	// to rebuild its KV).
	RebalanceOnJoin bool
}

// member is one live backend in the pool.
type member struct {
	name string
	ep   runtime.Endpoint
	spec device.Spec
	link cluster.Link
	// departed closes the member to new segment execs the moment its
	// eviction starts, voluntary or crashed alike: nothing it held is
	// ever read back. Guarded by Manager.mu.
	departed bool
}

// residence is where one resident key lives: the member holding it and
// the store epoch it was written in.
type residence struct {
	member string
	epoch  uint32
}

// paramEntry is one model weight with its placement unit.
type paramEntry struct {
	ref  string
	data *tensor.Tensor
	unit int
}

// Manager owns the pool: membership, the active shard plan and weight
// placement. It is safe for concurrent use by many sessions. Session KV
// never migrates: when a plan change or a loss leaves a session's KV
// behind, the session rebuilds it (runtime.Session resumes from its
// token log).
type Manager struct {
	cfg     Config
	weights []paramEntry

	// sem serializes membership changes and plan rebuilds. It is a
	// channel, not a mutex, because the critical section spans RPCs
	// (weight installs) — exactly what short-lock discipline forbids
	// under a mutex.
	sem chan struct{}

	// mu guards the maps and plan pointer only; never held across RPC.
	mu      sync.Mutex
	members map[string]*member
	order   []string
	plan    *ShardPlan
	planErr error
	version int64
	// resident indexes every key a member holds — weights on Upload,
	// session KV on each segment reply's Keep — so binds carry the
	// epoch their key was written in and Free finds its home.
	resident map[string]residence

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
		cfg:      cfg,
		sem:      make(chan struct{}, 1),
		members:  make(map[string]*member),
		planErr:  fmt.Errorf("pool: no members"),
		resident: make(map[string]residence),
		membersG: cfg.Metrics.Gauge("genie_pool_members",
			"live pool members"),
		shardsG: cfg.Metrics.Gauge("genie_pool_shards",
			"shards in the active plan"),
		rebuilds: cfg.Metrics.Counter("genie_pool_rebuilds_total",
			"shard plan rebuilds (join, leave, repair)"),
		migrated: cfg.Metrics.Counter("genie_pool_migrated_keys_total",
			"weights re-installed on a new owner"),
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
	m.members[name] = &member{name: name, ep: ep, spec: spec, link: link}
	m.order = append(m.order, name)
	m.mu.Unlock()

	if havePlan && (!m.cfg.RebalanceOnJoin || m.hasResidentKV()) {
		// The current plan stands; the newcomer is a hot spare (and a
		// failover target). With RebalanceOnJoin, re-placement happens
		// only while no session state is in flight.
		m.refreshGauges()
		return nil
	}
	return m.rebuild()
}

// Leave removes a member voluntarily: its shards re-place onto
// survivors and their weights re-install there from the pool's copy —
// the departing backend is never read, so Leave and a crash share one
// code path.
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

// hasResidentKV reports whether any session KV state is resident.
func (m *Manager) hasResidentKV() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for key := range m.resident {
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
	if err := m.reconcile(plan); err != nil {
		m.swapPlan(nil, fmt.Errorf("pool: reconcile: %w", err), ver)
		return err
	}
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

// reconcile drives resident state to the plan. Every weight not yet on
// its owner installs there from the pool's copy, and a moved weight's
// old copy is freed. Session KV left on a member that no longer owns its
// layer is dropped: its session rebuilds it on the next pass.
func (m *Manager) reconcile(plan *ShardPlan) error {
	for _, pe := range m.weights {
		owner := plan.owners[pe.unit]
		m.mu.Lock()
		prev, placed := m.resident[pe.ref]
		m.mu.Unlock()
		if placed && prev.member == owner {
			continue
		}
		if err := m.install(owner, pe); err != nil {
			return err
		}
		if placed {
			m.migrated.Inc()
			m.release(prev.member, pe.ref)
		}
	}
	m.mu.Lock()
	stale := map[string]string{}
	for key, r := range m.resident {
		if l := layerOfKey(key); l >= 0 && plan.owners[l] != r.member {
			stale[key] = r.member
			delete(m.resident, key)
		}
	}
	m.mu.Unlock()
	for key, home := range stale {
		m.release(home, key)
	}
	return nil
}

// install uploads one weight onto member name and indexes it there.
// Caller holds the rebuild lock, so the member cannot depart meanwhile.
func (m *Manager) install(name string, pe paramEntry) error {
	m.mu.Lock()
	mem := m.members[name]
	m.mu.Unlock()
	ack, err := mem.ep.Upload(pe.ref, pe.data)
	if err != nil {
		return fmt.Errorf("install %q on %q: %w", pe.ref, name, err)
	}
	m.mu.Lock()
	m.resident[pe.ref] = residence{member: name, epoch: ack.Epoch}
	m.mu.Unlock()
	return nil
}

// release best-effort frees key on member name, if it is still present.
func (m *Manager) release(name, key string) {
	m.mu.Lock()
	mem := m.members[name]
	m.mu.Unlock()
	if mem != nil {
		_ = mem.ep.Free(key) // a crashed member errors here; that's fine
	}
}

// evict removes a member (voluntary Leave or session-reported crash).
// It closes to new execs, everything it held leaves the index, and its
// shards re-place onto survivors — wholesale onto one successor when
// one fits, else run by run — with their weights re-installed from the
// pool's copy; then the plan swaps. Sessions that kept KV there rebuild
// it themselves. Caller holds the rebuild lock.
func (m *Manager) evict(name string) error {
	m.mu.Lock()
	mem := m.members[name]
	old := m.plan
	ver := m.version + 1
	if mem != nil {
		mem.departed = true
		for key, r := range m.resident {
			if r.member == name {
				delete(m.resident, key)
			}
		}
	}
	m.mu.Unlock()
	if mem == nil {
		return nil
	}

	// drop removes the member from membership.
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
		m.refreshGauges()
	}
	defer drop()

	if old == nil || !ownerIn(old.owners, name) {
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
	// their shards untouched.
	owners := append([]string(nil), old.owners...)
	free := map[string]int64{}
	for _, c := range survivors {
		free[c.Name] = c.Spec.MemBytes - old.weights[c.Name]
	}
	// Wholesale first: one successor with room for everything takes
	// every run.
	whole := pickFit(survivors, free, old.weights[name])
	for _, r := range old.Shards() {
		if r.Member != name {
			continue
		}
		succ := whole
		if succ == "" {
			// Per-run: each run goes to the survivor with the most room
			// that fits it.
			need := m.runWeight(r)
			if succ = pickFit(survivors, free, need); succ == "" {
				m.swapPlan(nil, fmt.Errorf(
					"pool: no survivor fits layers [%d,%d) of departed %q (%d B)",
					r.Lo, r.Hi, name, need), ver)
				m.rebuilds.Inc()
				return nil
			}
			free[succ] -= need
		}
		for i := r.Lo; i < r.Hi; i++ {
			owners[i] = succ
		}
		for _, pe := range m.weights {
			if pe.unit < r.Lo || pe.unit >= r.Hi {
				continue
			}
			if err := m.install(succ, pe); err != nil {
				m.swapPlan(nil, fmt.Errorf("pool: re-place layers [%d,%d) onto %q: %w",
					r.Lo, r.Hi, succ, err), ver)
				return err
			}
			m.migrated.Inc()
		}
	}

	pl := &planner{model: m.cfg.Model, members: survivors}
	pl.embed, pl.head, pl.layers = modelUnits(m.cfg.Model)
	m.swapPlan(pl.finish(old.strategy, owners, ver), nil, ver)
	m.rebuilds.Inc()
	return nil
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
