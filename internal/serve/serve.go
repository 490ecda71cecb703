// Package serve is Genie's online serving engine: it owns the live
// request lifecycle the offline evaluation (internal/eval/serving.go)
// only replays. Requests are admitted against a bounded queue
// (load-shedding above the bound), ordered by per-tenant fair queues
// with the global scheduler's SLO priority (global.Less), dispatched to
// backend lanes, and decoded with continuous batching: requests join and
// leave a lane's running decode batch at step boundaries
// (iteration-level scheduling over runtime.Session), so short requests
// never wait for long ones and decode slots refill the moment a request
// finishes. Deadlines, context cancellation, graceful drain, and an
// injectable clock make the whole engine deterministic under test.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"genie/internal/global"
	"genie/internal/health"
	"genie/internal/models"
	"genie/internal/obs"
	"genie/internal/quant"
	"genie/internal/runtime"
)

// Engine lifecycle errors.
var (
	// ErrOverloaded is the load-shed rejection (HTTP 429): the admission
	// queue is at its bound, so the engine refuses rather than queues.
	ErrOverloaded = errors.New("serve: overloaded, admission queue full")
	// ErrDraining rejects new work while the engine drains.
	ErrDraining = errors.New("serve: engine is draining")
	// ErrDeadlineExceeded retires a request whose deadline passed while
	// queued or mid-decode; partial tokens are returned alongside it.
	ErrDeadlineExceeded = errors.New("serve: request deadline exceeded")
	// ErrInvalidRequest rejects a malformed request at admission (HTTP
	// 400): empty prompt, out-of-vocab token, or a prompt that already
	// fills the model's context.
	ErrInvalidRequest = errors.New("serve: invalid request")
	// ErrBackendUnavailable sheds a request whose backend died and whose
	// re-queue budget is spent (HTTP 503 with Retry-After): the engine
	// retried on other lanes as far as policy allows before giving up.
	ErrBackendUnavailable = errors.New("serve: backend unavailable")
)

// Config parameterizes the engine.
type Config struct {
	// Mode is the disaggregation mode sessions run under. The zero value
	// is ModeLocal; production gateways want ModeSemAware — the only
	// remote mode whose per-step cost makes online serving viable.
	Mode runtime.Mode
	// MaxQueue bounds admitted-but-not-yet-running requests; Submit
	// beyond it fails fast with ErrOverloaded (default 64).
	MaxQueue int
	// MaxBatch is the continuous-batching limit per backend lane: the
	// most requests that share one decode iteration (default 8).
	MaxBatch int
	// DefaultMaxTokens caps generation when a request doesn't say
	// (default 32).
	DefaultMaxTokens int
	// DefaultDeadline bounds queue+generation time per request when the
	// request carries none; 0 = no deadline.
	DefaultDeadline time.Duration
	// Clock is injectable for deterministic tests; nil = wall clock.
	Clock Clock
	// Tracer records request-scoped spans through admission, queueing,
	// prefill, and every decode step. Nil disables tracing — the
	// zero-cost path (one nil check per would-be span). The engine does
	// not own the tracer; the caller Stops it.
	Tracer *obs.Tracer
	// Metrics is the registry engine telemetry registers into (served at
	// /metrics). Nil gets the engine a private registry, keeping
	// concurrently-running engines (tests) isolated.
	Metrics *obs.Registry
	// RetryBudget bounds how many times one request may be re-queued
	// after backend loss before it sheds with ErrBackendUnavailable
	// (default 1; negative disables re-queueing entirely).
	RetryBudget int
	// RetryAfter is the hint clients receive (Retry-After header) when a
	// request sheds with ErrBackendUnavailable (default 1s).
	RetryAfter time.Duration
	// OpTimeout bounds each remote operation (prefill, decode step) a
	// lane issues, so a hung peer surfaces as a retryable timeout at the
	// next step boundary instead of wedging the lane forever. 0 = no
	// per-op bound (the request deadline still applies).
	OpTimeout time.Duration
	// BreakerThreshold and BreakerCooldown parameterize each lane's
	// trip: BreakerThreshold consecutive counted failures quarantine the
	// lane's gate for BreakerCooldown, after which one trial request
	// decides whether it rejoins (defaults 3 and 1s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Health, when set, is the shared fail-slow scorer (DESIGN.md §13).
	// Lanes feed it per-op latency and failure samples, demote Suspect
	// endpoints (admitting work only when healthy capacity is
	// saturated), drain Quarantined ones through the failover re-queue
	// path, trial Reinstating ones a request at a time, issue active
	// probes while idle, and bound each remote op with an adaptive
	// deadline derived from healthy-peer latency — converting fail-slow
	// into the fail-stop the trip/retry machinery already handles.
	// Nil gives each lane a private trip-only gate: no grading, no
	// probes, no adaptive deadline.
	Health *health.Set
	// HealthOpFloor is the lower bound of the adaptive per-op deadline
	// derived from Health — headroom for legitimately slow ops like
	// long-prompt prefills (default 50ms; meaningful only with Health).
	HealthOpFloor time.Duration
	// PoolStats, when set, is snapshotted into Stats.Pool on every
	// Stats() call — the hook a pool.Manager-backed gateway uses to
	// surface shard membership and per-shard health in /stats without
	// serve importing the pool layer.
	PoolStats func() any
	// CacheStats, when set, is snapshotted into Stats.Cache on every
	// Stats() call — the hook a kvcache.Manager-backed gateway uses to
	// surface prefix-cache hit ratio and residency in /stats without
	// serve importing the cache layer.
	CacheStats func() any
	// Quant selects the raw-speed weight tier (DESIGN.md §11): int8
	// rewrites every Linear weight to per-column symmetric int8 before
	// installation, f16 to half precision. The zero value keeps f32.
	Quant quant.Mode
}

func (c *Config) fillDefaults() {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.DefaultMaxTokens <= 0 {
		c.DefaultMaxTokens = 32
	}
	if c.Clock == nil {
		c.Clock = realClock{}
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 1
	}
	if c.RetryBudget < 0 {
		c.RetryBudget = 0
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.HealthOpFloor <= 0 {
		c.HealthOpFloor = 50 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
}

// Backend is one accelerator server the engine can place sessions on.
type Backend struct {
	// Name labels the backend in results and stats.
	Name string
	// Runner must be bound to the backend's endpoint (EP) for remote
	// modes; each Backend needs its own runner (lanes serialize all RPC
	// on their runner's connection).
	Runner *runtime.LLMRunner
}

// Token is one streamed generation event delivered to Request.OnToken.
type Token struct {
	// Index is the position in the generated sequence (0 = first token,
	// produced by prefill).
	Index int
	// ID is the generated token id.
	ID int64
}

// Request is one tenant's generation call.
type Request struct {
	Tenant string
	// SLO orders dispatch (interactive before batch), with the exact
	// semantics of global.Prioritize.
	SLO    global.SLO
	Prompt []int64
	// MaxTokens caps generation (0 = engine default).
	MaxTokens int
	// Timeout bounds queue+generation (0 = engine default; negative =
	// no deadline even if the engine has a default).
	Timeout time.Duration
	// OnToken, when set, observes each token as its step completes (the
	// streaming hook). It runs on the engine's dispatch goroutine and
	// must not block.
	OnToken func(Token)
}

// Result is a finished request's outcome. On deadline expiry it carries
// the tokens generated so far alongside the error.
type Result struct {
	Tokens  []int64
	TTFT    time.Duration
	Latency time.Duration
	Backend string
}

// activeReq is a request's engine-internal lifecycle record.
type activeReq struct {
	id        int64
	tenant    string
	slo       global.SLO
	prompt    []int64
	maxTokens int
	deadline  time.Time // zero = none
	ctx       context.Context
	onToken   func(Token)
	arrival   time.Time

	// Tracing: tctx carries the request span; qspan covers queue wait
	// (ended when a lane picks the request up). All nil when untraced.
	tctx  context.Context
	span  *obs.Span
	qspan *obs.Span

	// Lane-owned after admission.
	sess   *runtime.Session
	tokens []int64
	ttft   time.Duration
	// joined marks a request that holds a decode-batch slot (drives the
	// per-tenant active accounting).
	joined bool
	// retries counts backend-loss re-queues consumed against the engine's
	// RetryBudget.
	retries int

	// Completion.
	res  *Result
	err  error
	done chan struct{}
}

func (ar *activeReq) complete(res *Result, err error) {
	ar.res, ar.err = res, err
	close(ar.done)
}

// Engine is the online serving engine.
type Engine struct {
	cfg    Config
	clock  Clock
	stats  *collector
	tracer *obs.Tracer

	mu       sync.Mutex
	queues   *tenantQueues
	draining bool
	seq      int64
	// tenantActive counts requests per tenant that hold a decode-batch
	// slot — the in-flight half of per-tenant load that the queues can't
	// see once a tenant's FIFO drains.
	tenantActive map[string]int

	lanes []*lane

	// Model geometry for request validation (all backends share the
	// model).
	vocab  int
	maxSeq int

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup

	drainOnce sync.Once
	drained   chan struct{}
}

// NewEngine builds an engine over the given backends, provisioning each
// backend's endpoint with the model weights for remote modes (the
// one-time installation Generate would otherwise repeat per request).
// Call Start to begin dispatching.
func NewEngine(cfg Config, backends []Backend) (*Engine, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("serve: no backends")
	}
	cfg.fillDefaults()
	e := &Engine{
		cfg:          cfg,
		clock:        cfg.Clock,
		tracer:       cfg.Tracer,
		queues:       newTenantQueues(),
		tenantActive: make(map[string]int),
		stop:         make(chan struct{}),
		drained:      make(chan struct{}),
	}
	e.stats = newCollector(e.clock, cfg.Metrics)
	if backends[0].Runner != nil && backends[0].Runner.Model != nil {
		e.vocab = backends[0].Runner.Model.Cfg.Vocab
		e.maxSeq = backends[0].Runner.Model.Cfg.MaxSeq
	}
	for i, b := range backends {
		if b.Runner == nil || b.Runner.Model == nil {
			return nil, fmt.Errorf("serve: backend %d has no runner/model", i)
		}
		name := b.Name
		if name == "" {
			name = fmt.Sprintf("backend%d", i)
		}
		if cfg.Quant != quant.Off {
			// Quantize before installation so the cheap weights are what
			// cross the wire; idempotent, so shared models are safe.
			if err := models.Quantize(b.Runner.Model, cfg.Quant); err != nil {
				return nil, fmt.Errorf("serve: quantize weights for %s: %w", name, err)
			}
		}
		if cfg.Mode != runtime.ModeLocal && !b.Runner.WeightsResident {
			if _, err := b.Runner.InstallModelWeights(); err != nil {
				return nil, fmt.Errorf("serve: install weights on %s: %w", name, err)
			}
		}
		e.lanes = append(e.lanes, newLane(e, name, b.Runner))
	}
	return e, nil
}

// Start launches one dispatch goroutine per backend lane. Idempotent.
func (e *Engine) Start() {
	e.startOnce.Do(func() {
		for _, l := range e.lanes {
			e.wg.Add(1)
			go l.run()
		}
	})
}

// Stop halts the lane goroutines without waiting for pending work; use
// Drain first for a graceful shutdown.
func (e *Engine) Stop() {
	e.stopOnce.Do(func() { close(e.stop) })
	e.wg.Wait()
}

// Submit admits, queues, and runs one request, blocking until it
// completes, expires, or ctx is cancelled. Rejections (ErrOverloaded,
// ErrDraining) are immediate.
func (e *Engine) Submit(ctx context.Context, req Request) (*Result, error) {
	ar, err := e.enqueue(ctx, req)
	if err != nil {
		return nil, err
	}
	select {
	case <-ar.done:
		return ar.res, ar.err
	case <-ctx.Done():
		// The lane retires the request at its next step boundary; the
		// caller gets control back immediately.
		return nil, ctx.Err()
	}
}

// enqueue is the non-blocking admission half of Submit (tests drive it
// directly for determinism).
func (e *Engine) enqueue(ctx context.Context, req Request) (*activeReq, error) {
	if len(req.Prompt) == 0 {
		return nil, fmt.Errorf("%w: empty prompt", ErrInvalidRequest)
	}
	for _, tok := range req.Prompt {
		if tok < 0 || tok >= int64(e.vocab) {
			return nil, fmt.Errorf("%w: token %d outside vocab [0,%d)",
				ErrInvalidRequest, tok, e.vocab)
		}
	}
	maxTokens := req.MaxTokens
	if maxTokens <= 0 {
		maxTokens = e.cfg.DefaultMaxTokens
	}
	// Clamp generation to the model's context window; a prompt that
	// already fills it can't generate anything.
	if room := e.maxSeq - len(req.Prompt); maxTokens > room {
		if room <= 0 {
			return nil, fmt.Errorf("%w: prompt length %d leaves no room in context %d",
				ErrInvalidRequest, len(req.Prompt), e.maxSeq)
		}
		maxTokens = room
	}
	timeout := req.Timeout
	if timeout == 0 {
		timeout = e.cfg.DefaultDeadline
	}
	now := e.clock.Now()
	ar := &activeReq{
		tenant:    req.Tenant,
		slo:       req.SLO,
		prompt:    req.Prompt,
		maxTokens: maxTokens,
		ctx:       ctx,
		onToken:   req.OnToken,
		arrival:   now,
		done:      make(chan struct{}),
	}
	if timeout > 0 {
		ar.deadline = now.Add(timeout)
	}

	// Open the request span: as a child when the caller (the HTTP
	// handler) is already tracing, as a root when the engine has its own
	// tracer and the caller isn't. Untraced + no tracer = all nil, free.
	if obs.SpanFromContext(ctx) != nil {
		ar.tctx, ar.span = obs.StartSpan(ctx, "serve.request")
	} else if ctx != nil {
		ar.tctx, ar.span = e.tracer.StartRoot(ctx, "serve.request")
	}
	ar.span.SetAttr("tenant", ar.tenant)
	ar.span.SetAttrInt("prompt_tokens", int64(len(ar.prompt)))
	reject := func(outcome string) {
		ar.span.SetAttr("outcome", outcome)
		ar.span.End()
	}

	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		reject("rejected_draining")
		return nil, ErrDraining
	}
	if e.queues.depth() >= e.cfg.MaxQueue {
		e.mu.Unlock()
		e.stats.shed.Inc()
		reject("shed")
		return nil, ErrOverloaded
	}
	e.seq++
	ar.id = e.seq
	_, ar.qspan = obs.StartSpan(ar.tctx, "serve.queue")
	e.queues.push(ar)
	e.stats.queueDepth.Set(int64(e.queues.depth()))
	e.mu.Unlock()

	e.stats.admitted.Inc()
	e.nudge()
	return ar, nil
}

// dequeue pops the next dispatchable request (priority band, then
// tenant round-robin).
func (e *Engine) dequeue() *activeReq {
	e.mu.Lock()
	defer e.mu.Unlock()
	ar := e.queues.pop()
	if ar != nil {
		e.stats.queueDepth.Set(int64(e.queues.depth()))
	}
	return ar
}

// noteJoin records a request taking a decode-batch slot; noteLeave
// releases it. Together they keep the per-tenant active counts (and the
// active gauge) consistent with lane membership.
func (e *Engine) noteJoin(ar *activeReq) {
	ar.joined = true
	e.mu.Lock()
	e.tenantActive[ar.tenant]++
	e.mu.Unlock()
	e.stats.activeReqs.Add(1)
}

func (e *Engine) noteLeave(ar *activeReq) {
	if !ar.joined {
		return
	}
	ar.joined = false
	e.mu.Lock()
	if n := e.tenantActive[ar.tenant]; n <= 1 {
		delete(e.tenantActive, ar.tenant)
	} else {
		e.tenantActive[ar.tenant] = n - 1
	}
	e.mu.Unlock()
	e.stats.activeReqs.Add(-1)
}

// nudge wakes every lane that might be idle.
func (e *Engine) nudge() {
	for _, l := range e.lanes {
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
}

// requeue returns a request to the admission queue after its lane lost
// the backend (or drained it at quarantine). Re-queued work bypasses
// the MaxQueue bound — it was already admitted once — and wakes every
// lane except the one that failed it, so a healthy lane picks it up
// without the failed lane spinning on its own rejection.
func (e *Engine) requeue(from *lane, ar *activeReq) {
	e.mu.Lock()
	e.queues.push(ar)
	e.stats.queueDepth.Set(int64(e.queues.depth()))
	e.mu.Unlock()
	for _, l := range e.lanes {
		if l == from {
			continue
		}
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
}

// serving reports whether a lane in gate state s takes ordinary
// traffic: a Suspect lane still serves (demoted); a Quarantined one does
// not, and a Reinstating one only trials.
func serving(s health.State) bool { return s == health.Healthy || s == health.Suspect }

// anyHealthyBackend reports whether at least one lane is serving (the
// /healthz availability signal).
func (e *Engine) anyHealthyBackend() bool {
	for _, l := range e.lanes {
		if serving(l.gate.State()) {
			return true
		}
	}
	return false
}

// quarantinedLanes lists lanes whose gate is quarantined, tripped or
// graded (the /healthz degraded detail).
func (e *Engine) quarantinedLanes() []string {
	var out []string
	for _, l := range e.lanes {
		if l.gate.State() == health.Quarantined {
			out = append(out, l.name)
		}
	}
	return out
}

// healthyRoomElsewhere reports whether any other lane is Healthy with
// decode-batch room — the signal a Suspect lane uses to demote itself:
// it admits work only when healthy capacity is saturated, so a
// merely-slow lane stops poisoning TTFT without the engine losing its
// capacity outright.
func (e *Engine) healthyRoomElsewhere(me *lane) bool {
	for _, l := range e.lanes {
		if l != me && l.gate.State() == health.Healthy && int(l.activeN.Load()) < e.cfg.MaxBatch {
			return true
		}
	}
	return false
}

// Drain stops admission (Submit fails with ErrDraining), lets every
// already-admitted request run to completion, and returns when the
// engine is empty or ctx expires. Lanes keep running; call Stop after.
func (e *Engine) Drain(ctx context.Context) error {
	e.mu.Lock()
	e.draining = true
	e.mu.Unlock()
	e.nudge()
	e.maybeDrained()
	select {
	case <-e.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether admission is closed.
func (e *Engine) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.draining
}

// maybeDrained closes the drain gate once nothing is queued or active.
func (e *Engine) maybeDrained() {
	e.mu.Lock()
	empty := e.draining && e.queues.depth() == 0
	e.mu.Unlock()
	if !empty {
		return
	}
	for _, l := range e.lanes {
		if l.activeN.Load() != 0 {
			return
		}
	}
	e.drainOnce.Do(func() { close(e.drained) })
}

// Stats snapshots the engine's observable state.
func (e *Engine) Stats() Stats {
	st := e.stats.snapshot()
	if e.cfg.PoolStats != nil {
		st.Pool = e.cfg.PoolStats()
	}
	if e.cfg.CacheStats != nil {
		st.Cache = e.cfg.CacheStats()
	}
	e.mu.Lock()
	st.Queued = e.queues.depth()
	// Per-tenant load: queued from the FIFOs, active from the in-flight
	// counts. A tenant whose queue momentarily drained to zero but still
	// has requests decoding stays visible — the queues alone forget a
	// tenant the instant its last queued request dispatches.
	queued := e.queues.perTenant()
	if len(queued) > 0 || len(e.tenantActive) > 0 {
		st.Tenants = make(map[string]TenantLoad, len(queued)+len(e.tenantActive))
		for t, n := range queued {
			tl := st.Tenants[t]
			tl.Queued = n
			st.Tenants[t] = tl
		}
		for t, n := range e.tenantActive {
			tl := st.Tenants[t]
			tl.Active = n
			st.Tenants[t] = tl
		}
	}
	e.mu.Unlock()
	st.Backends = make(map[string]BackendHealth, len(e.lanes))
	for _, l := range e.lanes {
		st.Active += int(l.activeN.Load())
		state := l.gate.State()
		st.Backends[l.name] = BackendHealth{
			Healthy:  serving(state),
			Failures: l.failures.Load(),
			Requeued: l.requeues.Load(),
			Health:   state.String(),
			Score:    l.gate.Score(),
		}
	}
	if e.cfg.Health != nil {
		st.Health = e.cfg.Health.Snapshot()
	}
	return st
}

// Metrics returns the engine's metrics registry (an http.Handler for
// GET /metrics).
func (e *Engine) Metrics() *obs.Registry { return e.cfg.Metrics }

// Tracer returns the engine's tracer (nil when tracing is disabled).
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }
