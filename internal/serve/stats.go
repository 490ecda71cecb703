package serve

import (
	"sync"
	"time"

	"genie/internal/health"
	"genie/internal/obs"
)

// sampleCap bounds the latency windows; beyond it the collector
// overwrites the oldest samples (a sliding window over recent traffic).
const sampleCap = 8192

// Request outcome labels (span attrs and collector counters).
const (
	outcomeCompleted   = "completed"
	outcomeFailed      = "failed"
	outcomeCancelled   = "cancelled"
	outcomeExpired     = "expired"
	outcomeUnavailable = "unavailable"
)

// LatencySummary is a percentile digest of one duration population.
type LatencySummary struct {
	P50 time.Duration `json:"p50"`
	P95 time.Duration `json:"p95"`
	P99 time.Duration `json:"p99"`
	Max time.Duration `json:"max"`
}

// TenantLoad is one tenant's live footprint: requests waiting in the
// admission queue and requests holding a decode-batch slot. A tenant
// appears while it has either — a drained queue with work still in
// flight no longer hides it.
type TenantLoad struct {
	Queued int `json:"queued"`
	Active int `json:"active"`
}

// BackendHealth is one backend lane's availability view: whether its
// gate lets it serve, how much trouble the lane has seen (backend-loss
// errors observed, requests it handed back to the queue), and the
// gate's state and score.
type BackendHealth struct {
	Healthy  bool  `json:"healthy"`
	Failures int64 `json:"failures"`
	Requeued int64 `json:"requeued"`
	// Health is the gate state (healthy/suspect/quarantined/
	// reinstating). Score is the composite health score in (0,1], 0
	// while quarantined.
	Health string  `json:"health"`
	Score  float64 `json:"score"`
}

// Stats is the engine's observable state — the /stats payload.
type Stats struct {
	// Queued is the current admission-queue depth; Active the number of
	// requests holding a slot in a running decode batch.
	Queued int `json:"queued"`
	Active int `json:"active"`
	// Lifecycle counters.
	Admitted  int64 `json:"admitted"`
	Completed int64 `json:"completed"`
	Shed      int64 `json:"shed"` // rejected at admission (queue full)
	Expired   int64 `json:"expired"`
	Cancelled int64 `json:"cancelled"`
	Failed    int64 `json:"failed"`
	// Requeued counts backend-loss re-queues; Unavailable counts
	// requests shed after their re-queue budget ran out.
	Requeued    int64 `json:"requeued"`
	Unavailable int64 `json:"unavailable"`
	TokensOut   int64 `json:"tokens_out"`
	// Continuous-batching occupancy: how many requests shared a decode
	// iteration. Mean > 1 means the engine actually merged requests.
	MaxOccupancy  int     `json:"max_occupancy"`
	MeanOccupancy float64 `json:"mean_occupancy"`
	// TTFT is measured admission → first token; Latency admission →
	// completion (successful requests only).
	TTFT         LatencySummary `json:"ttft"`
	Latency      LatencySummary `json:"latency"`
	TokensPerSec float64        `json:"tokens_per_sec"`
	Uptime       time.Duration  `json:"uptime_ns"`
	// Tenants breaks Queued/Active down per tenant (omitted when idle).
	Tenants map[string]TenantLoad `json:"tenants,omitempty"`
	// Backends maps backend name to its lane's health view — the /stats
	// surface for gate transitions and failover activity.
	Backends map[string]BackendHealth `json:"backends,omitempty"`
	// Health is the fail-slow scorer's full per-endpoint snapshot
	// (EWMAs, exact percentiles, error rates, probe counts) when
	// Config.Health is set; nil otherwise.
	Health map[string]health.EndpointHealth `json:"health,omitempty"`
	// Pool carries the backend pool's membership and shard view when the
	// engine fronts a pool.Manager (Config.PoolStats); nil otherwise.
	Pool any `json:"pool,omitempty"`
	// Cache carries the prefix cache's hit/miss/residency snapshot when
	// the gateway runs one (Config.CacheStats); nil otherwise.
	Cache any `json:"cache,omitempty"`
}

// collector is the engine's telemetry surface, backed by the process
// metrics registry: lifecycle counters, queue/batch gauges, and latency
// histograms are live Prometheus series, while bounded windows keep the
// exact percentiles /stats reports. All methods are safe for concurrent
// use from lanes and Submit.
type collector struct {
	clock Clock
	start time.Time

	admitted    *obs.Counter
	completed   *obs.Counter
	shed        *obs.Counter
	expired     *obs.Counter
	cancelled   *obs.Counter
	failed      *obs.Counter
	requeued    *obs.Counter
	unavailable *obs.Counter
	tokensOut   *obs.Counter

	queueDepth *obs.Gauge
	activeReqs *obs.Gauge

	ttftH *obs.Histogram
	latH  *obs.Histogram
	stepH *obs.Histogram

	ttfts *obs.Window
	lats  *obs.Window

	mu         sync.Mutex
	occSum     int64
	occSamples int64
	occMax     int
}

func newCollector(clock Clock, reg *obs.Registry) *collector {
	return &collector{
		clock: clock,
		start: clock.Now(),
		admitted: reg.Counter("genie_serve_admitted_total",
			"requests admitted past the queue bound"),
		completed: reg.Counter("genie_serve_completed_total",
			"requests that generated to completion"),
		shed: reg.Counter("genie_serve_shed_total",
			"requests rejected at admission (queue full)"),
		expired: reg.Counter("genie_serve_expired_total",
			"requests retired at their deadline"),
		cancelled: reg.Counter("genie_serve_cancelled_total",
			"requests retired on caller cancellation"),
		failed: reg.Counter("genie_serve_failed_total",
			"requests retired on execution error"),
		requeued: reg.Counter("genie_serve_requeued_total",
			"requests re-queued after backend loss"),
		unavailable: reg.Counter("genie_serve_unavailable_total",
			"requests shed after exhausting their backend-loss retry budget"),
		tokensOut: reg.Counter("genie_serve_tokens_total",
			"tokens generated across all requests"),
		queueDepth: reg.Gauge("genie_serve_queue_depth",
			"admitted requests waiting for a decode-batch slot"),
		activeReqs: reg.Gauge("genie_serve_active_requests",
			"requests holding a decode-batch slot"),
		ttftH: reg.Histogram("genie_serve_ttft_seconds",
			"admission to first token", nil),
		latH: reg.Histogram("genie_serve_latency_seconds",
			"admission to completion (successful requests)", nil),
		stepH: reg.Histogram("genie_serve_decode_step_seconds",
			"one decode step of one request", nil),
		ttfts: obs.NewWindow(sampleCap),
		lats:  obs.NewWindow(sampleCap),
	}
}

// countOutcome bumps the lifecycle counter matching a finish outcome.
func (c *collector) countOutcome(outcome string) {
	switch outcome {
	case outcomeCompleted:
		c.completed.Inc()
	case outcomeFailed:
		c.failed.Inc()
	case outcomeCancelled:
		c.cancelled.Inc()
	case outcomeExpired:
		c.expired.Inc()
	case outcomeUnavailable:
		c.unavailable.Inc()
	}
}

// occupancy records one decode iteration that stepped n requests.
func (c *collector) occupancy(n int) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	c.occSum += int64(n)
	c.occSamples++
	if n > c.occMax {
		c.occMax = n
	}
	c.mu.Unlock()
}

func (c *collector) recordTTFT(d time.Duration) {
	c.ttfts.Observe(d)
	c.ttftH.ObserveDuration(d)
}

func (c *collector) recordLatency(d time.Duration) {
	c.lats.Observe(d)
	c.latH.ObserveDuration(d)
}

func (c *collector) recordStep(d time.Duration) {
	c.stepH.ObserveDuration(d)
}

func summarize(w *obs.Window) LatencySummary {
	qs, max := w.Quantiles(0.50, 0.95, 0.99)
	return LatencySummary{P50: qs[0], P95: qs[1], P99: qs[2], Max: max}
}

// snapshot renders counters into a Stats (queue/active/tenants filled
// by the engine).
func (c *collector) snapshot() Stats {
	st := Stats{
		Admitted:    c.admitted.Value(),
		Completed:   c.completed.Value(),
		Shed:        c.shed.Value(),
		Expired:     c.expired.Value(),
		Cancelled:   c.cancelled.Value(),
		Failed:      c.failed.Value(),
		Requeued:    c.requeued.Value(),
		Unavailable: c.unavailable.Value(),
		TokensOut:   c.tokensOut.Value(),
		TTFT:        summarize(c.ttfts),
		Latency:     summarize(c.lats),
		Uptime:      c.clock.Now().Sub(c.start),
	}
	c.mu.Lock()
	st.MaxOccupancy = c.occMax
	if c.occSamples > 0 {
		st.MeanOccupancy = float64(c.occSum) / float64(c.occSamples)
	}
	c.mu.Unlock()
	if up := st.Uptime.Seconds(); up > 0 {
		st.TokensPerSec = float64(st.TokensOut) / up
	}
	return st
}
