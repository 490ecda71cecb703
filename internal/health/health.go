// Package health is the serving layer's one lane gate (DESIGN.md §13).
// Every serving lane carries a Tracker, and the Tracker's state decides
// whether the lane admits work. The gate catches both ways a backend
// goes bad. Fail-stop: consecutive failed calls Trip it. Fail-slow: a
// lane that is alive, answering every call, and 50× slower than its
// peers. Such a lane never fails a call yet poisons continuous batching
// (its decode steps pace the batch), split-prefill TTFT (the prefill
// wedges on it), and pool-sharded decode (every step waits for the
// slowest shard).
//
// A Set tracks one Tracker per endpoint. Trackers fold two signal
// families the serving layer already produces — per-operation latency
// (EWMA + an exact-percentile window reused from internal/obs) and
// error rate (an error EWMA over the lane's failure classification)
// — plus lightweight active probes issued on idle lanes. Sickness is
// *relative*: a lane is slow compared to the best EWMA across its set,
// not against an absolute threshold, so the scorer needs no tuning per
// model or per hardware tier. A set whose MinSamples is never reached
// never grades at all: only Trip moves it, which is the classic
// circuit breaker (trip, dwell, one trial).
//
// The judgment is a graded state machine rather than open/closed:
//
//	Healthy ──(latency ratio or error rate past suspect bounds)──▶ Suspect
//	Suspect ──(past quarantine bounds)──▶ Quarantined
//	Suspect ──(recovered)──▶ Healthy
//	any state ──(Trip)──▶ Quarantined
//	Quarantined ──(cooldown elapsed)──▶ Reinstating
//	Reinstating ──(ReinstateStreak consecutive successes)──▶ Healthy
//	Reinstating ──(any counted failure)──▶ Quarantined
//
// Suspect demotes (the lane admits work only when healthy lanes are
// saturated); Quarantined drains (active requests re-queue and resume
// from their token log on another lane, so no state is lost); Reinstating
// trickles one trial request at a time. Quarantine covers both causes:
// calls that *fail* (a Trip) and calls that *succeed too slowly* to be
// worth issuing, while probes keep measuring the endpoint.
package health

import (
	"sync"
	"time"

	"genie/internal/obs"
)

// State is an endpoint's graded health position.
type State int

const (
	// Healthy: full admission.
	Healthy State = iota
	// Suspect: demoted — admitted only when healthy capacity is saturated.
	Suspect
	// Quarantined: drained — no admission, active work re-queued.
	Quarantined
	// Reinstating: trial — one request at a time until a success streak
	// (or a failure sends it back to quarantine).
	Reinstating
)

// String returns the state label used in /stats and metrics.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Quarantined:
		return "quarantined"
	case Reinstating:
		return "reinstating"
	}
	return "unknown"
}

// Config parameterizes a Set. The zero value is usable: all fields
// default to the values documented on them.
type Config struct {
	// Alpha is the EWMA smoothing factor for latency and error rate
	// (default 0.2 — a dozen samples to converge, a dozen to forget).
	Alpha float64
	// WindowCap bounds each tracker's exact-percentile window (default
	// 256 samples).
	WindowCap int
	// MinSamples is how many latency samples a tracker needs before its
	// EWMA is trusted for judgments (default 8). Below it the tracker
	// reports Healthy and score 1.
	MinSamples int
	// SuspectFactor and QuarantineFactor are the latency-ratio
	// thresholds: a lane whose EWMA exceeds factor × the set baseline
	// (best member EWMA) becomes Suspect (default 3) or Quarantined
	// (default 8). Hysteresis comes from the gap between them and from
	// the EWMA itself.
	SuspectFactor    float64
	QuarantineFactor float64
	// SuspectErrRate and QuarantineErrRate are the error-EWMA
	// thresholds (defaults 0.1 and 0.5).
	SuspectErrRate    float64
	QuarantineErrRate float64
	// Cooldown is the quarantine dwell before an endpoint is offered
	// reinstatement (default 2s).
	Cooldown time.Duration
	// ReinstateStreak is how many consecutive successes a Reinstating
	// endpoint needs to be Healthy again (default 3).
	ReinstateStreak int
	// ProbeInterval paces active probes on idle lanes (default 250ms).
	ProbeInterval time.Duration
	// HedgeFactor scales the set baseline EWMA into the hedged-prefill
	// deadline (default 4).
	HedgeFactor float64
	// DeadlineFactor scales the best healthy member's worst observed
	// latency into the adaptive per-op deadline (default 4).
	DeadlineFactor float64
	// Now overrides the clock (tests); default time.Now.
	Now func() time.Time
	// Metrics receives the genie_health_* series; nil keeps a private
	// registry.
	Metrics *obs.Registry
}

func (c *Config) fillDefaults() {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.2
	}
	if c.WindowCap <= 0 {
		c.WindowCap = 256
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.SuspectFactor <= 1 {
		c.SuspectFactor = 3
	}
	if c.QuarantineFactor <= c.SuspectFactor {
		c.QuarantineFactor = 8
		if c.QuarantineFactor <= c.SuspectFactor {
			c.QuarantineFactor = c.SuspectFactor * 2
		}
	}
	if c.SuspectErrRate <= 0 {
		c.SuspectErrRate = 0.1
	}
	if c.QuarantineErrRate <= 0 {
		c.QuarantineErrRate = 0.5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	if c.ReinstateStreak <= 0 {
		c.ReinstateStreak = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.HedgeFactor <= 1 {
		c.HedgeFactor = 4
	}
	if c.DeadlineFactor <= 1 {
		c.DeadlineFactor = 4
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
}

// Set scores a group of endpoints against each other. All methods are
// safe for concurrent use.
type Set struct {
	cfg Config

	mu      sync.Mutex
	members map[string]*Tracker
}

// NewSet builds an empty scorer; endpoints register lazily via
// Endpoint.
func NewSet(cfg Config) *Set {
	cfg.fillDefaults()
	return &Set{cfg: cfg, members: make(map[string]*Tracker)}
}

// Endpoint returns (creating on first use) the tracker for name.
func (s *Set) Endpoint(name string) *Tracker {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.members[name]; ok {
		return t
	}
	t := &Tracker{
		set:  s,
		name: name,
		// A probe is due after ProbeInterval of idleness, not at first
		// sight: a fresh lane blocking in a ping exactly when traffic
		// arrives would trade its first admissions for a liveness fact
		// the first real request proves anyway.
		lastProbe: s.cfg.Now(),
		window:    obs.NewWindow(s.cfg.WindowCap),
		stateGauge: s.cfg.Metrics.Gauge("genie_health_state",
			"graded endpoint health (0 healthy, 1 suspect, 2 quarantined, 3 reinstating)",
			"endpoint", name),
		scoreGauge: s.cfg.Metrics.Gauge("genie_health_score_milli",
			"endpoint health score in thousandths (1000 = perfectly healthy)",
			"endpoint", name),
		probes: s.cfg.Metrics.Counter("genie_health_probes_total",
			"active health probes issued", "endpoint", name),
	}
	for st := Healthy; st <= Reinstating; st++ {
		t.transitions[st] = s.cfg.Metrics.Counter("genie_health_transitions_total",
			"health state transitions", "endpoint", name, "to", st.String())
	}
	t.scoreGauge.Set(1000)
	s.members[name] = t
	return t
}

// baselineEwma is the set-wide reference latency: the smallest member
// EWMA with enough samples. Zero when no member has converged yet.
func (s *Set) baselineEwma() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	best := 0.0
	for _, t := range s.members {
		t.mu.Lock()
		ok := t.samples >= s.cfg.MinSamples
		e := t.ewma
		t.mu.Unlock()
		if ok && e > 0 && (best == 0 || e < best) {
			best = e
		}
	}
	return best
}

// HedgeDeadline derives the hedged-prefill trigger from the set
// baseline: HedgeFactor × the best member EWMA, never below floor.
// Until a baseline exists the floor alone applies (a zero floor then
// disables hedging for the call).
func (s *Set) HedgeDeadline(floor time.Duration) time.Duration {
	base := s.baselineEwma()
	d := time.Duration(s.cfg.HedgeFactor * base)
	if d < floor {
		d = floor
	}
	return d
}

// OpDeadline derives the adaptive per-operation deadline that converts
// fail-slow into fail-stop: DeadlineFactor × the best healthy member's
// worst observed latency (min-of-max — the best lane's worst case
// covers legitimate outliers like long-prompt prefills), clamped to
// [floor, cap]. Zero cap means uncapped; until any healthy member has
// samples the result is the cap (no adaptive bound yet).
func (s *Set) OpDeadline(floor, cap time.Duration) time.Duration {
	s.mu.Lock()
	members := make([]*Tracker, 0, len(s.members))
	for _, t := range s.members {
		members = append(members, t)
	}
	s.mu.Unlock()
	best := time.Duration(0)
	for _, t := range members {
		if st := t.State(); st != Healthy {
			continue
		}
		if t.window.Len() < s.cfg.MinSamples {
			continue
		}
		_, max := t.window.Quantiles()
		if max > 0 && (best == 0 || max < best) {
			best = max
		}
	}
	if best == 0 {
		return cap
	}
	d := time.Duration(s.cfg.DeadlineFactor * float64(best))
	if d < floor {
		d = floor
	}
	if cap > 0 && d > cap {
		d = cap
	}
	return d
}

// Healthiest ranks the named endpoints by score (best first), breaking
// ties by name for determinism. Unknown names rank last with score 1.
func (s *Set) Healthiest(names []string) []string {
	type scored struct {
		name  string
		score float64
	}
	ranked := make([]scored, 0, len(names))
	for _, n := range names {
		sc := 1.0
		s.mu.Lock()
		t := s.members[n]
		s.mu.Unlock()
		if t != nil {
			sc = t.Score()
		}
		ranked = append(ranked, scored{n, sc})
	}
	// Insertion sort: the fan-in here is a handful of lanes.
	for i := 1; i < len(ranked); i++ {
		for j := i; j > 0; j-- {
			a, b := ranked[j-1], ranked[j]
			if b.score > a.score || (b.score == a.score && b.name < a.name) {
				ranked[j-1], ranked[j] = b, a
			} else {
				break
			}
		}
	}
	out := make([]string, len(ranked))
	for i, r := range ranked {
		out[i] = r.name
	}
	return out
}

// EndpointHealth is one tracker's point-in-time snapshot (the /stats
// "health" block and the /healthz degraded detail).
type EndpointHealth struct {
	State       string        `json:"state"`
	Score       float64       `json:"score"`
	EWMA        time.Duration `json:"ewma"`
	P50         time.Duration `json:"p50"`
	P99         time.Duration `json:"p99"`
	ErrRate     float64       `json:"err_rate"`
	Samples     int           `json:"samples"`
	Probes      int64         `json:"probes"`
	Transits    int64         `json:"transitions"`
	Quarantined bool          `json:"quarantined"`
}

// Snapshot reports every member's current health.
func (s *Set) Snapshot() map[string]EndpointHealth {
	s.mu.Lock()
	members := make(map[string]*Tracker, len(s.members))
	for n, t := range s.members {
		members[n] = t
	}
	s.mu.Unlock()
	out := make(map[string]EndpointHealth, len(members))
	for n, t := range members {
		out[n] = t.snapshot()
	}
	return out
}

// Tracker scores one endpoint. Obtain via Set.Endpoint.
type Tracker struct {
	set  *Set
	name string

	mu        sync.Mutex
	state     State
	ewma      float64 // nanoseconds
	errEwma   float64
	samples   int
	okStreak  int       // consecutive successes while Reinstating
	until     time.Time // quarantine dwell expiry
	lastProbe time.Time
	transits  int64

	window *obs.Window

	stateGauge  *obs.Gauge
	scoreGauge  *obs.Gauge
	transitions [4]*obs.Counter
	probes      *obs.Counter
}

// Name returns the endpoint label.
func (t *Tracker) Name() string { return t.name }

// Observe folds one completed operation into the score: its latency
// into the EWMA and percentile window, its outcome into the error
// EWMA, then re-evaluates the state machine. failed should carry the
// caller's failure classification (an application-level remote error
// proves the endpoint alive and healthy-fast).
func (t *Tracker) Observe(d time.Duration, failed bool) {
	t.window.Observe(d)
	base := t.set.baselineEwma()
	alpha := t.set.cfg.Alpha
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples++
	if t.ewma == 0 {
		t.ewma = float64(d)
	} else {
		t.ewma = alpha*float64(d) + (1-alpha)*t.ewma
	}
	e := 0.0
	if failed {
		e = 1.0
	}
	t.errEwma = alpha*e + (1-alpha)*t.errEwma
	t.evaluate(base, failed)
	t.scoreGauge.Set(int64(1000 * t.scoreLocked(base)))
}

// ObserveProbe folds one active-probe outcome into the score. A probe
// round trip is a ping, not an exec — microseconds against the EWMA's
// milliseconds — so its latency is deliberately NOT folded into the
// latency EWMA or window (an idle fleet's probe stream would otherwise
// drag the set baseline toward ping RTT and make every working lane
// look slow). Probes feed the error EWMA, the state machine (including
// the reinstatement streak), and the probe counter.
func (t *Tracker) ObserveProbe(_ time.Duration, failed bool) {
	t.probes.Inc()
	base := t.set.baselineEwma()
	alpha := t.set.cfg.Alpha
	t.mu.Lock()
	defer t.mu.Unlock()
	e := 0.0
	if failed {
		e = 1.0
	}
	t.errEwma = alpha*e + (1-alpha)*t.errEwma
	t.evaluate(base, failed)
	t.scoreGauge.Set(int64(1000 * t.scoreLocked(base)))
}

// evaluate runs the state machine; callers hold t.mu. base is the set
// baseline EWMA (0 = no baseline yet).
func (t *Tracker) evaluate(base float64, failed bool) {
	now := t.set.cfg.Now()
	t.reapLocked(now)
	switch t.state {
	case Reinstating:
		if failed {
			t.toState(Quarantined)
			t.until = now.Add(t.set.cfg.Cooldown)
			t.okStreak = 0
			return
		}
		t.okStreak++
		if t.okStreak >= t.set.cfg.ReinstateStreak {
			// Forget the sick-era latency: the streak's samples are the
			// endpoint's new reality, and a stale 50×-inflated EWMA would
			// re-quarantine a recovered lane on its first judged call.
			t.ewma = 0
			t.errEwma = 0
			t.samples = 0
			t.okStreak = 0
			t.toState(Healthy)
		}
		return
	case Quarantined:
		return // only the dwell timer (reapLocked) moves it
	}
	// Healthy / Suspect: judge by error rate first (absolute), then by
	// latency ratio against the set baseline (relative).
	if t.samples < t.set.cfg.MinSamples {
		return
	}
	cfg := t.set.cfg
	ratio := 0.0
	if base > 0 {
		ratio = t.ewma / base
	}
	switch {
	case t.errEwma >= cfg.QuarantineErrRate || ratio >= cfg.QuarantineFactor:
		t.toState(Quarantined)
		t.until = now.Add(cfg.Cooldown)
	case t.errEwma >= cfg.SuspectErrRate || ratio >= cfg.SuspectFactor:
		if t.state != Suspect {
			t.toState(Suspect)
		}
	default:
		if t.state != Healthy {
			t.toState(Healthy)
		}
	}
}

// reapLocked moves an expired quarantine to Reinstating; callers hold
// t.mu.
func (t *Tracker) reapLocked(now time.Time) {
	if t.state == Quarantined && !now.Before(t.until) {
		t.toState(Reinstating)
		t.okStreak = 0
	}
}

// toState transitions and updates instrumentation; callers hold t.mu.
func (t *Tracker) toState(s State) {
	if t.state == s {
		return
	}
	t.state = s
	t.transits++
	t.stateGauge.Set(int64(s))
	if c := t.transitions[s]; c != nil {
		c.Inc()
	}
}

// Trip quarantines the endpoint now, whatever its grade or sample
// count: the caller has seen enough consecutive failures to stop
// sending it work. The dwell runs at least d from now; a longer dwell
// already running is kept, never shortened.
func (t *Tracker) Trip(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.set.cfg.Now()
	t.reapLocked(now)
	t.toState(Quarantined)
	t.okStreak = 0
	if until := now.Add(d); until.After(t.until) {
		t.until = until
	}
	t.scoreGauge.Set(0)
}

// RetryAfter returns the time left in the quarantine dwell; zero in
// every other state.
func (t *Tracker) RetryAfter() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.set.cfg.Now()
	t.reapLocked(now)
	if t.state != Quarantined {
		return 0
	}
	return t.until.Sub(now)
}

// State returns the current grade, applying the quarantine dwell timer.
func (t *Tracker) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reapLocked(t.set.cfg.Now())
	return t.state
}

// Score is the endpoint's composite health in (0,1]: the latency ratio
// against the set baseline (clamped to ≤1) damped by the error rate. A
// tracker without enough samples scores 1; a Quarantined tracker
// scores 0.
func (t *Tracker) Score() float64 {
	base := t.set.baselineEwma()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reapLocked(t.set.cfg.Now())
	return t.scoreLocked(base)
}

func (t *Tracker) scoreLocked(base float64) float64 {
	if t.state == Quarantined {
		return 0
	}
	s := 1.0
	if t.samples >= t.set.cfg.MinSamples && base > 0 && t.ewma > base {
		s = base / t.ewma
	}
	s *= 1 - t.errEwma
	if s <= 0 {
		s = 0.001 // non-quarantined endpoints stay selectable as last resort
	}
	return s
}

// ProbeDue reports whether an idle-lane active probe should fire now,
// and if so claims the probe slot (callers that get true must probe and
// report via ObserveProbe). Quarantined endpoints stay probed — the
// probe stream is what lets Reinstating judge recovery.
func (t *Tracker) ProbeDue() bool {
	now := t.set.cfg.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if now.Sub(t.lastProbe) < t.set.cfg.ProbeInterval {
		return false
	}
	t.lastProbe = now
	return true
}

// ProbeWait returns how long until the next probe is due (minimum 1ms
// so an idle loop never spins).
func (t *Tracker) ProbeWait() time.Duration {
	now := t.set.cfg.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.set.cfg.ProbeInterval - now.Sub(t.lastProbe)
	if w < time.Millisecond {
		w = time.Millisecond
	}
	return w
}

// Quantile reads one exact quantile from the latency window.
func (t *Tracker) Quantile(q float64) time.Duration {
	out, _ := t.window.Quantiles(q)
	return out[0]
}

// snapshot builds the /stats view.
func (t *Tracker) snapshot() EndpointHealth {
	base := t.set.baselineEwma()
	qs, _ := t.window.Quantiles(0.50, 0.99)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reapLocked(t.set.cfg.Now())
	return EndpointHealth{
		State:       t.state.String(),
		Score:       t.scoreLocked(base),
		EWMA:        time.Duration(t.ewma),
		P50:         qs[0],
		P99:         qs[1],
		ErrRate:     t.errEwma,
		Samples:     t.samples,
		Probes:      t.probes.Value(),
		Transits:    t.transits,
		Quarantined: t.state == Quarantined,
	}
}
