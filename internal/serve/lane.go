package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	goruntime "runtime"
	"sync/atomic"
	"time"

	"genie/internal/health"
	"genie/internal/obs"
	"genie/internal/runtime"
	"genie/internal/transport"
)

// lane is one backend's dispatch loop. A lane owns its runner's
// connection outright (the transport is a synchronous RPC channel), so
// everything on a backend — prefills and decode steps of every resident
// request — executes from this single goroutine. Continuous batching is
// the loop structure itself: each iterate() is one step boundary where
// finished requests leave, queued requests join (prefill), and every
// active request advances exactly one decode step.
//
// Every lane carries one gate, a health.Tracker for its endpoint, and
// every op outcome feeds it through record: BreakerThreshold
// consecutive counted failures trip it into quarantine for
// BreakerCooldown. A Quarantined lane admits nothing and drains its
// batch back to the queue through the ordinary failover path, a
// Reinstating lane trials one request at a time, and a Suspect lane
// (graded by a shared Config.Health set) demotes itself, admitting only
// when healthy capacity is saturated. With Config.Health set an idle
// lane also pings its endpoint so recovery is observed without risking
// real traffic.
type lane struct {
	e       *Engine
	name    string
	runner  *runtime.LLMRunner
	gate    *health.Tracker
	streak  int // consecutive counted failures; lane goroutine only
	active  []*activeReq
	activeN atomic.Int32
	wake    chan struct{}

	// failures counts backend-loss errors observed on this lane;
	// requeues counts requests this lane handed back to the queue. Both
	// surface per-backend in /stats.
	failures atomic.Int64
	requeues atomic.Int64
}

func newLane(e *Engine, name string, r *runtime.LLMRunner) *lane {
	l := &lane{e: e, name: name, runner: r, wake: make(chan struct{}, 1)}
	set := e.cfg.Health
	if set == nil {
		// A private one-member set that never reaches MinSamples never
		// grades on latency or error rate: only trips move it, and one
		// clean trial after the dwell reinstates it.
		set = health.NewSet(health.Config{
			MinSamples:      math.MaxInt,
			Cooldown:        e.cfg.BreakerCooldown,
			ReinstateStreak: 1,
			Now:             e.clock.Now,
			Metrics:         e.cfg.Metrics,
		})
	}
	l.gate = set.Endpoint(name)
	return l
}

// run is the production loop: iterate while there is work, sleep until
// nudged otherwise. The Gosched between iterations keeps admission
// live on small GOMAXPROCS: a busy lane ping-ponging with an
// in-process backend would otherwise monopolize the scheduler and
// starve Submit callers, serializing a burst that should batch.
func (l *lane) run() {
	defer l.e.wg.Done()
	for {
		if l.iterate() {
			goruntime.Gosched()
			continue
		}
		l.maybeProbe()
		if wait := l.idleWait(); wait > 0 {
			// Wake on our own: when the quarantine dwell lapses with work
			// still queued, and on the health prober's cadence.
			t := time.NewTimer(wait)
			select {
			case <-l.wake:
				t.Stop()
			case <-t.C:
			case <-l.e.stop:
				t.Stop()
				return
			}
			continue
		}
		select {
		case <-l.wake:
		case <-l.e.stop:
			return
		}
	}
}

// idleWait returns how long an idle lane should sleep before rechecking
// the queue on its own; 0 means sleep until nudged. Nonzero while this
// lane's gate is quarantined and work is waiting — the one state where
// no future nudge is guaranteed to arrive — and, with health scoring
// on, while the active prober needs the lane awake on its cadence
// (probes are what let a Quarantined endpoint earn its way back without
// real traffic).
func (l *lane) idleWait() time.Duration {
	var wait time.Duration
	if l.e.cfg.Health != nil {
		wait = l.gate.ProbeWait()
	}
	if dwell := l.gate.RetryAfter(); dwell > 0 && (wait == 0 || dwell < wait) {
		l.e.mu.Lock()
		queued := l.e.queues.depth() > 0
		l.e.mu.Unlock()
		if queued {
			wait = dwell
		}
	}
	return wait
}

// maybeProbe issues one active health probe when the lane is idle and
// the prober's cadence says one is due. The probe is a transport ping
// — cheap, stateless, and safe against a quarantined endpoint — whose
// outcome feeds the error side of the score (ping RTT is not exec
// latency, so the latency EWMA is left alone).
func (l *lane) maybeProbe() {
	if l.e.cfg.Health == nil || len(l.active) > 0 || !l.gate.ProbeDue() {
		return
	}
	p, ok := l.runner.EP.(interface {
		PingCtx(context.Context) (time.Duration, error)
	})
	if !ok {
		return
	}
	// A probe belongs to no request; it is the lane's own background
	// activity, so a root context bounded by the probe timeout is right.
	//lint:ignore ctxflow probe is lane-owned, not request-scoped
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	t0 := l.e.clock.Now()
	_, err := p.PingCtx(ctx)
	cancel()
	l.gate.ObserveProbe(l.e.clock.Now().Sub(t0), err != nil)
}

// iterate executes one step boundary; it reports whether any work was
// done (false = the lane is idle and may sleep).
func (l *lane) iterate() bool {
	// Drain after admission so a trip during a newcomer's prefill hands
	// the batch back before it steps on the failing backend.
	worked := l.admit()
	worked = l.drainQuarantined() || worked
	if len(l.active) > 0 {
		worked = true
		stepped := 0
		keep := l.active[:0]
		for _, ar := range l.active {
			didStep, stay := l.advance(ar)
			if didStep {
				stepped++
			}
			if stay {
				keep = append(keep, ar)
			}
		}
		for i := len(keep); i < len(l.active); i++ {
			l.active[i] = nil
		}
		l.active = keep
		l.activeN.Store(int32(len(l.active)))
		l.e.stats.occupancy(stepped)
	}
	l.e.maybeDrained()
	return worked
}

// drainQuarantined hands every active request of a quarantined lane
// back to the admission queue through the ordinary failover path: the
// session is closed, and whichever healthy lane picks the request up
// resumes it with one prefill over prompt ‖ the tokens the client
// already holds — no state loss, and no client retry budget burned
// (quarantine is the engine's decision, not the backend's failure).
// Reports whether anything was drained.
func (l *lane) drainQuarantined() bool {
	if len(l.active) == 0 || l.gate.State() != health.Quarantined {
		return false
	}
	for _, ar := range l.active {
		if l.retireIfDone(ar) {
			continue
		}
		l.requeue(ar)
	}
	for i := range l.active {
		l.active[i] = nil
	}
	l.active = l.active[:0]
	l.activeN.Store(0)
	return true
}

// admissible applies the lane's gate: Quarantined admits nothing,
// Reinstating trials one request at a time, Suspect yields to healthy
// lanes with room (demotion, not removal — a merely-slow lane still
// serves overflow).
func (l *lane) admissible() bool {
	switch l.gate.State() {
	case health.Quarantined:
		return false
	case health.Reinstating:
		return len(l.active) == 0
	case health.Suspect:
		return !l.e.healthyRoomElsewhere(l)
	}
	return true
}

// admit moves queued requests into the running batch until it is full,
// running each newcomer's prefill. A gate that refuses stops admission
// cold (queued work stays for healthier lanes); the request admitted
// while Reinstating is the trial whose outcome decides the lane.
// Reports whether anything was admitted or retired.
func (l *lane) admit() bool {
	worked := false
	for len(l.active) < l.e.cfg.MaxBatch {
		if !l.admissible() {
			break
		}
		ar := l.e.dequeue()
		if ar == nil {
			break
		}
		worked = true
		// Queue wait ends the moment a lane picks the request up.
		ar.qspan.End()
		ar.qspan = nil
		if l.retireIfDone(ar) {
			continue
		}
		if !l.prefill(ar) {
			continue // retired at admission (cancelled/expired/failed/re-queued)
		}
		l.active = append(l.active, ar)
		l.e.noteJoin(ar)
	}
	l.activeN.Store(int32(len(l.active)))
	return worked
}

// opCtx bounds one remote operation with the engine's per-op timeout —
// tightened, when health scoring is on, to the adaptive deadline
// derived from healthy-peer latency. The adaptive bound is what turns
// fail-slow into fail-stop: an op a browned-out endpoint would serve
// 50× slow is cancelled a few multiples past the healthy worst case,
// surfaces as a retryable timeout, and the request fails over instead
// of wedging the lane for the op's full duration.
func (l *lane) opCtx(parent context.Context) (context.Context, context.CancelFunc) {
	if parent == nil {
		// Submit tolerates a nil caller context (retireIfDone guards for
		// it); WithTimeout does not, so mint the root here.
		//lint:ignore ctxflow nil-context fallback, not a propagation hole
		parent = context.Background()
	}
	timeout := l.e.cfg.OpTimeout
	if l.e.cfg.Health != nil {
		timeout = l.e.cfg.Health.OpDeadline(l.e.cfg.HealthOpFloor, timeout)
	}
	if timeout <= 0 {
		return parent, func() {}
	}
	return context.WithTimeout(parent, timeout)
}

// prefill runs a newcomer's prompt phase, or a re-queued request's
// resume; it reports whether the request joined the batch (false =
// already completed or retired).
func (l *lane) prefill(ar *activeReq) bool {
	// The session carries the request span: decode-step spans parent
	// under serve.request; the prefill itself nests under serve.prefill.
	s0 := l.e.clock.Now()
	sess, err := l.runner.NewScopedSessionCtx(ar.tctx, l.e.cfg.Mode, fmt.Sprintf("req%d/", ar.id))
	if err != nil {
		// A session that cannot even be created is a judged failure, not
		// a silent one.
		l.record(ar.tctx, l.e.clock.Now().Sub(s0), err, true)
		l.fail(ar, err)
		return false
	}
	ar.sess = sess
	// A re-queued request resumes: the tokens its client already holds
	// extend the prompt, and emission continues after them.
	prompt := ar.prompt
	if len(ar.tokens) > 0 {
		prompt = append(append(make([]int64, 0, len(ar.prompt)+len(ar.tokens)), ar.prompt...), ar.tokens...)
	}
	pctx, pspan := obs.StartSpan(ar.tctx, "serve.prefill")
	pspan.SetAttr("backend", l.name)
	t0 := l.e.clock.Now()
	opctx, cancel := l.opCtx(pctx)
	first, err := sess.PrefillCtx(opctx, prompt)
	cancel()
	pspan.End()
	l.record(ar.tctx, l.e.clock.Now().Sub(t0), err, true)
	if err != nil {
		l.fail(ar, err)
		return false
	}
	if ar.ttft == 0 {
		// Only the first attempt defines TTFT; a re-queued request's
		// client saw its first token before the failover.
		ar.ttft = l.e.clock.Now().Sub(ar.arrival)
		l.e.stats.recordTTFT(ar.ttft)
	}
	l.emit(ar, first)
	if len(ar.tokens) >= ar.maxTokens {
		l.finish(ar, nil, outcomeCompleted)
		return false
	}
	return true
}

// advance runs one request's share of a decode iteration. didStep
// reports whether a decode step executed (the occupancy sample); stay
// whether the request remains in the batch.
func (l *lane) advance(ar *activeReq) (didStep, stay bool) {
	if l.retireIfDone(ar) {
		return false, false
	}
	t0 := l.e.clock.Now()
	opctx, cancel := l.opCtx(ar.tctx)
	tok, err := ar.sess.StepCtx(opctx)
	cancel()
	d := l.e.clock.Now().Sub(t0)
	l.e.stats.recordStep(d)
	l.record(ar.tctx, d, err, false)
	if err != nil {
		l.fail(ar, err)
		return false, false
	}
	l.emit(ar, tok)
	if len(ar.tokens) >= ar.maxTokens {
		l.finish(ar, nil, outcomeCompleted)
		return true, false
	}
	return true, true
}

// record feeds one op's outcome to the lane's gate; ctx is the
// request's own context. A prefill's latency stays out of the EWMA that
// ranks lanes (health.Tracker.ObservePrefill), so lanes are compared on
// decode steps alone; its outcome counts like any other op's. A failure
// counts against the endpoint when it means the backend is lost or
// speaking garbage; a remote error proves the server alive. Caller-side cancellation, and any error after the
// request's own context is done, says nothing about the endpoint: it
// resets the streak and is not scored. A per-op timeout still counts,
// because its parent context is alive. Every op of a lane runs on the
// lane's goroutine, so the streak needs no lock and no outcome can race
// a trip.
func (l *lane) record(ctx context.Context, d time.Duration, err error, prefill bool) {
	if err != nil && (errors.Is(err, context.Canceled) || ctx != nil && ctx.Err() != nil) {
		l.streak = 0
		return
	}
	failed := err != nil && (lostBackend(err) || transport.IsFrameError(err))
	if prefill {
		l.gate.ObservePrefill(d, failed)
	} else {
		l.gate.Observe(d, failed)
	}
	if !failed {
		l.streak = 0
		return
	}
	l.streak++
	if l.streak >= l.e.cfg.BreakerThreshold {
		l.gate.Trip(l.e.cfg.BreakerCooldown)
	}
}

// lostBackend classifies errors that mean the backend (not the request)
// is at fault: transient transport failures, per-op timeouts, and
// server-side state loss. These justify a re-queue; anything else fails
// the request.
func lostBackend(err error) bool {
	return transport.Retryable(err) || transport.IsStateLoss(err) ||
		errors.Is(err, context.DeadlineExceeded)
}

// fail routes an execution error: the request's own expiry/cancel wins,
// backend loss re-queues within budget (then sheds 503), anything else
// fails the request outright.
func (l *lane) fail(ar *activeReq, err error) {
	if l.retireIfDone(ar) {
		return
	}
	if !lostBackend(err) {
		l.finish(ar, err, outcomeFailed)
		return
	}
	l.failures.Add(1)
	if ar.retries >= l.e.cfg.RetryBudget {
		l.finish(ar, fmt.Errorf("%w: %d attempt(s) exhausted on %s: %v",
			ErrBackendUnavailable, ar.retries+1, l.name, err), outcomeUnavailable)
		return
	}
	ar.retries++
	l.requeue(ar)
}

// requeue hands a backend-loss victim back to the admission queue with
// the tokens already delivered. Whichever lane picks it up resumes it
// from them (prefill); greedy decoding makes that the same state.
func (l *lane) requeue(ar *activeReq) {
	if ar.sess != nil {
		_ = ar.sess.Close()
		ar.sess = nil
	}
	l.e.noteLeave(ar)
	l.requeues.Add(1)
	l.e.stats.requeued.Inc()
	_, ar.qspan = obs.StartSpan(ar.tctx, "serve.queue")
	l.e.requeue(l, ar)
}

// retireIfDone retires a cancelled or deadline-expired request at this
// step boundary; it reports whether the request was retired.
func (l *lane) retireIfDone(ar *activeReq) bool {
	if ar.ctx != nil && ar.ctx.Err() != nil {
		l.finish(ar, ar.ctx.Err(), outcomeCancelled)
		return true
	}
	if !ar.deadline.IsZero() && l.e.clock.Now().After(ar.deadline) {
		l.finish(ar, ErrDeadlineExceeded, outcomeExpired)
		return true
	}
	return false
}

// emit records a generated token and invokes the streaming hook.
func (l *lane) emit(ar *activeReq, tok int64) {
	idx := len(ar.tokens)
	ar.tokens = append(ar.tokens, tok)
	l.e.stats.tokensOut.Inc()
	if ar.onToken != nil {
		ar.onToken(Token{Index: idx, ID: tok})
	}
}

// finish retires a request: releases its per-request remote state,
// builds the result (partial tokens included on expiry/cancel), bumps
// the outcome counter, closes the request span, and unblocks the
// submitter.
func (l *lane) finish(ar *activeReq, err error, outcome string) {
	if ar.sess != nil {
		_ = ar.sess.Close()
	}
	l.e.noteLeave(ar)
	lat := l.e.clock.Now().Sub(ar.arrival)
	if err == nil {
		l.e.stats.recordLatency(lat)
	}
	l.e.stats.countOutcome(outcome)
	// A request retired while still queued never had its queue span
	// ended by prefill.
	ar.qspan.End()
	ar.qspan = nil
	ar.span.SetAttr("outcome", outcome)
	ar.span.SetAttrInt("tokens", int64(len(ar.tokens)))
	ar.span.SetAttr("backend", l.name)
	ar.span.End()
	ar.complete(&Result{
		Tokens:  ar.tokens,
		TTFT:    ar.ttft,
		Latency: lat,
		Backend: l.name,
	}, err)
}
