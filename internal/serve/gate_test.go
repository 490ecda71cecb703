package serve

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"genie/internal/chaos"
	"genie/internal/health"
	"genie/internal/models"
	"genie/internal/obs"
	"genie/internal/runtime"
	"genie/internal/transport"
)

// TestLaneGateTripCycle walks a Health-less lane's gate through its
// whole cycle on a fake clock: the streak rule, the trip, the dwell,
// one trial at a time, trial failure and success, and a trip draining a
// live batch. Each row acts on the same engine, then checks the gate
// state, the lane's genie_health_state gauge and /healthz.
func TestLaneGateTripCycle(t *testing.T) {
	gpt := models.NewGPT(rand.New(rand.NewSource(5)), models.TinyGPT)
	want := refTokens(t, unitPrompt, 4)
	b0 := newServedBackend(gpt, nil)
	defer b0.stop()
	clk := NewFakeClock()
	reg := obs.NewRegistry()
	e, err := NewEngine(Config{
		Mode:             runtime.ModeSemAware,
		Clock:            clk,
		Metrics:          reg,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Minute,
	}, []Backend{{Name: "b0", Runner: b0.runner}})
	if err != nil {
		t.Fatal(err)
	}
	l := e.lanes[0]
	h := NewHandler(e)

	live := context.Background()
	callerDone, cancel := context.WithCancel(live)
	cancel()
	// A per-op timeout under a live request context: counted.
	lost := context.DeadlineExceeded
	enqueue := func() *activeReq {
		ar, err := e.enqueue(live, Request{Tenant: "a", Prompt: unitPrompt, MaxTokens: len(want)})
		if err != nil {
			t.Fatal(err)
		}
		return ar
	}
	var a, b *activeReq
	var requeued int64

	for _, row := range []struct {
		name    string
		run     func(t *testing.T)
		state   health.State
		healthz int
	}{
		{"remote error, cancel and caller deadline reset the streak", func(t *testing.T) {
			for _, err := range []error{lost, lost, &transport.RemoteError{Msg: "bad shape"},
				lost, lost, context.Canceled, lost, lost} {
				l.record(live, time.Millisecond, err, false)
			}
			l.record(callerDone, time.Millisecond, context.DeadlineExceeded, false)
			l.record(live, time.Millisecond, lost, false)
			l.record(live, time.Millisecond, lost, false)
		}, health.Healthy, http.StatusOK},
		{"trips at exactly the threshold", func(t *testing.T) {
			l.record(live, time.Millisecond, lost, false)
			if ra := l.gate.RetryAfter(); ra != time.Minute {
				t.Fatalf("RetryAfter = %v, want the 1m cooldown", ra)
			}
		}, health.Quarantined, http.StatusServiceUnavailable},
		{"no dequeue during the dwell", func(t *testing.T) {
			a, b = enqueue(), enqueue()
			clk.Advance(30 * time.Second)
			if l.iterate() {
				t.Fatal("quarantined lane did work")
			}
			if q := e.Stats().Queued; q != 2 {
				t.Fatalf("queued = %d, want 2 untouched", q)
			}
			if w := l.idleWait(); w != 30*time.Second {
				t.Fatalf("idleWait = %v, want the 30s left of the dwell", w)
			}
		}, health.Quarantined, http.StatusServiceUnavailable},
		{"a reinstating lane is not healthy", func(t *testing.T) {
			clk.Advance(30 * time.Second)
			b0.srv.Crash() // the trial will fail
		}, health.Reinstating, http.StatusServiceUnavailable},
		{"one trial while a second request waits; its failure re-quarantines", func(t *testing.T) {
			l.iterate()
			if a.retries != 1 || b.retries != 0 || isDone(a) || isDone(b) {
				t.Fatalf("retries a=%d b=%d, want 1/0 with both queued", a.retries, b.retries)
			}
			if st := e.Stats(); st.Queued != 2 || st.Backends["b0"].Failures != 1 {
				t.Fatalf("queued=%d failures=%d, want 2/1: exactly one trial ran",
					st.Queued, st.Backends["b0"].Failures)
			}
			if ra := l.gate.RetryAfter(); ra != time.Minute {
				t.Fatalf("RetryAfter = %v after the failed trial, want BreakerCooldown", ra)
			}
		}, health.Quarantined, http.StatusServiceUnavailable},
		{"a clean trial reinstates the lane", func(t *testing.T) {
			if _, err := b0.runner.InstallModelWeights(); err != nil {
				t.Fatal(err)
			}
			clk.Advance(time.Minute)
			l.iterate()
			if n := l.activeN.Load(); n != 2 {
				t.Fatalf("active = %d after the trial, want both admitted", n)
			}
		}, health.Healthy, http.StatusOK},
		{"a trip drains the batch without spending retries", func(t *testing.T) {
			requeued = e.Stats().Requeued
			for i := 0; i < 3; i++ {
				l.record(live, time.Millisecond, lost, false)
			}
			if !l.iterate() || l.activeN.Load() != 0 {
				t.Fatal("tripped lane kept its batch")
			}
			if st := e.Stats(); st.Queued != 2 || st.Requeued != requeued+2 {
				t.Fatalf("queued=%d requeued=%d, want 2 and +2", st.Queued, st.Requeued-requeued)
			}
			if a.retries != 1 || b.retries != 0 {
				t.Fatalf("retries a=%d b=%d after the drain, want 1/0 unchanged", a.retries, b.retries)
			}
		}, health.Quarantined, http.StatusServiceUnavailable},
		{"drained requests finish with the oracle's tokens", func(t *testing.T) {
			clk.Advance(time.Minute)
			for i := 0; i < 50 && !(isDone(a) && isDone(b)); i++ {
				l.iterate()
			}
			for _, ar := range []*activeReq{a, b} {
				if !isDone(ar) || ar.err != nil {
					t.Fatalf("request did not finish: done=%v err=%v", isDone(ar), ar.err)
				}
				assertTokens(t, "after drain", ar.res.Tokens, want)
			}
			if st := e.Stats(); st.Completed != 2 || st.Unavailable != 0 || st.Failed != 0 {
				t.Fatalf("completed=%d unavailable=%d failed=%d, want 2/0/0",
					st.Completed, st.Unavailable, st.Failed)
			}
		}, health.Healthy, http.StatusOK},
	} {
		t.Run(row.name, func(t *testing.T) {
			row.run(t)
			if st := l.gate.State(); st != row.state {
				t.Fatalf("gate = %v, want %v", st, row.state)
			}
			if bh := e.Stats().Backends["b0"]; bh.Health != row.state.String() {
				t.Errorf("/stats b0 = %+v, want health %v", bh, row.state)
			}
			if g := reg.Gauge("genie_health_state", "", "endpoint", "b0").Value(); g != int64(row.state) {
				t.Errorf("genie_health_state = %d, want %d", g, row.state)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
			if rec.Code != row.healthz {
				t.Errorf("/healthz = %d, want %d", rec.Code, row.healthz)
			}
		})
	}
}

// TestLaneGatePrefillsDoNotRankLanes: lanes are ranked on decode steps
// alone. b0 runs four 13 ms prefills and then 1 ms steps; b1 runs only
// 1 ms steps. Had the prefills entered b0's latency EWMA, b0 would read
// several times slower than b1 and be demoted; instead it stays Healthy
// throughout and admits work, and nothing is requeued. The prefills
// still reach the window OpDeadline reads.
func TestLaneGatePrefillsDoNotRankLanes(t *testing.T) {
	gpt := models.NewGPT(rand.New(rand.NewSource(5)), models.TinyGPT)
	b0, b1 := newServedBackend(gpt, nil), newServedBackend(gpt, nil)
	defer b0.stop()
	defer b1.stop()
	clk := NewFakeClock()
	hs := health.NewSet(health.Config{Now: clk.Now})
	e, err := NewEngine(Config{Mode: runtime.ModeSemAware, Clock: clk, Health: hs},
		[]Backend{{Name: "b0", Runner: b0.runner}, {Name: "b1", Runner: b1.runner}})
	if err != nil {
		t.Fatal(err)
	}
	l0, l1 := e.lanes[0], e.lanes[1]
	live := context.Background()
	const step, prefill = time.Millisecond, 13 * time.Millisecond

	for i := 0; i < 10; i++ {
		l1.record(live, step, nil, false)
	}
	for i := 0; i < 4; i++ {
		l0.record(live, prefill, nil, true)
	}
	for i := 0; i < 20; i++ {
		l0.record(live, step, nil, false)
		l1.record(live, step, nil, false)
		if st := l0.gate.State(); st != health.Healthy {
			t.Fatalf("after %d steps b0 = %v (%+v), want healthy", i+1, st, hs.Snapshot()["b0"])
		}
	}
	l1.record(live, prefill, nil, true)
	if d := hs.OpDeadline(0, 0); d != 4*prefill {
		t.Errorf("OpDeadline = %v, want 4 × the 13 ms prefill", d)
	}

	if _, err := e.enqueue(live, Request{Tenant: "a", Prompt: unitPrompt, MaxTokens: 4}); err != nil {
		t.Fatal(err)
	}
	l0.iterate()
	if n := l0.activeN.Load(); n != 1 {
		t.Errorf("b0 holds %d requests, want the 1 it should admit", n)
	}
	for name, eh := range hs.Snapshot() {
		if eh.State != "healthy" {
			t.Errorf("%s = %+v, want healthy", name, eh)
		}
	}
	if rq := e.Stats().Requeued; rq != 0 {
		t.Errorf("requeued = %d, want 0", rq)
	}
}

// TestTripOnlyLaneNeverPings: without Config.Health a lane has no
// prober. Idle for many probe intervals, it makes no call on its conn
// and sleeps until nudged; the same loop with Health set does ping.
func TestTripOnlyLaneNeverPings(t *testing.T) {
	gpt := models.NewGPT(rand.New(rand.NewSource(5)), models.TinyGPT)
	for _, withHealth := range []bool{false, true} {
		b0 := newServedBackend(gpt, nil)
		clk := NewFakeClock()
		cfg := Config{Mode: runtime.ModeSemAware, Clock: clk}
		if withHealth {
			cfg.Health = health.NewSet(health.Config{Now: clk.Now})
		}
		e, err := NewEngine(cfg, []Backend{{Name: "b0", Runner: b0.runner}})
		if err != nil {
			t.Fatal(err)
		}
		l := e.lanes[0]
		_, _, before := b0.cconn.Counters().Snapshot()
		for i := 0; i < 20; i++ {
			clk.Advance(time.Second) // four default probe intervals
			if l.iterate() {
				t.Fatal("idle lane did work")
			}
			l.maybeProbe()
			if w := l.idleWait(); !withHealth && w != 0 {
				t.Fatalf("trip-only idle lane wants a %v timer, want sleep until nudged", w)
			}
		}
		_, _, after := b0.cconn.Counters().Snapshot()
		if pinged := after > before; pinged != withHealth {
			t.Errorf("health=%v: %d calls on an idle lane", withHealth, after-before)
		}
		b0.stop()
	}
}

// TestStreakTripQuarantinesBeforeMinSamples: with a shared Health set,
// a streak trip quarantines a lane the scorer has too few samples to
// grade, and the lane drains its batch to the healthy peer.
func TestStreakTripQuarantinesBeforeMinSamples(t *testing.T) {
	e, b0, b1, hs := healthTestEngine(t)
	defer b0.stop()
	defer b1.stop()
	want := refTokens(t, unitPrompt, 4)
	var reqs []*activeReq
	for i := 0; i < 2; i++ {
		ar, err := e.enqueue(context.Background(), Request{Tenant: "a", Prompt: unitPrompt, MaxTokens: len(want)})
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, ar)
	}
	l := e.lanes[0]
	l.iterate()
	if n := l.activeN.Load(); n != 2 {
		t.Fatalf("active = %d on b0, want 2", n)
	}
	for i := 0; i < e.cfg.BreakerThreshold; i++ {
		l.record(context.Background(), time.Millisecond, context.DeadlineExceeded, false)
	}
	if eh := hs.Snapshot()["b0"]; eh.State != "quarantined" || eh.Samples >= 8 {
		t.Fatalf("b0 = %+v, want quarantined below MinSamples", eh)
	}
	l.iterate()
	if n := l.activeN.Load(); n != 0 {
		t.Fatalf("tripped lane still holds %d requests", n)
	}
	for i := 0; i < 50 && !(isDone(reqs[0]) && isDone(reqs[1])); i++ {
		e.lanes[1].iterate()
	}
	for _, ar := range reqs {
		if !isDone(ar) || ar.err != nil || ar.retries != 0 {
			t.Fatalf("drained request: done=%v err=%v retries=%d, want done, nil, 0",
				isDone(ar), ar.err, ar.retries)
		}
		assertTokens(t, "after trip drain", ar.res.Tokens, want)
	}
}

// TestCallerDeadlineDoesNotTripLane: a request whose own context
// expires mid-op is retired with its deadline error, and the expiry
// says nothing about the backend: the lane neither trips nor is scored,
// even at threshold 1.
func TestCallerDeadlineDoesNotTripLane(t *testing.T) {
	gpt := models.NewGPT(rand.New(rand.NewSource(5)), models.TinyGPT)
	for _, withHealth := range []bool{false, true} {
		plan := chaos.NewPlan(3, chaos.Config{DelayProb: 1, Delay: 40 * time.Millisecond})
		plan.SetActive(false) // let weights install at full speed
		b0 := newServedBackend(gpt, plan)
		cfg := Config{Mode: runtime.ModeSemAware, BreakerThreshold: 1}
		if withHealth {
			cfg.Health = health.NewSet(health.Config{})
		}
		e, err := NewEngine(cfg, []Backend{{Name: "b0", Runner: b0.runner}})
		if err != nil {
			t.Fatal(err)
		}
		plan.SetActive(true)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		ar, err := e.enqueue(ctx, Request{Tenant: "a", Prompt: unitPrompt, MaxTokens: 3})
		if err != nil {
			t.Fatal(err)
		}
		e.lanes[0].iterate()
		cancel()
		if !isDone(ar) || !errors.Is(ar.err, context.DeadlineExceeded) {
			t.Fatalf("health=%v: done=%v err=%v, want retired with the caller's deadline",
				withHealth, isDone(ar), ar.err)
		}
		if bh := e.Stats().Backends["b0"]; !bh.Healthy || bh.Failures != 0 {
			t.Errorf("health=%v: b0 = %+v, want healthy with no failures", withHealth, bh)
		}
		if withHealth {
			if eh := cfg.Health.Snapshot()["b0"]; eh.Samples != 0 || eh.ErrRate != 0 {
				t.Errorf("caller deadline scored against b0: %+v", eh)
			}
		}
		b0.stop()
	}
}
