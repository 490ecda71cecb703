package serve

import (
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"genie/internal/backend"
	"genie/internal/chaos"
	"genie/internal/cluster"
	"genie/internal/device"
	"genie/internal/kvcache"
	"genie/internal/metrics"
	"genie/internal/models"
	"genie/internal/pool"
	"genie/internal/runtime"
	"genie/internal/transport"
)

// servedBackend is one in-process backend whose client conn can be
// routed through a chaos plan, with explicit teardown for leak checks.
type servedBackend struct {
	srv          *backend.Server
	runner       *runtime.LLMRunner
	cconn, sconn *transport.Conn
}

func newServedBackend(gpt *models.GPT, plan *chaos.Plan) *servedBackend {
	rawC, rawS := net.Pipe()
	var clientSide net.Conn = rawC
	if plan != nil {
		clientSide = plan.WrapConn(rawC)
	}
	cconn := transport.NewConn(clientSide, nil, nil)
	sconn := transport.NewConn(rawS, nil, nil)
	srv := backend.NewServer(device.A100)
	go func() { _ = srv.Serve(sconn) }()
	return &servedBackend{
		srv:    srv,
		runner: &runtime.LLMRunner{Model: gpt, EP: transport.NewClient(cconn)},
		cconn:  cconn,
		sconn:  sconn,
	}
}

func (sb *servedBackend) stop() {
	_ = sb.cconn.Close()
	_ = sb.sconn.Close()
}

// TestBackendCrashRequeuesToHealthyLane: a chaos plan crashes backend
// b0 mid-decode; the in-flight request re-queues (not a 500), resumes
// on b1 with one prefill over prompt ‖ the delivered tokens, and the
// token stream the client observes is bit-identical to a fault-free run
// with no index delivered twice.
func TestBackendCrashRequeuesToHealthyLane(t *testing.T) {
	snap := metrics.SnapGoroutines()
	rng := rand.New(rand.NewSource(5))
	gpt := models.NewGPT(rng, models.TinyGPT)
	want := refTokens(t, unitPrompt, 5)

	// b0 crashes on its 3rd exec: prefill, one decode step, then loss
	// mid-decode with two tokens already delivered.
	plan := chaos.NewPlan(7, chaos.Config{CrashExecAt: 3})
	b0 := newServedBackend(gpt, nil)
	b0.srv.SetExecHook(plan.ExecHook(b0.srv.Crash))
	b1 := newServedBackend(gpt, nil)

	e, err := NewEngine(Config{
		Mode:             runtime.ModeSemAware,
		RetryBudget:      1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute,
	}, []Backend{
		{Name: "b0", Runner: b0.runner},
		{Name: "b1", Runner: b1.runner},
	})
	if err != nil {
		t.Fatal(err)
	}

	var emitted []int
	ar, err := e.enqueue(context.Background(), Request{
		Tenant: "alice", Prompt: unitPrompt, MaxTokens: 5,
		OnToken: func(tok Token) { emitted = append(emitted, tok.Index) },
	})
	if err != nil {
		t.Fatal(err)
	}

	// Drive the doomed lane until the crash re-queues the request.
	for i := 0; i < 10 && e.lanes[0].iterate(); i++ {
	}
	if isDone(ar) {
		t.Fatalf("request completed on the crashed lane: err=%v", ar.err)
	}
	if got := plan.Injected()["crash_exec"]; got != 1 {
		t.Fatalf("chaos injected %d crashes, want 1", got)
	}
	if st := e.Stats(); st.Requeued != 1 || st.Queued != 1 {
		t.Fatalf("after crash: requeued=%d queued=%d, want 1/1", st.Requeued, st.Queued)
	}

	// The healthy lane picks it up and finishes it.
	for i := 0; i < 50 && !isDone(ar); i++ {
		e.lanes[1].iterate()
	}
	if !isDone(ar) {
		t.Fatal("request never completed on the healthy lane")
	}
	if ar.err != nil {
		t.Fatalf("recovered request failed: %v", ar.err)
	}
	if ar.res.Backend != "b1" {
		t.Errorf("finished on %q, want b1", ar.res.Backend)
	}
	if len(ar.res.Tokens) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(ar.res.Tokens), len(want))
	}
	for i := range want {
		if ar.res.Tokens[i] != want[i] {
			t.Fatalf("token[%d] = %d after failover, want %d (full: %v vs %v)",
				i, ar.res.Tokens[i], want[i], ar.res.Tokens, want)
		}
	}
	// Resuming costs b1 one prefill, then only the steps still owed:
	// nothing the client holds is decoded again.
	if got := b1.srv.Stats().ExecCalls; got != 3 {
		t.Errorf("b1 ran %d execs, want 3 (one prefill over prompt ‖ 2 delivered tokens, then 2 steps)", got)
	}
	// The stream saw every index exactly once, in order, across the
	// failover.
	if len(emitted) != 5 {
		t.Fatalf("client observed %d token events, want 5: %v", len(emitted), emitted)
	}
	for i, idx := range emitted {
		if idx != i {
			t.Fatalf("token event order %v, want 0..4 each once", emitted)
		}
	}

	st := e.Stats()
	if st.Completed != 1 || st.Failed != 0 || st.Unavailable != 0 {
		t.Errorf("completed=%d failed=%d unavailable=%d, want 1/0/0",
			st.Completed, st.Failed, st.Unavailable)
	}
	if st.TokensOut != 5 {
		t.Errorf("tokens_out = %d, want 5 (no double-count across the resume)", st.TokensOut)
	}
	if bh := st.Backends["b0"]; bh.Healthy || bh.Health != "quarantined" || bh.Requeued != 1 {
		t.Errorf("b0 health = %+v, want tripped (quarantined) gate with 1 requeue", bh)
	}
	if bh := st.Backends["b1"]; !bh.Healthy || bh.Health != "healthy" {
		t.Errorf("b1 health = %+v, want healthy gate", bh)
	}

	b0.stop()
	b1.stop()
	snap.Check(t)
}

// TestRetryBudgetExhaustedSheds503: with every backend dead, a request
// burns its re-queue budget and sheds as HTTP 503 with a Retry-After
// hint; /healthz degrades and /stats carries the health transition.
func TestRetryBudgetExhaustedSheds503(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gpt := models.NewGPT(rng, models.TinyGPT)

	// Crash on the very first exec; the crash clears the resident store,
	// so every later attempt fails too (a permanently lost backend).
	plan := chaos.NewPlan(11, chaos.Config{CrashExecAt: 1})
	b0 := newServedBackend(gpt, nil)
	b0.srv.SetExecHook(plan.ExecHook(b0.srv.Crash))

	e, err := NewEngine(Config{
		Mode:             runtime.ModeSemAware,
		RetryBudget:      1,
		RetryAfter:       2 * time.Second,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Nanosecond, // trial immediately
	}, []Backend{{Name: "b0", Runner: b0.runner}})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	ts := httptest.NewServer(NewHandler(e))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/generate", "application/json",
		strings.NewReader(`{"tenant":"alice","prompt":[3,14,15],"max_tokens":3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	var body GenerateResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.Error, "backend unavailable") {
		t.Errorf("error body %q does not name backend unavailability", body.Error)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/healthz = %d with no healthy backends, want 503", hz.StatusCode)
	}

	sr, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var st Stats
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Unavailable != 1 || st.Requeued != 1 {
		t.Errorf("unavailable=%d requeued=%d, want 1/1", st.Unavailable, st.Requeued)
	}
	if bh := st.Backends["b0"]; bh.Healthy || bh.Failures < 2 {
		t.Errorf("b0 health = %+v, want unhealthy with >=2 failures", bh)
	}
}

// TestHungPeerFailsOverWithinOpTimeout is the wedged-engine regression:
// the link to one backend of lane 0 silently swallows frames (a hung
// peer), the per-op timeout rescues the lane within its bound, the
// lane's gate trips, and the request completes on the healthy lane with the
// exact fault-free tokens. Every kind of lane must honour the deadline
// at the RPC: a plain runner on the hung backend, a prefill/decode split
// whose decode side hangs (the ΔKV handoff is its first RPC there), and
// a pool whose only member hangs.
func TestHungPeerFailsOverWithinOpTimeout(t *testing.T) {
	for _, tc := range []struct {
		name string
		// lane0 builds the doomed lane's runner over the hung backend;
		// extra lists the healthy backends it started besides.
		lane0 func(t *testing.T, gpt *models.GPT, hung *servedBackend) (r *runtime.LLMRunner, extra []*servedBackend)
	}{
		{"plain", func(_ *testing.T, _ *models.GPT, hung *servedBackend) (*runtime.LLMRunner, []*servedBackend) {
			return hung.runner, nil
		}},
		{"split_decode", func(t *testing.T, gpt *models.GPT, hung *servedBackend) (*runtime.LLMRunner, []*servedBackend) {
			pre := newServedBackend(gpt, nil)
			sp, err := kvcache.NewSplit(kvcache.SplitConfig{Model: gpt, Prefill: pre.runner.EP, Decode: hung.runner.EP})
			if err != nil {
				t.Fatal(err)
			}
			if err := sp.InstallWeights(); err != nil {
				t.Fatal(err)
			}
			return sp.Runner(), []*servedBackend{pre}
		}},
		{"pool_member", func(t *testing.T, gpt *models.GPT, hung *servedBackend) (*runtime.LLMRunner, []*servedBackend) {
			pm, err := pool.NewManager(pool.Config{Model: gpt})
			if err != nil {
				t.Fatal(err)
			}
			if err := pm.Join("m0", hung.runner.EP, device.A100, cluster.Link{Bandwidth: 3.125e9}); err != nil {
				t.Fatal(err)
			}
			return pm.Runner(), nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := metrics.SnapGoroutines()
			rng := rand.New(rand.NewSource(5))
			gpt := models.NewGPT(rng, models.TinyGPT)
			want := refTokens(t, unitPrompt, 3)

			plan := chaos.NewPlan(13, chaos.Config{DropWriteProb: 1})
			plan.SetActive(false) // let weights install cleanly
			b0 := newServedBackend(gpt, plan)
			b1 := newServedBackend(gpt, nil)
			r0, extra := tc.lane0(t, gpt, b0)

			e, err := NewEngine(Config{
				Mode:             runtime.ModeSemAware,
				OpTimeout:        150 * time.Millisecond,
				RetryBudget:      1,
				BreakerThreshold: 1,
				BreakerCooldown:  time.Minute,
			}, []Backend{
				{Name: "b0", Runner: r0},
				{Name: "b1", Runner: b1.runner},
			})
			if err != nil {
				t.Fatal(err)
			}
			plan.SetActive(true)

			ar, err := e.enqueue(context.Background(), Request{
				Tenant: "alice", Prompt: unitPrompt, MaxTokens: 3,
			})
			if err != nil {
				t.Fatal(err)
			}

			start := time.Now()
			e.lanes[0].iterate() // prefill hangs on the dropped frame until OpTimeout
			if wedged := time.Since(start); wedged > 2*time.Second {
				t.Fatalf("hung peer wedged the lane for %v", wedged)
			}
			if isDone(ar) {
				t.Fatalf("request retired on the hung lane: err=%v", ar.err)
			}
			if plan.Injected()["drop_write"] == 0 {
				t.Fatal("chaos dropped no writes")
			}

			for i := 0; i < 50 && !isDone(ar); i++ {
				e.lanes[1].iterate()
			}
			if !isDone(ar) || ar.err != nil {
				t.Fatalf("request did not recover on healthy lane: done=%v err=%v", isDone(ar), ar.err)
			}
			for i := range want {
				if ar.res.Tokens[i] != want[i] {
					t.Fatalf("tokens %v after hung-peer failover, want %v", ar.res.Tokens, want)
				}
			}
			st := e.Stats()
			if bh := st.Backends["b0"]; bh.Healthy || bh.Health != "quarantined" {
				t.Errorf("b0 health = %+v, want tripped (quarantined) gate after hang", bh)
			}

			for _, sb := range append(extra, b0, b1) {
				sb.stop()
			}
			snap.Check(t)
		})
	}
}

// TestTrippedLaneRejoinsAfterTrial: after a failover, repairing the
// backend (reinstalling weights) and letting the cooldown lapse lets the
// trial request succeed, reinstating the tripped lane and returning it
// to service.
func TestTrippedLaneRejoinsAfterTrial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gpt := models.NewGPT(rng, models.TinyGPT)
	want := refTokens(t, unitPrompt, 2)

	plan := chaos.NewPlan(17, chaos.Config{CrashExecAt: 1})
	b0 := newServedBackend(gpt, nil)
	b0.srv.SetExecHook(plan.ExecHook(b0.srv.Crash))
	b1 := newServedBackend(gpt, nil)
	defer b0.stop()
	defer b1.stop()

	clk := NewFakeClock()
	e, err := NewEngine(Config{
		Mode:             runtime.ModeSemAware,
		Clock:            clk,
		RetryBudget:      1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute,
	}, []Backend{
		{Name: "b0", Runner: b0.runner},
		{Name: "b1", Runner: b1.runner},
	})
	if err != nil {
		t.Fatal(err)
	}

	// First request: b0 crashes at prefill, request recovers on b1.
	ar, err := e.enqueue(context.Background(), Request{Tenant: "a", Prompt: unitPrompt, MaxTokens: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.lanes[0].iterate()
	for i := 0; i < 50 && !isDone(ar); i++ {
		e.lanes[1].iterate()
	}
	if !isDone(ar) || ar.err != nil {
		t.Fatalf("first request did not fail over: %v", ar.err)
	}

	// Repair b0 (the crash wiped its weights), let the cooldown lapse,
	// and trial it with fresh traffic: the trial must succeed and
	// reinstate the lane.
	if _, err := b0.runner.InstallModelWeights(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute)
	ar2, err := e.enqueue(context.Background(), Request{Tenant: "a", Prompt: unitPrompt, MaxTokens: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50 && !isDone(ar2); i++ {
		e.lanes[0].iterate()
	}
	if !isDone(ar2) || ar2.err != nil {
		t.Fatalf("trial request did not complete on repaired lane: %v", ar2.err)
	}
	if ar2.res.Backend != "b0" {
		t.Errorf("trial request finished on %q, want repaired b0", ar2.res.Backend)
	}
	for i := range want {
		if ar2.res.Tokens[i] != want[i] {
			t.Fatalf("repaired-lane tokens %v, want %v", ar2.res.Tokens, want)
		}
	}
	if bh := e.Stats().Backends["b0"]; !bh.Healthy || bh.Health != "healthy" {
		t.Errorf("b0 health = %+v, want healthy gate after a successful trial", bh)
	}
}
