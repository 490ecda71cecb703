package eval

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"time"

	"genie/internal/backend"
	"genie/internal/chaos"
	"genie/internal/device"
	"genie/internal/health"
	"genie/internal/kvcache"
	"genie/internal/models"
	"genie/internal/runtime"
	"genie/internal/serve"
	"genie/internal/transport"
	"genie/internal/workload"
)

// BrownoutServingConfig parameterizes the fail-slow benchmark: the
// serving engine replays one open-loop arrival schedule four times —
// fully healthy, one lane browned out with the health layer off, the
// same brownout with health scoring on, and a prefill/decode split with
// hedged prefill — and the runs are compared on p99 TTFT, goodput, and
// token bit-identity.
type BrownoutServingConfig struct {
	Backends  int
	MaxBatch  int
	Requests  int
	Rate      float64 // open-loop Poisson arrivals, req/s
	MaxTokens int
	Seed      int64
	// PauseDur is the brownout lever: every conn operation of lane 0
	// stalls this long (chaos PauseEvery=1), turning a millisecond-scale
	// op into a PauseDur-scale one — the "lane slowed ~50×" condition
	// when PauseDur is tens of ms against TinyGPT's sub-ms ops.
	PauseDur time.Duration
	// RetryBudget bounds per-request re-queues in the health-on run
	// (deadline-cancelled ops on the sick lane requeue and burn one).
	RetryBudget int
	// HedgeFloor is the minimum wait before the hedged run's backup
	// prefill launches.
	HedgeFloor time.Duration
}

// DefaultBrownoutServingConfig mirrors the chaos-serving setup with a
// 25ms-per-op brownout on lane 0. The arrival window (64 requests at
// 800/s = 80ms) is deliberately longer than the chaos bench's burst:
// a burst one healthy lane can swallow before the sick lane dequeues
// anything would measure scheduling luck, not the defense.
func DefaultBrownoutServingConfig() BrownoutServingConfig {
	return BrownoutServingConfig{
		Backends:    2,
		MaxBatch:    8,
		Requests:    64,
		Rate:        800,
		MaxTokens:   6,
		Seed:        7,
		PauseDur:    25 * time.Millisecond,
		RetryBudget: 4,
		HedgeFloor:  5 * time.Millisecond,
	}
}

// BrownoutRun is one run's scorecard.
type BrownoutRun struct {
	Name      string
	Completed int64
	// Failed is everything that did not complete: errors, shed, expired,
	// out-of-budget 503s. The fail-slow story stands or falls on this
	// staying zero while the lane crawls.
	Failed      int64
	Requeued    int64
	Unavailable int64
	P50TTFT     time.Duration
	P99TTFT     time.Duration
	Goodput     float64 // tokens/s over the whole run
	Makespan    time.Duration
	// TokensMatch reports whether every request's token stream was
	// bit-identical to the healthy baseline's (fail-slow tolerance must
	// never trade correctness for latency). Always true for the baseline.
	TokensMatch bool
	// Quarantined counts lanes the health layer had quarantined at drain
	// time (health-on runs only).
	Quarantined int
	// Demoted counts lanes the scorer held in any non-healthy state
	// (Suspect and worse) at drain time — often the whole defense: a
	// Suspect lane refuses admission while healthy capacity remains, so
	// no op ever has to be killed.
	Demoted int
	// Hedged/HedgeWins are the hedged run's prefill race counters.
	Hedged    int64
	HedgeWins int64
}

// BrownoutServingResult is the four-run comparison.
type BrownoutServingResult struct {
	Healthy   BrownoutRun // no fault, health off
	HealthOff BrownoutRun // lane 0 browned out, nothing defends
	HealthOn  BrownoutRun // same brownout, health scoring + quarantine
	Hedged    BrownoutRun // split prefill lanes, one browned, hedging on
	ChaosSeed int64
	PauseDur  time.Duration
}

// RunBrownoutServing measures serving under a fail-slow lane. All four
// runs replay the same Poisson arrivals and prompts; token streams are
// checked bit-for-bit against the healthy baseline.
func RunBrownoutServing(ctx context.Context, cfg BrownoutServingConfig) (BrownoutServingResult, error) {
	if cfg.Backends < 2 {
		return BrownoutServingResult{}, fmt.Errorf("eval: brownout needs >= 2 backends, got %d", cfg.Backends)
	}
	out := BrownoutServingResult{ChaosSeed: cfg.Seed, PauseDur: cfg.PauseDur}

	healthy, ref, err := runBrownoutServing(ctx, cfg, brownoutSpec{name: "healthy"})
	if err != nil {
		return out, fmt.Errorf("eval: healthy run: %w", err)
	}
	healthy.TokensMatch = true
	out.Healthy = healthy

	off, offToks, err := runBrownoutServing(ctx, cfg, brownoutSpec{name: "health_off", brown: true})
	if err != nil {
		return out, fmt.Errorf("eval: health-off run: %w", err)
	}
	off.TokensMatch = tokensMatch(ref, offToks)
	out.HealthOff = off

	on, onToks, err := runBrownoutServing(ctx, cfg, brownoutSpec{
		name: "health_on", brown: true, healthOn: true, opTimeout: 2 * time.Second,
	})
	if err != nil {
		return out, fmt.Errorf("eval: health-on run: %w", err)
	}
	on.TokensMatch = tokensMatch(ref, onToks)
	out.HealthOn = on

	hedged, hToks, err := runBrownoutHedged(ctx, cfg)
	if err != nil {
		return out, fmt.Errorf("eval: hedged run: %w", err)
	}
	hedged.TokensMatch = tokensMatch(ref, hToks)
	out.Hedged = hedged
	return out, nil
}

type brownoutSpec struct {
	name     string
	brown    bool // lane 0 gets the per-op pause
	healthOn bool
	// opTimeout caps the adaptive per-op deadline (health-on); zero in
	// the health-off run means no deadline at all — nothing converts the
	// slow lane's crawl into a failure, which is exactly the point.
	opTimeout time.Duration
}

// brownoutBackend builds one in-process backend; a non-nil plan browns
// out the client side of its pipe.
func brownoutBackend(model *models.GPT, plan *chaos.Plan) (*runtime.LLMRunner, *transport.Client, func()) {
	rawC, rawS := net.Pipe()
	var clientSide net.Conn = rawC
	if plan != nil {
		clientSide = plan.WrapConn(rawC)
	}
	cconn := transport.NewConn(clientSide, nil, nil)
	sconn := transport.NewConn(rawS, nil, nil)
	bs := backend.NewServer(device.A100)
	go func() { _ = bs.Serve(sconn) }()
	cli := transport.NewClient(cconn)
	r := &runtime.LLMRunner{Model: model, EP: cli}
	return r, cli, func() { _ = cconn.Close(); _ = sconn.Close() }
}

// runBrownoutServing drives one engine run and returns its scorecard
// plus the per-request token streams.
func runBrownoutServing(ctx context.Context, cfg BrownoutServingConfig, spec brownoutSpec) (BrownoutRun, [][]int64, error) {
	run := BrownoutRun{Name: spec.name}
	var plan *chaos.Plan
	if spec.brown {
		plan = chaos.NewPlan(cfg.Seed, chaos.Config{PauseEvery: 1, PauseDur: cfg.PauseDur})
		plan.SetActive(false) // clean weight install; armed after NewEngine
	}
	var pool []serve.Backend
	var stops []func()
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	for i := 0; i < cfg.Backends; i++ {
		var lanePlan *chaos.Plan
		if i == 0 {
			lanePlan = plan
		}
		model := models.NewGPT(rand.New(rand.NewSource(cfg.Seed)), models.TinyGPT)
		r, _, stop := brownoutBackend(model, lanePlan)
		stops = append(stops, stop)
		pool = append(pool, serve.Backend{Name: fmt.Sprintf("b%d", i), Runner: r})
	}
	var hs *health.Set
	if spec.healthOn {
		// MinSamples 3: the bench run is a few hundred ms, and a browned
		// lane produces evidence slowly (each judged op costs its full
		// crawl, then a trip parks the lane between attempts). The
		// production default of 8 suits long-lived serving; here it would
		// let the run end before the verdict. DeadlineFactor 2 tightens
		// the adaptive op deadline for the same reason: the victims of
		// the sick lane pay that deadline once in their TTFT.
		hs = health.NewSet(health.Config{MinSamples: 3, DeadlineFactor: 2})
	}
	engine, err := serve.NewEngine(serve.Config{
		Mode:        runtime.ModeSemAware,
		MaxQueue:    cfg.Requests,
		MaxBatch:    cfg.MaxBatch,
		RetryBudget: cfg.RetryBudget,
		OpTimeout:   spec.opTimeout,
		Health:      hs,
		// 10ms floor (vs the 50ms default): TinyGPT ops are sub-ms, so
		// even this floor is 10× the healthy worst case.
		HealthOpFloor: 10 * time.Millisecond,
	}, pool)
	if err != nil {
		return run, nil, err
	}
	if plan != nil {
		plan.SetActive(true)
	}
	engine.Start()
	defer engine.Stop()

	toks, makespan, err := replayArrivals(ctx, engine, cfg)
	if err != nil {
		return run, nil, err
	}
	st := engine.Stats()
	run.Completed = st.Completed
	run.Failed = int64(cfg.Requests) - st.Completed
	run.Requeued = st.Requeued
	run.Unavailable = st.Unavailable
	run.P50TTFT = st.TTFT.P50
	run.P99TTFT = st.TTFT.P99
	run.Goodput = st.TokensPerSec
	run.Makespan = makespan
	if hs != nil {
		for _, eh := range hs.Snapshot() {
			if eh.Quarantined {
				run.Quarantined++
			}
			if eh.State != "healthy" {
				run.Demoted++
			}
		}
	}
	return run, toks, nil
}

// runBrownoutHedged drives the prefill/decode split arrangement: two
// prefill lanes (one browned out) behind hedged prefill plus a healthy
// decode backend form one engine lane; a second plain healthy backend
// keeps the engine at the baseline's two lanes, so TTFT differences
// come from hedging, not from halved capacity.
func runBrownoutHedged(ctx context.Context, cfg BrownoutServingConfig) (BrownoutRun, [][]int64, error) {
	run := BrownoutRun{Name: "hedged"}
	model := models.NewGPT(rand.New(rand.NewSource(cfg.Seed)), models.TinyGPT)
	plan := chaos.NewPlan(cfg.Seed, chaos.Config{PauseEvery: 1, PauseDur: cfg.PauseDur})
	plan.SetActive(false)

	_, slowCli, stopSlow := brownoutBackend(model, plan)
	_, fastCli, stopFast := brownoutBackend(model, nil)
	_, decCli, stopDec := brownoutBackend(model, nil)
	plainRunner, _, stopPlain := brownoutBackend(model, nil)
	defer stopSlow()
	defer stopFast()
	defer stopDec()
	defer stopPlain()

	hs := health.NewSet(health.Config{MinSamples: 3})
	sp, err := kvcache.NewSplit(kvcache.SplitConfig{
		Model:  model,
		Decode: decCli,
		Lanes: []kvcache.PrefillLane{
			{Name: "pf-slow", EP: slowCli},
			{Name: "pf-spare", EP: fastCli},
		},
		Health:     hs,
		HedgeFloor: cfg.HedgeFloor,
	})
	if err != nil {
		return run, nil, err
	}
	if err := sp.InstallWeights(); err != nil {
		return run, nil, err
	}
	engine, err := serve.NewEngine(serve.Config{
		Mode:        runtime.ModeSemAware,
		MaxQueue:    cfg.Requests,
		MaxBatch:    cfg.MaxBatch,
		RetryBudget: cfg.RetryBudget,
		OpTimeout:   2 * time.Second,
	}, []serve.Backend{
		{Name: "split", Runner: sp.Runner()},
		{Name: "plain", Runner: plainRunner},
	})
	if err != nil {
		return run, nil, err
	}
	plan.SetActive(true)
	engine.Start()
	defer engine.Stop()

	toks, makespan, err := replayArrivals(ctx, engine, cfg)
	if err != nil {
		return run, nil, err
	}
	st := engine.Stats()
	run.Completed = st.Completed
	run.Failed = int64(cfg.Requests) - st.Completed
	run.Requeued = st.Requeued
	run.Unavailable = st.Unavailable
	run.P50TTFT = st.TTFT.P50
	run.P99TTFT = st.TTFT.P99
	run.Goodput = st.TokensPerSec
	run.Makespan = makespan
	run.Hedged = sp.Hedged()
	run.HedgeWins = sp.HedgeWins()
	for _, eh := range hs.Snapshot() {
		if eh.Quarantined {
			run.Quarantined++
		}
		if eh.State != "healthy" {
			run.Demoted++
		}
	}
	return run, toks, nil
}

// replayArrivals submits the configured Poisson stream and drains,
// returning per-request token streams and the makespan.
func replayArrivals(ctx context.Context, engine *serve.Engine, cfg BrownoutServingConfig) ([][]int64, time.Duration, error) {
	arrivals := workload.PoissonArrivals(cfg.Seed, cfg.Rate, cfg.Requests)
	prompts := workload.LLMTrace{
		Requests: cfg.Requests, Vocab: int(models.TinyGPT.Vocab),
		PromptMin: 4, PromptMax: 12, DecodeMin: cfg.MaxTokens, DecodeMax: cfg.MaxTokens,
	}.Generate(cfg.Seed)
	toks := make([][]int64, cfg.Requests)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(arrivals[i] - time.Since(start))
			res, err := engine.Submit(ctx, serve.Request{
				Tenant:    fmt.Sprintf("t%d", i%4),
				Prompt:    prompts[i].Prompt,
				MaxTokens: cfg.MaxTokens,
			})
			if err == nil {
				toks[i] = res.Tokens
			}
		}(i)
	}
	wg.Wait()
	drainCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := engine.Drain(drainCtx); err != nil {
		return nil, 0, fmt.Errorf("drain: %w", err)
	}
	return toks, time.Since(start), nil
}

// tokensMatch compares per-request token streams against the baseline.
// Requests missing from either side (failed) count as mismatches.
func tokensMatch(ref, got [][]int64) bool {
	return slices.EqualFunc(ref, got, slices.Equal[[]int64])
}
