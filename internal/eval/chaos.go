package eval

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"genie/internal/backend"
	"genie/internal/chaos"
	"genie/internal/device"
	"genie/internal/models"
	"genie/internal/runtime"
	"genie/internal/serve"
	"genie/internal/transport"
	"genie/internal/workload"
)

// ChaosServingConfig parameterizes the fault-tolerance benchmark: the
// online engine serves an open-loop arrival stream twice — once
// fault-free, once with one backend crashing mid-run — and the two
// runs are compared on goodput and recovery time.
type ChaosServingConfig struct {
	Mode     runtime.Mode
	Backends int
	MaxBatch int
	// Requests and Rate define the open-loop Poisson stream (req/s).
	Requests  int
	Rate      float64
	MaxTokens int
	Seed      int64
	// CrashExecAt crashes backend 0 (epoch bump + store wipe, the
	// server keeps answering) at its Nth exec call of the faulted run.
	CrashExecAt int64
	// RetryBudget bounds re-queues per request after backend loss.
	RetryBudget int
}

// DefaultChaosServingConfig mirrors the A10 online-serving setup with
// one mid-run backend crash. GENIE_CHAOS_SEED overrides the fault
// schedule seed at run time (see chaos.FromEnv).
func DefaultChaosServingConfig() ChaosServingConfig {
	return ChaosServingConfig{
		Mode:        runtime.ModeSemAware,
		Backends:    2,
		MaxBatch:    8,
		Requests:    24,
		Rate:        2000,
		MaxTokens:   6,
		Seed:        7,
		CrashExecAt: 40,
		RetryBudget: 2,
	}
}

// ChaosServingResult compares the faulted run against its fault-free
// baseline on the same arrival schedule.
type ChaosServingResult struct {
	Baseline OnlineServingResult
	Faulted  OnlineServingResult
	// Requeued / Unavailable are the faulted run's failover counters:
	// re-queues after backend loss, and requests shed 503 past budget.
	Requeued    int64
	Unavailable int64
	// ChaosSeed is the fault schedule seed (print it: a failure replays
	// with GENIE_CHAOS_SEED set to this value).
	ChaosSeed int64
	// Injected counts faults by kind as actually delivered.
	Injected map[string]int64
	// CrashAt is when backend 0 died, relative to run start; Recovery
	// is the gap from the crash to the next completed request — the
	// time the engine needed to re-queue, re-admit, and regenerate on a
	// healthy lane.
	CrashAt  time.Duration
	Recovery time.Duration
	// TokensMatch reports whether every request the faulted run
	// completed carries exactly the baseline's tokens: recovery rebuilds
	// lost decode state by one prefill over the token log, so a crash may
	// cost time but never a different token.
	TokensMatch bool
}

// RunChaosServing measures serving goodput under a mid-run backend
// crash against a fault-free baseline. Both runs replay the same
// Poisson arrivals and prompts; the faulted run arms a deterministic
// chaos plan that kills backend 0 at its CrashExecAt-th exec call.
func RunChaosServing(ctx context.Context, cfg ChaosServingConfig) (ChaosServingResult, error) {
	if cfg.Backends < 2 {
		return ChaosServingResult{}, fmt.Errorf("eval: chaos needs >= 2 backends, got %d", cfg.Backends)
	}
	if cfg.Mode == runtime.ModeLocal {
		return ChaosServingResult{}, fmt.Errorf("eval: chaos needs a remote mode (nothing to crash locally)")
	}
	out := ChaosServingResult{}

	base, baseProbe, err := runOnce(ctx, cfg, nil)
	if err != nil {
		return out, fmt.Errorf("eval: baseline run: %w", err)
	}
	out.Baseline = base

	plan := chaos.FromEnv(chaos.Config{CrashExecAt: cfg.CrashExecAt})
	out.ChaosSeed = plan.Seed()
	faulted, probe, err := runOnce(ctx, cfg, plan)
	if err != nil {
		return out, fmt.Errorf("eval: faulted run: %w", err)
	}
	out.Faulted = faulted
	out.Injected = plan.Injected()
	out.Requeued = probe.requeued
	out.Unavailable = probe.unavailable
	out.CrashAt = probe.crashAt
	out.Recovery = probe.recovery
	out.TokensMatch = completedMatch(baseProbe.tokens, probe.tokens)
	return out, nil
}

// chaosProbe carries a run's per-request tokens (nil where the request
// failed) and the faulted run's failure-path observations.
type chaosProbe struct {
	tokens      [][]int64
	requeued    int64
	unavailable int64
	crashAt     time.Duration
	recovery    time.Duration
}

// completedMatch reports whether every completed request in got (a
// non-nil stream) equals the same request's stream in ref.
func completedMatch(ref, got [][]int64) bool {
	for i, toks := range got {
		if toks != nil && !slices.Equal(ref[i], toks) {
			return false
		}
	}
	return true
}

// runOnce drives one engine run over the configured arrival stream.
// With a non-nil plan, backend 0 crashes per the plan's schedule and
// the probe reports when, plus how long the first post-crash completion
// took to land.
func runOnce(ctx context.Context, cfg ChaosServingConfig, plan *chaos.Plan) (OnlineServingResult, chaosProbe, error) {
	var probe chaosProbe
	var pool []serve.Backend
	var mu sync.Mutex
	start := time.Now()
	for i := 0; i < cfg.Backends; i++ {
		r := &runtime.LLMRunner{
			Model: models.NewGPT(rand.New(rand.NewSource(cfg.Seed)), models.TinyGPT),
		}
		cli, srvConn := transport.Pipe(nil, nil)
		bs := backend.NewServer(device.A100)
		if plan != nil && i == 0 {
			crash := func() {
				bs.Crash()
				mu.Lock()
				probe.crashAt = time.Since(start)
				mu.Unlock()
			}
			bs.SetExecHook(plan.ExecHook(crash))
		}
		go func() { _ = bs.Serve(srvConn) }()
		defer cli.Close()
		r.EP = transport.NewClient(cli)
		r.Counters = cli.Counters()
		pool = append(pool, serve.Backend{Name: fmt.Sprintf("b%d", i), Runner: r})
	}
	engine, err := serve.NewEngine(serve.Config{
		Mode:        cfg.Mode,
		MaxQueue:    cfg.Requests,
		MaxBatch:    cfg.MaxBatch,
		RetryBudget: cfg.RetryBudget,
		// Generous guard against a truly hung peer; fault-free ops finish
		// in milliseconds.
		OpTimeout: 2 * time.Second,
	}, pool)
	if err != nil {
		return OnlineServingResult{}, probe, err
	}
	engine.Start()
	defer engine.Stop()

	arrivals := workload.PoissonArrivals(cfg.Seed, cfg.Rate, cfg.Requests)
	prompts := workload.LLMTrace{
		Requests: cfg.Requests, Vocab: int(models.TinyGPT.Vocab),
		PromptMin: 4, PromptMax: 12, DecodeMin: cfg.MaxTokens, DecodeMax: cfg.MaxTokens,
	}.Generate(cfg.Seed)

	// start predates backend setup by microseconds; close enough for the
	// crash/recovery offsets, and it keeps one clock for everything.
	var wg sync.WaitGroup
	var firstAfterCrash time.Duration
	probe.tokens = make([][]int64, cfg.Requests)
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
			if err != nil {
				return
			}
			done := time.Since(start)
			mu.Lock()
			probe.tokens[i] = res.Tokens
			if probe.crashAt > 0 && done > probe.crashAt &&
				(firstAfterCrash == 0 || done < firstAfterCrash) {
				firstAfterCrash = done
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	drainCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := engine.Drain(drainCtx); err != nil {
		return OnlineServingResult{}, probe, fmt.Errorf("drain: %w", err)
	}
	makespan := time.Since(start)

	st := engine.Stats()
	probe.requeued = st.Requeued
	probe.unavailable = st.Unavailable
	if firstAfterCrash > 0 {
		probe.recovery = firstAfterCrash - probe.crashAt
	}
	return OnlineServingResult{
		Requests:      cfg.Requests,
		Completed:     st.Completed,
		Shed:          st.Shed,
		MeanOccupancy: st.MeanOccupancy,
		MaxOccupancy:  st.MaxOccupancy,
		P50Lat:        st.Latency.P50,
		P95Lat:        st.Latency.P95,
		P95TTFT:       st.TTFT.P95,
		TokensPerSec:  st.TokensPerSec,
		Makespan:      makespan,
	}, probe, nil
}
