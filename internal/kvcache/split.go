package kvcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"genie/internal/health"
	"genie/internal/lazy"
	"genie/internal/models"
	"genie/internal/nn"
	"genie/internal/obs"
	"genie/internal/runtime"
	"genie/internal/srg"
	"genie/internal/tensor"
	"genie/internal/transport"
)

// SplitConfig wires a prefill/decode disaggregated runner: prefill is
// compute-bound (quadratic attention over the prompt), decode is
// bandwidth-bound (weights + KV per token), so the two phases want
// different backends. Only the semantics-aware ΔKV delta — the fresh
// suffix rows — crosses the boundary; a cache-hit prefix is re-sent as a
// dedup-hinted bind that collapses to a 32-byte hash once the decode
// connection has seen it.
type SplitConfig struct {
	Model *models.GPT
	// Prefill executes prompt passes; its KV state is throwaway (nothing
	// is kept resident there).
	Prefill runtime.Endpoint
	// Decode executes decode steps; handed-off KV lives here under the
	// session's scoped keys.
	Decode runtime.Endpoint
	// DecodeCounters, when set, feeds the runner's traffic metrics (point
	// it at the decode connection).
	DecodeCounters *transport.Counters
	// Cache, when set, is the shared prefix cache consulted before
	// prefill. Nil disaggregates without prefix reuse.
	Cache *Manager
	// Metrics receives the ΔKV handoff series; nil keeps a private
	// registry.
	Metrics *obs.Registry

	// Lanes optionally names a pool of prefill endpoints. When set,
	// Prefill may be nil; each request's primary is the healthiest lane
	// (per Health) or the first lane. Two or more lanes unlock hedging.
	Lanes []PrefillLane
	// Health, when set, ranks lanes per request, derives the adaptive
	// hedge deadline, and is fed every prefill exec's latency/outcome —
	// the same scorer the serving engine and pool consume.
	Health *health.Set
	// HedgePrefill issues the prefill to a second lane when the first
	// has not answered within the adaptive deadline; the first result
	// wins, the loser is cancelled (deliberately poisoning its conn —
	// the fail-slow lane becomes fail-stop and its lane gate sees it),
	// and exactly one result reaches the prefix cache.
	HedgePrefill bool
	// HedgeFloor is the minimum wait before hedging (default 25ms); the
	// adaptive deadline (health.Config.HedgeFactor × the healthiest
	// lane's EWMA) never drops below it.
	HedgeFloor time.Duration
}

// PrefillLane is one named member of the prefill pool.
type PrefillLane struct {
	Name string
	EP   runtime.Endpoint
}

// Split runs prefill and decode on different backends, shipping the ΔKV
// suffix between them. To the session core it is a placement
// (runtime.Placement): prefill hops go to the lane pool and are followed
// by the handoff, decode hops go to Decode, where the session's scoped
// keys live. Its routes carry no Repair: a failed prefill surfaces to
// the caller (the serving engine re-queues the request elsewhere), and a
// hedged prefill already covers a slow lane.
type Split struct {
	cfg          SplitConfig
	deltaBytes   *obs.Counter
	deltaTokens  *obs.Counter
	hedged       *obs.Counter
	hedgeWins    *obs.Counter
	hedgeCancels *obs.Counter
	// laneCall serializes the raced execs on one lane: a connection
	// carries one call at a time, and the cancelled loser of an earlier
	// race may still be unwinding on it when the next request arrives.
	laneCall map[string]*sync.Mutex
}

// NewSplit validates the wiring.
func NewSplit(cfg SplitConfig) (*Split, error) {
	if cfg.Model == nil || cfg.Decode == nil || (cfg.Prefill == nil && len(cfg.Lanes) == 0) {
		return nil, fmt.Errorf("kvcache: split needs a model, a decode endpoint, and a prefill endpoint or lanes")
	}
	for _, ln := range cfg.Lanes {
		if ln.Name == "" || ln.EP == nil {
			return nil, fmt.Errorf("kvcache: every prefill lane needs a name and an endpoint")
		}
	}
	if cfg.HedgeFloor <= 0 {
		cfg.HedgeFloor = 25 * time.Millisecond
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	laneCall := make(map[string]*sync.Mutex, len(cfg.Lanes))
	for _, ln := range cfg.Lanes {
		laneCall[ln.Name] = new(sync.Mutex)
	}
	return &Split{
		cfg:         cfg,
		laneCall:    laneCall,
		deltaBytes:  reg.Counter("genie_kvcache_split_delta_bytes_total", "KV suffix bytes handed prefill->decode"),
		deltaTokens: reg.Counter("genie_kvcache_split_delta_tokens_total", "KV suffix tokens handed prefill->decode"),
		hedged: reg.Counter("genie_kvcache_hedged_prefills_total",
			"prefills issued to a second lane past the adaptive deadline"),
		hedgeWins: reg.Counter("genie_kvcache_hedge_wins_total",
			"hedged prefills won by the backup lane"),
		hedgeCancels: reg.Counter("genie_kvcache_hedge_cancelled_total",
			"losing hedge execs cancelled in flight"),
	}, nil
}

// Hedged/HedgeWins/HedgeCancelled report hedged-prefill activity.
func (sp *Split) Hedged() int64         { return sp.hedged.Value() }
func (sp *Split) HedgeWins() int64      { return sp.hedgeWins.Value() }
func (sp *Split) HedgeCancelled() int64 { return sp.hedgeCancels.Value() }

// InstallWeights provisions both endpoints with the model weights.
func (sp *Split) InstallWeights() error {
	eps := []runtime.Endpoint{sp.cfg.Decode}
	if sp.cfg.Prefill != nil {
		eps = append(eps, sp.cfg.Prefill)
	}
	for _, ln := range sp.cfg.Lanes {
		eps = append(eps, ln.EP)
	}
	for _, ep := range eps {
		r := &runtime.LLMRunner{Model: sp.cfg.Model, EP: ep}
		if _, err := r.InstallModelWeights(); err != nil {
			return err
		}
	}
	return nil
}

// rankedLanes orders the prefill pool for this request: healthiest
// first when a scorer is wired, configured order otherwise. Without
// named lanes the single Prefill endpoint is the whole pool.
func (sp *Split) rankedLanes() []PrefillLane {
	if len(sp.cfg.Lanes) == 0 {
		return []PrefillLane{{Name: "prefill", EP: sp.cfg.Prefill}}
	}
	if sp.cfg.Health == nil {
		return sp.cfg.Lanes
	}
	names := make([]string, len(sp.cfg.Lanes))
	byName := make(map[string]PrefillLane, len(sp.cfg.Lanes))
	for i, ln := range sp.cfg.Lanes {
		names[i] = ln.Name
		byName[ln.Name] = ln
	}
	ranked := sp.cfg.Health.Healthiest(names)
	out := make([]PrefillLane, 0, len(ranked))
	for _, n := range ranked {
		out = append(out, byName[n])
	}
	return out
}

// execOnLane runs one prefill exec on a lane and feeds the result to
// the health scorer. A cancelled exec — the losing half of a hedge — is
// not held against the lane's latency EWMA: the duration measures our
// patience, not the lane.
func (sp *Split) execOnLane(ctx context.Context, ln PrefillLane, ex *transport.Exec) (*transport.ExecOK, error) {
	t0 := time.Now()
	ok, err := runtime.ExecEP(ctx, ln.EP, ex)
	if sp.cfg.Health != nil && !errors.Is(err, context.Canceled) {
		sp.cfg.Health.Endpoint(ln.Name).Observe(time.Since(t0), err != nil)
	}
	return ok, err
}

// execPrefill dispatches the phase-1 exec: straight through on a single
// lane, hedged across the two healthiest when enabled. Exactly one
// ExecOK ever comes back, so downstream cache insertion and ΔKV handoff
// see one winner no matter how many lanes raced.
func (sp *Split) execPrefill(ctx context.Context, ex *transport.Exec) (*transport.ExecOK, error) {
	lanes := sp.rankedLanes()
	if !sp.cfg.HedgePrefill || len(lanes) < 2 {
		return sp.execOnLane(ctx, lanes[0], ex)
	}
	return sp.hedgeExec(ctx, lanes[0], lanes[1], ex)
}

// hedgeExec races the primary lane against a backup: the backup
// launches when the primary misses the adaptive deadline (or fails
// outright), the first success wins, and the loser's exec is cancelled
// mid-flight. Cancellation poisons the loser's conn by design — that is
// the fail-slow → fail-stop conversion: a browned-out lane that would
// otherwise stay wedged now fails its next call fast and its lane
// gate reacts. Both workers send to a buffered channel, so
// the loser always runs to completion and nothing leaks.
func (sp *Split) hedgeExec(ctx context.Context, primary, backup PrefillLane, ex *transport.Exec) (*transport.ExecOK, error) {
	if ctx == nil {
		//lint:ignore ctxflow nil-context fallback, not a propagation hole
		ctx = context.Background()
	}
	// The loser outlives this call — it may not even have encoded the exec
	// when the winner returns — and the gathered prefix it binds is arena
	// scratch the caller recycles right after. The lanes race a copy whose
	// prefix binds own their memory.
	raced := *ex
	raced.Binds = append([]transport.Binding(nil), ex.Binds...)
	for i := range raced.Binds {
		if raced.Binds[i].Cache {
			raced.Binds[i].Inline = raced.Binds[i].Inline.Clone()
		}
	}
	ex = &raced
	deadline := sp.cfg.HedgeFloor
	if sp.cfg.Health != nil {
		deadline = sp.cfg.Health.HedgeDeadline(sp.cfg.HedgeFloor)
	}
	type result struct {
		ok     *transport.ExecOK
		err    error
		backup bool
	}
	ch := make(chan result, 2)
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	launch := func(ln PrefillLane, isBackup bool) {
		go func() {
			call := sp.laneCall[ln.Name]
			call.Lock()
			ok, err := sp.execOnLane(hctx, ln, ex)
			call.Unlock()
			ch <- result{ok, err, isBackup}
		}()
	}
	launch(primary, false)
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	pending, hedgedNow := 1, false
	var firstErr error
	for {
		select {
		case r := <-ch:
			pending--
			if r.err == nil {
				if r.backup {
					sp.hedgeWins.Inc()
				}
				if pending > 0 {
					// The loser is still in flight: cancel it. The deferred
					// cancel would fire anyway; counting here keeps the
					// metric honest about in-flight cancellations only.
					cancel()
					sp.hedgeCancels.Inc()
				}
				return r.ok, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if !hedgedNow {
				// The primary failed before the deadline: hedge immediately
				// rather than waiting out a timer nobody is racing.
				hedgedNow = true
				pending++
				sp.hedged.Inc()
				launch(backup, true)
				continue
			}
			if pending == 0 {
				return nil, firstErr
			}
		case <-timer.C:
			if !hedgedNow {
				hedgedNow = true
				pending++
				sp.hedged.Inc()
				launch(backup, true)
			}
		}
	}
}

// DeltaBytes reports total KV bytes shipped across the phase boundary —
// by construction exactly suffixTokens × Model.Cfg.KVBytesPerToken().
func (sp *Split) DeltaBytes() int64 { return sp.deltaBytes.Value() }

// DeltaTokens reports total suffix tokens handed off.
func (sp *Split) DeltaTokens() int64 { return sp.deltaTokens.Value() }

// Runner returns the disaggregated LLMRunner. The runner's EP and
// counters point at the decode side (where sessions live); weights must
// already be installed on both endpoints (InstallWeights).
func (sp *Split) Runner() *runtime.LLMRunner {
	var cache runtime.PrefixCache
	if sp.cfg.Cache != nil {
		cache = sp.cfg.Cache
	}
	return runtime.NewPlacedRunner(runtime.LLMRunner{
		Model:           sp.cfg.Model,
		EP:              sp.cfg.Decode,
		Counters:        sp.cfg.DecodeCounters,
		WeightsResident: true,
	}, splitPlacement{sp}, cache)
}

// splitPlacement is the split as the session core sees it.
type splitPlacement struct{ sp *Split }

// Route sends a prefill hop to the lane pool — throwaway: nothing is
// kept resident there, the core wants only the next token and the fresh
// suffix rows, and the handoff follows — and a decode hop to Decode.
func (p splitPlacement) Route(prefill bool, _ int) (runtime.Route, error) {
	rt := runtime.Route{Hi: p.sp.cfg.Model.Cfg.Layers, EP: p.sp.cfg.Decode}
	if prefill {
		rt.EP, rt.Handoff = prefillLanes(p), p.sp.handoff
	}
	return rt, nil
}

func (p splitPlacement) Free(key string) error { return p.sp.cfg.Decode.Free(key) }

// prefillLanes presents the lane pool as the one executor a prefill hop
// is routed to; which lane runs it (and whether a second one races it)
// is decided per call.
type prefillLanes struct{ sp *Split }

func (l prefillLanes) Exec(x *transport.Exec) (*transport.ExecOK, error) {
	return l.sp.execPrefill(nil, x)
}

func (l prefillLanes) ExecCtx(ctx context.Context, x *transport.Exec) (*transport.ExecOK, error) {
	return l.sp.execPrefill(ctx, x)
}

// handoff is the ΔKV handoff: one exec on the decode backend assembles
// prefix ++ suffix into the session's scoped resident keys. The suffix
// rows are the only novel content — the analytic per-token KV delta; the
// prefix bind is dedup-hinted, so once this decode connection has seen a
// shared prefix it re-transfers as a 32-byte hash. prefix is nil on a
// cache miss or when no cache is configured.
func (sp *Split) handoff(ctx context.Context, scope string, prefix []*nn.KVCache, suffixK, suffixV []*tensor.Tensor) (*transport.ExecOK, error) {
	hb := lazy.NewBuilder("kvcache.handoff")
	hb.SetModality(srg.ModalityText)
	hx := &transport.Exec{Keep: map[srg.NodeID]string{}}
	var delta int64
	for i := range suffixK {
		halves := [2]struct {
			name           string
			prefix, suffix *tensor.Tensor
		}{{name: "k", suffix: suffixK[i]}, {name: "v", suffix: suffixV[i]}}
		if prefix != nil {
			halves[0].prefix, halves[1].prefix = prefix[i].K, prefix[i].V
		}
		for _, half := range halves {
			parts := make([]lazy.Value, 0, 2)
			if half.prefix != nil {
				ref := fmt.Sprintf("prefix.%d.%s", i, half.name)
				parts = append(parts, hb.Input(ref, half.prefix))
				hx.Binds = append(hx.Binds, transport.Binding{Ref: ref, Inline: half.prefix, Cache: true})
			}
			ref := fmt.Sprintf("suffix.%d.%s", i, half.name)
			parts = append(parts, hb.Input(ref, half.suffix))
			hx.Binds = append(hx.Binds, transport.Binding{Ref: ref, Inline: half.suffix})
			full := hb.Concat(0, parts...)
			hb.MarkOutput(full)
			hx.Keep[full.ID()] = scope + models.CacheRef(i, half.name)
			delta += int64(half.suffix.NumBytes())
		}
	}
	hx.Graph = hb.Graph()
	hok, err := runtime.ExecEP(ctx, sp.cfg.Decode, hx)
	if err != nil {
		return nil, err
	}
	sp.deltaBytes.Add(delta)
	sp.deltaTokens.Add(int64(suffixK[0].Shape()[0]))
	return hok, nil
}
