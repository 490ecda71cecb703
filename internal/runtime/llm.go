package runtime

import (
	"context"
	"fmt"
	"time"

	"genie/internal/models"
	"genie/internal/nn"
	"genie/internal/srg"
	"genie/internal/tensor"
	"genie/internal/transport"
)

// GenResult is the outcome of one generation run.
type GenResult struct {
	// Tokens are the generated token ids (length = requested steps).
	Tokens []int64
	// Prefill and Decode carry per-phase metrics, reported separately as
	// in Table 2.
	Prefill Metrics
	Decode  Metrics
}

// LLMRunner generates tokens from a GPT model under a chosen
// disaggregation mode. The same runner produces bit-identical token
// sequences in every mode (greedy decoding over deterministic kernels),
// which is the correctness check the cost-only simulation cannot give.
type LLMRunner struct {
	Model *models.GPT
	// EP is the remote accelerator (nil is allowed for ModeLocal).
	EP Endpoint
	// Counters, when set, measures wire traffic (point it at the
	// endpoint's connection counters).
	Counters *transport.Counters
	// OnToken, when set, observes each generated token as its decode
	// step completes; returning false stops generation (the Stream API's
	// cancellation hook).
	OnToken func(token int64) bool
	// WeightsResident marks the endpoint as already provisioned with the
	// model's weights (InstallModelWeights); sessions then skip the
	// per-call installation. The serving engine sets this once per
	// backend so concurrent sessions don't re-upload weights.
	WeightsResident bool

	// placement and prefix are what the constructor that built the runner
	// knows and the session core cannot (NewPlacedRunner); nil on a
	// literal: every hop spans the model on EP, no prefix reuse.
	placement Placement
	prefix    PrefixCache
}

// Placement answers, for a runner whose sessions span several
// endpoints, the one question the session core cannot: who executes a
// hop right now. kvcache's prefill/decode split and pool's shard plan
// implement it; both leave building, binding and dispatching the hop to
// the core.
type Placement interface {
	// Route returns where the hop starting at block lo runs under the
	// current plan. prefill says which phase the pass belongs to.
	Route(prefill bool, lo int) (Route, error)
	// Free releases one of a session's scoped KV keys wherever it lives.
	Free(key string) error
}

// Route is a placement's answer for one hop.
type Route struct {
	// Hi ends the hop: it covers blocks [lo, Hi), plus the embeddings when
	// lo is 0 and the head when Hi is the layer count.
	Hi int
	// EP executes it.
	EP Executor
	// Repair, when set, repairs this answer after EP fails with err (the
	// pool evicts the member and re-plans). A nil return means the pass
	// may restart from hop 0, the session first rebuilding any state the
	// failure lost (Session.forward); nil Repair surfaces err unchanged.
	Repair func(err error) error
	// Handoff, when set, marks EP as a throwaway prefill site: the hop
	// keeps nothing there, brings the fresh KV rows home, and Handoff
	// installs prefix ++ rows under the session's scoped keys on the
	// endpoint that will decode, returning that exec's reply.
	Handoff func(ctx context.Context, scope string, prefix []*nn.KVCache, newK, newV []*tensor.Tensor) (*transport.ExecOK, error)
}

// PrefixCache is the radix prefix plane as prefill sees it.
type PrefixCache interface {
	// Match finds and pins the longest cached prefix of prompt.
	Match(prompt []int64) (PrefixHit, error)
}

// PrefixHit is one Match result.
type PrefixHit struct {
	// Matched is the cached prefix length (0 on a miss, at most
	// len(prompt)-1 so a suffix always runs); KV holds its gathered
	// per-layer state, nil on a miss.
	Matched int
	KV      []*nn.KVCache
	// Commit must be called exactly once. With the suffix pass's fresh
	// per-layer rows it inserts them and returns the release of the pin
	// the session holds for its lifetime; with nil rows (the pass failed)
	// it only releases what Match pinned and gathered.
	Commit func(newK, newV []*tensor.Tensor) (unpin func(), err error)
}

// NewPlacedRunner is the constructor behind kvcache's and pool's
// Runner methods: base's sessions ask p who executes each hop (nil: EP
// runs the whole model) and wrap prefill in c (nil: no prefix reuse).
func NewPlacedRunner(base LLMRunner, p Placement, c PrefixCache) *LLMRunner {
	base.placement, base.prefix = p, c
	return &base
}

// Generate runs prompt prefill plus steps decode iterations. It is
// exactly Prefill + steps×Step over a fresh unscoped Session, so a
// Generate call and an incrementally-driven session produce identical
// token sequences.
func (r *LLMRunner) Generate(mode Mode, prompt []int64, steps int) (*GenResult, error) {
	if len(prompt) == 0 || steps < 0 {
		return nil, fmt.Errorf("runtime: empty prompt or negative steps")
	}
	s, err := r.NewSession(mode)
	if err != nil {
		return nil, err
	}
	// Unscoped, so the caches stay for the next call; this drops the
	// prefix-cache pin.
	defer func() { _ = s.Close() }()
	if _, err := s.Prefill(prompt); err != nil {
		return nil, err
	}
	res := s.Result()
	for i := 0; i < steps; i++ {
		tok := s.Next()
		res.Tokens = append(res.Tokens, tok)
		if err := r.emit(tok); err != nil {
			return res, err
		}
		// The final token needs no further forward pass.
		if i < steps-1 {
			if _, err := s.Step(); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

func (r *LLMRunner) snapshot() (int64, int64) {
	if r.Counters == nil {
		return 0, 0
	}
	sent, recv, calls := r.Counters.Snapshot()
	return sent + recv, calls
}

// measure wraps a phase and fills its metrics from wall clock, counters,
// and accumulated GPU time.
func (r *LLMRunner) measure(m *Metrics, gpu *time.Duration, fn func() error) error {
	b0, c0 := r.snapshot()
	g0 := *gpu
	start := time.Now()
	err := fn()
	m.Wall += time.Since(start)
	b1, c1 := r.snapshot()
	m.NetBytes += b1 - b0
	m.RPCCalls += c1 - c0
	m.GPUBusy += *gpu - g0
	return err
}

// modelGPUTime accounts local kernel time with the same device model the
// backend uses (the client's GPU in Local mode is the same A100).
func modelGPUTime(b interface {
	Graph() *srg.Graph
}) time.Duration {
	// Local mode models the client machine owning the accelerator; use
	// the A100 spec (matching the paper's local baseline).
	var busy time.Duration
	for _, n := range b.Graph().Nodes() {
		if n.Op == "param" || n.Op == "input" {
			continue
		}
		busy += localSpec.KernelTime(n.Cost.FLOPs, n.Cost.Bytes)
	}
	return busy
}

// InstallModelWeights provisions the runner's endpoint with every model
// parameter under its unscoped ref and marks the runner so sessions skip
// re-installation. Returns total bytes installed.
func (r *LLMRunner) InstallModelWeights() (int64, error) {
	if r.EP == nil {
		return 0, fmt.Errorf("runtime: no endpoint to install weights on")
	}
	n, err := r.installAllWeights()
	if err != nil {
		return n, err
	}
	r.WeightsResident = true
	return n, nil
}

// ensureWeights provisions weights unless the caller already did.
func (r *LLMRunner) ensureWeights() error {
	if r.WeightsResident {
		return nil
	}
	_, err := r.installAllWeights()
	return err
}

func (r *LLMRunner) installAllWeights() (int64, error) {
	// Capture one throwaway prefill to enumerate params.
	b, _ := r.Model.BuildPrefill([]int64{0})
	return InstallWeights(r.EP, b)
}
