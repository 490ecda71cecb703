package kvcache

import (
	"math/rand"
	"testing"

	"genie/internal/models"
	"genie/internal/runtime"
)

// TestSplitHandoffShipsExactDelta runs prefill on one backend and decode
// on another and checks the ΔKV handoff: it ships exactly
// suffixTokens × KVBytesPerToken, a warm (cache-hit) request hands off
// only the clamped one-token suffix, and once the decode connection has
// seen the prefix it re-transfers as hashes. Token parity (cached and
// uncached, hedged and not) is the session parity matrix's, in
// internal/runtime.
func TestSplitHandoffShipsExactDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	model := models.NewGPT(rng, models.TinyGPT)
	cfg := model.Cfg
	const steps = 5

	prefillBE := startPipeBackend(t)
	decodeBE := startPipeBackend(t)
	mgr, err := NewManager(Config{Model: model, BudgetBytes: 1 << 20, PageTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSplit(SplitConfig{
		Model:          model,
		Prefill:        prefillBE.cli,
		Decode:         decodeBE.cli,
		DecodeCounters: decodeBE.ctr,
		Cache:          mgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.InstallWeights(); err != nil {
		t.Fatal(err)
	}
	r := sp.Runner()

	// Cold request: no cached prefix, the whole prompt's KV crosses the
	// phase boundary.
	generateScoped(t, r, runtime.ModeSemAware, "req0/", parityPrompt, steps)
	wantDelta := int64(len(parityPrompt)) * cfg.KVBytesPerToken()
	if sp.DeltaBytes() != wantDelta {
		t.Fatalf("cold ΔKV %d bytes, want %d (= %d tokens x %d B/token)",
			sp.DeltaBytes(), wantDelta, len(parityPrompt), cfg.KVBytesPerToken())
	}

	// Warm request, same prompt: the radix hit clamps to len-1, so only
	// one suffix token's KV is novel.
	decodeSent := decodeBE.ctr.Total()
	generateScoped(t, r, runtime.ModeSemAware, "req1/", parityPrompt, steps)
	if sp.DeltaBytes() != wantDelta+cfg.KVBytesPerToken() {
		t.Fatalf("warm ΔKV total %d, want %d", sp.DeltaBytes(), wantDelta+cfg.KVBytesPerToken())
	}
	if sp.DeltaTokens() != int64(len(parityPrompt))+1 {
		t.Fatalf("ΔKV tokens %d, want %d", sp.DeltaTokens(), len(parityPrompt)+1)
	}
	if st := mgr.Snapshot(); st.Hits != 1 {
		t.Fatalf("radix hits %d after warm request, want 1", st.Hits)
	}
	warmWire := decodeBE.ctr.Total() - decodeSent

	// Third request: the dedup-hinted prefix bind has now crossed the
	// decode connection once, so it collapses to hashes — the warm wire
	// cost must keep dropping relative to the first warm pass.
	decodeSent = decodeBE.ctr.Total()
	generateScoped(t, r, runtime.ModeSemAware, "req2/", parityPrompt, steps)
	dedupWire := decodeBE.ctr.Total() - decodeSent
	if dedupWire >= warmWire {
		t.Fatalf("dedup'd handoff moved %d bytes >= first warm %d", dedupWire, warmWire)
	}
}

// TestSplitRejectsWrongMode: the split runner only speaks the
// semantics-aware protocol (decode needs resident scoped state).
func TestSplitRejectsWrongMode(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	model := models.NewGPT(rng, models.TinyGPT)
	prefillBE := startPipeBackend(t)
	decodeBE := startPipeBackend(t)
	sp, err := NewSplit(SplitConfig{Model: model, Prefill: prefillBE.cli, Decode: decodeBE.cli})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Runner().NewScopedSession(runtime.ModeLocal, "x/"); err == nil {
		t.Fatal("split runner accepted mode local")
	}
	if _, err := NewSplit(SplitConfig{Model: model}); err == nil {
		t.Fatal("NewSplit accepted missing endpoints")
	}
}
