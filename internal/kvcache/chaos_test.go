package kvcache

import (
	"math/rand"
	"testing"

	"genie/internal/models"
	"genie/internal/runtime"
)

// TestSplitPrefillFailureWithoutFailover: a split route carries no
// Repair, so a failed prefill surfaces to the caller instead of hanging
// or corrupting decode state.
func TestSplitPrefillFailureWithoutFailover(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	model := models.NewGPT(rng, models.TinyGPT)
	prefillBE := startPipeBackend(t)
	decodeBE := startPipeBackend(t)
	sp, err := NewSplit(SplitConfig{Model: model, Prefill: prefillBE.cli, Decode: decodeBE.cli})
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.InstallWeights(); err != nil {
		t.Fatal(err)
	}
	prefillBE.srv.FailNextExecs(1)
	s, err := sp.Runner().NewScopedSession(runtime.ModeSemAware, "req0/")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prefill(parityPrompt); err == nil {
		t.Fatal("prefill on a failing backend succeeded without a Repair")
	}
	_ = s.Close()
}
