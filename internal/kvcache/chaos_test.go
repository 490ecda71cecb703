package kvcache

import (
	"math/rand"
	"testing"

	"genie/internal/lineage"
	"genie/internal/metrics"
	"genie/internal/models"
	"genie/internal/runtime"
)

// TestSplitSurvivesPrefillCrash kills the prefill backend mid-workload.
// The runner's Failover fails the lineage-tracked prefill endpoint over
// to a spare (weights replay from recorded provenance) and the reissued
// prefill hop must produce bit-identical tokens — decode never notices,
// because its resident state and connection are untouched.
func TestSplitSurvivesPrefillCrash(t *testing.T) {
	snap := metrics.SnapGoroutines()

	rng := rand.New(rand.NewSource(77))
	model := models.NewGPT(rng, models.TinyGPT)
	const steps = 5

	baseline := &runtime.LLMRunner{Model: model}
	want := generateScoped(t, baseline, runtime.ModeLocal, "", parityPrompt, steps)

	prefillBE := startPipeBackend(t)
	spareBE := startPipeBackend(t)
	decodeBE := startPipeBackend(t)

	lm := lineage.NewManager()
	lm.RegisterEndpoint("prefill", prefillBE.cli)
	lm.RegisterEndpoint("spare", spareBE.cli)
	tep, err := lm.TrackedEndpoint("prefill")
	if err != nil {
		t.Fatal(err)
	}

	mgr, err := NewManager(Config{Model: model, BudgetBytes: 1 << 20, PageTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	var failovers int
	sp, err := NewSplit(SplitConfig{
		Model:          model,
		Prefill:        tep,
		Decode:         decodeBE.cli,
		DecodeCounters: decodeBE.ctr,
		Cache:          mgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Weights installed through the tracked endpoint get replayable
	// provenance; the decode side installs directly.
	if err := sp.InstallWeights(); err != nil {
		t.Fatal(err)
	}
	r := sp.Runner()
	r.Failover = &runtime.Failover{Rebind: func(error) error {
		failovers++
		_, ferr := tep.Failover("spare")
		return ferr
	}}

	// Healthy request first, seeding the prefix cache.
	got := generateScoped(t, r, runtime.ModeSemAware, "req0/", parityPrompt, steps)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("healthy request diverges at step %d", i)
		}
	}

	// Crash the prefill lane: resident weights are wiped and the next
	// exec fails, as if the node rebooted.
	prefillBE.srv.Crash()

	got = generateScoped(t, r, runtime.ModeSemAware, "req1/", parityPrompt, steps)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-crash request diverges at step %d: %v vs %v", i, got, want)
		}
	}
	if failovers != 1 {
		t.Fatalf("failover hook ran %d times, want 1", failovers)
	}

	// The spare is now the prefill lane; further requests need no repair.
	got = generateScoped(t, r, runtime.ModeSemAware, "req2/", parityPrompt, steps)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-failover request diverges at step %d", i)
		}
	}
	if failovers != 1 {
		t.Fatalf("failover hook re-ran (%d times) on a healthy lane", failovers)
	}

	// Tear the backends down before the leak check: the serve goroutines
	// must drain once their pipes close.
	prefillBE.stop()
	spareBE.stop()
	decodeBE.stop()
	snap.Check(t)
}

// TestSplitPrefillFailureWithoutFailover: with no Failover on the runner
// the error surfaces to the caller instead of hanging or corrupting
// decode state.
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
		t.Fatal("prefill on a failing backend succeeded without a Failover")
	}
	_ = s.Close()
}
