package kvcache

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"genie/internal/backend"
	"genie/internal/chaos"
	"genie/internal/device"
	"genie/internal/health"
	"genie/internal/metrics"
	"genie/internal/models"
	"genie/internal/runtime"
	"genie/internal/transport"
)

// livePins reads the manager's live eviction-pin count — a leaked hedge
// loser would hold one forever.
func livePins(m *Manager) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pins)
}

// TestHedgedPrefillDedup forces the cold prefill to hedge — the primary
// lane's every socket operation is held 25 ms, an order of magnitude past
// the hedge deadline, so the timer always fires before the primary can
// answer (a short deadline alone does not: a finished primary and a fired
// timer can both be ready, and select then picks at random) — and checks
// the invariants the race must not break: tokens bit-identical to the
// local baseline, exactly one winner's KV inserted (cache accounting
// identical to an unhedged run), no pinned pages left behind, and no
// goroutine leaked — whether the loser finished or was cancelled in
// flight.
func TestHedgedPrefillDedup(t *testing.T) {
	snap := metrics.SnapGoroutines()

	rng := rand.New(rand.NewSource(21))
	model := models.NewGPT(rng, models.TinyGPT)
	const steps = 5
	baseline := &runtime.LLMRunner{Model: model}
	want := generateScoped(t, baseline, runtime.ModeLocal, "", parityPrompt, steps)

	// Reference cache accounting: an unhedged split over the same prompt.
	refA, refD := startPipeBackend(t), startPipeBackend(t)
	refMgr, err := NewManager(Config{Model: model, BudgetBytes: 1 << 20, PageTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	refSp, err := NewSplit(SplitConfig{Model: model, Prefill: refA.cli, Decode: refD.cli, Cache: refMgr})
	if err != nil {
		t.Fatal(err)
	}
	if err := refSp.InstallWeights(); err != nil {
		t.Fatal(err)
	}
	generateScoped(t, refSp.Runner(), runtime.ModeSemAware, "ref0/", parityPrompt, steps)
	refStats := refMgr.Snapshot()

	plan := chaos.NewPlan(7, chaos.Config{DelayProb: 1, Delay: 25 * time.Millisecond})
	plan.SetActive(false) // clean install; the delay is armed after it
	laneA, laneB := startChaosBackend(t, plan), startPipeBackend(t)
	decodeBE := startPipeBackend(t)
	mgr, err := NewManager(Config{Model: model, BudgetBytes: 1 << 20, PageTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSplit(SplitConfig{
		Model:  model,
		Decode: decodeBE.cli,
		Cache:  mgr,
		Lanes: []PrefillLane{
			{Name: "a", EP: laneA.cli},
			{Name: "b", EP: laneB.cli},
		},
		HedgePrefill: true,
		HedgeFloor:   2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.InstallWeights(); err != nil {
		t.Fatal(err)
	}
	plan.SetActive(true)
	r := sp.Runner()

	// Cold request under a forced hedge.
	got := generateScoped(t, r, runtime.ModeSemAware, "req0/", parityPrompt, steps)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hedged cold run diverges at step %d: %v vs %v", i, got, want)
		}
	}
	if sp.Hedged() != 1 {
		t.Fatalf("hedged launches = %d, want 1", sp.Hedged())
	}
	st := mgr.Snapshot()
	if st.ResidentNodes != refStats.ResidentNodes || st.ResidentBytes != refStats.ResidentBytes {
		t.Fatalf("hedged cache holds %d nodes/%d B, unhedged reference %d/%d — duplicate insert",
			st.ResidentNodes, st.ResidentBytes, refStats.ResidentNodes, refStats.ResidentBytes)
	}
	if n := livePins(mgr); n != 0 {
		t.Fatalf("%d pins live after session close, want 0", n)
	}

	// Warm request: the hedge winner's insert must be the one the radix
	// serves back.
	got = generateScoped(t, r, runtime.ModeSemAware, "req1/", parityPrompt, steps)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hedged warm run diverges at step %d: %v vs %v", i, got, want)
		}
	}
	if st := mgr.Snapshot(); st.Hits != 1 {
		t.Fatalf("radix hits = %d after warm hedged request, want 1", st.Hits)
	}
	if n := livePins(mgr); n != 0 {
		t.Fatalf("%d pins live after warm session close, want 0", n)
	}

	for _, pb := range []*pipeBackend{refA, refD, laneA, laneB, decodeBE} {
		pb.stop()
	}
	snap.Check(t)
}

// chaosBackend is startPipeBackend with the client side routed through
// a chaos plan (the brownout lever for hedge tests).
func startChaosBackend(t *testing.T, plan *chaos.Plan) *pipeBackend {
	t.Helper()
	rawC, rawS := net.Pipe()
	ctr := &transport.Counters{}
	cconn := transport.NewConn(plan.WrapConn(rawC), ctr, nil)
	sconn := transport.NewConn(rawS, nil, nil)
	srv := backend.NewServer(device.A100)
	go func() { _ = srv.Serve(sconn) }()
	pb := &pipeBackend{cli: transport.NewClient(cconn), ctr: ctr, srv: srv, cconn: cconn, sconn: sconn}
	t.Cleanup(pb.stop)
	return pb
}

// TestHedgeBackupWinsOnSlowPrimary browns out the primary lane (every
// op stalls far past the hedge deadline) and checks the backup rescues
// the request: correct tokens, a recorded hedge win, and the loser
// cancelled in flight rather than awaited.
func TestHedgeBackupWinsOnSlowPrimary(t *testing.T) {
	snap := metrics.SnapGoroutines()

	rng := rand.New(rand.NewSource(21))
	model := models.NewGPT(rng, models.TinyGPT)
	const steps = 4
	baseline := &runtime.LLMRunner{Model: model}
	want := generateScoped(t, baseline, runtime.ModeLocal, "", parityPrompt, steps)

	plan := chaos.NewPlan(7, chaos.Config{StallProb: 1, Stall: 400 * time.Millisecond})
	plan.SetActive(false) // clean install; the fault window opens later
	slow := startChaosBackend(t, plan)
	fast := startPipeBackend(t)
	decodeBE := startPipeBackend(t)

	hs := health.NewSet(health.Config{})
	sp, err := NewSplit(SplitConfig{
		Model:  model,
		Decode: decodeBE.cli,
		Lanes: []PrefillLane{
			{Name: "a-slow", EP: slow.cli}, // name-asc tiebreak: unscored "a-slow" ranks first
			{Name: "b-fast", EP: fast.cli},
		},
		Health:       hs,
		HedgePrefill: true,
		HedgeFloor:   5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.InstallWeights(); err != nil {
		t.Fatal(err)
	}
	plan.SetActive(true)

	got := generateScoped(t, sp.Runner(), runtime.ModeSemAware, "req0/", parityPrompt, steps)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hedge rescue diverges at step %d: %v vs %v", i, got, want)
		}
	}
	if sp.Hedged() != 1 || sp.HedgeWins() != 1 {
		t.Fatalf("hedged=%d wins=%d, want 1/1 (backup must rescue the stalled primary)",
			sp.Hedged(), sp.HedgeWins())
	}
	if sp.HedgeCancelled() != 1 {
		t.Fatalf("cancelled=%d, want 1 (the stalled primary was in flight)", sp.HedgeCancelled())
	}
	// The winner's latency reached the scorer; the cancelled loser's
	// wait must not be charged as a lane sample.
	hsnap := hs.Snapshot()
	if hsnap["b-fast"].Samples == 0 {
		t.Error("winning lane has no health samples")
	}
	if hsnap["a-slow"].Samples != 0 {
		t.Errorf("cancelled lane charged %d samples; cancellation measures our patience, not the lane",
			hsnap["a-slow"].Samples)
	}

	for _, pb := range []*pipeBackend{slow, fast, decodeBE} {
		pb.stop()
	}
	snap.Check(t)
}
