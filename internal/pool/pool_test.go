package pool

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"

	"genie/internal/backend"
	"genie/internal/chaos"
	"genie/internal/cluster"
	"genie/internal/device"
	"genie/internal/metrics"
	"genie/internal/models"
	"genie/internal/runtime"
	"genie/internal/transport"
)

var testPrompt = []int64{3, 14, 15, 9, 2, 6}

// testLink is cheap and symmetric; the cost model still sees real
// transfer terms.
var testLink = cluster.Link{Bandwidth: 3.125e9, RPCOverhead: 0}

func testGPT() *models.GPT {
	return models.NewGPT(rand.New(rand.NewSource(5)), models.TinyGPT)
}

// refTokens is the single-backend ModeLocal ground truth every sharded
// run must match bit-for-bit.
func refTokens(t *testing.T, steps int) []int64 {
	t.Helper()
	r := &runtime.LLMRunner{Model: testGPT()}
	res, err := r.Generate(runtime.ModeLocal, testPrompt, steps)
	if err != nil {
		t.Fatal(err)
	}
	return res.Tokens
}

// poolBackend is one in-process backend reachable over a net.Pipe,
// optionally routed through a chaos plan.
type poolBackend struct {
	srv          *backend.Server
	ep           runtime.Endpoint
	cconn, sconn *transport.Conn
}

func newPoolBackend(plan *chaos.Plan) *poolBackend {
	rawC, rawS := net.Pipe()
	var clientSide net.Conn = rawC
	if plan != nil {
		clientSide = plan.WrapConn(rawC)
	}
	cconn := transport.NewConn(clientSide, nil, nil)
	sconn := transport.NewConn(rawS, nil, nil)
	srv := backend.NewServer(device.A100)
	go func() { _ = srv.Serve(sconn) }()
	return &poolBackend{srv: srv, ep: transport.NewClient(cconn), cconn: cconn, sconn: sconn}
}

func (pb *poolBackend) stop() {
	_ = pb.cconn.Close()
	_ = pb.sconn.Close()
}

// smallSpec gives a member num/den of the model's total weight bytes —
// the lever that forces multi-member sharding.
func smallSpec(m *models.GPT, num, den int64) device.Spec {
	s := device.A100
	s.MemBytes = m.Cfg.WeightBytes() * num / den
	return s
}

func TestBuildPlanStrategies(t *testing.T) {
	m := testGPT()
	two := []Candidate{
		{Name: "a", Spec: smallSpec(m, 2, 3), Link: testLink},
		{Name: "b", Spec: smallSpec(m, 2, 3), Link: testLink},
	}

	t.Run("memory splits when nothing fits alone", func(t *testing.T) {
		p, err := BuildPlan(m, two, StrategyMemory, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(p.Members()); got != 2 {
			t.Fatalf("memory plan uses %d members, want 2", got)
		}
		for name, w := range p.Weights {
			if lim := smallSpec(m, 2, 3).MemBytes; w > lim {
				t.Errorf("member %s over budget: %d > %d", name, w, lim)
			}
		}
		if p.CutEdges == 0 || p.CutBytes == 0 {
			t.Errorf("2-way plan has no cut: edges=%d bytes=%d", p.CutEdges, p.CutBytes)
		}
	})

	t.Run("memory packs onto one member when it fits", func(t *testing.T) {
		big := []Candidate{
			{Name: "a", Spec: device.A100, Link: testLink},
			{Name: "b", Spec: device.A100, Link: testLink},
		}
		p, err := BuildPlan(m, big, StrategyMemory, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(p.Members()); got != 1 {
			t.Fatalf("memory plan uses %d members, want 1 (model fits)", got)
		}
		if p.CutEdges != 0 {
			t.Errorf("single-member plan has %d cut edges", p.CutEdges)
		}
	})

	t.Run("pipeline spreads contiguous stages", func(t *testing.T) {
		p, err := BuildPlan(m, two, StrategyPipeline, 1)
		if err != nil {
			t.Fatal(err)
		}
		shards := p.Shards()
		if len(shards) != 2 {
			t.Fatalf("pipeline shards = %d, want 2", len(shards))
		}
		if shards[0].Member == shards[1].Member {
			t.Error("pipeline stages share a member")
		}
	})

	t.Run("tensor interleaves round-robin", func(t *testing.T) {
		p, err := BuildPlan(m, two, StrategyTensor, 1)
		if err != nil {
			t.Fatal(err)
		}
		if p.Owners[0] == p.Owners[1] {
			t.Errorf("tensor owners = %v, want alternating", p.Owners)
		}
	})

	t.Run("auto picks a feasible plan", func(t *testing.T) {
		p, err := BuildPlan(m, two, StrategyAuto, 1)
		if err != nil {
			t.Fatal(err)
		}
		if p.Strategy != StrategyAuto {
			t.Errorf("auto plan stamped %v", p.Strategy)
		}
		if p.Estimate <= 0 {
			t.Error("auto plan has no cost estimate")
		}
	})

	t.Run("infeasible pool errors", func(t *testing.T) {
		tiny := []Candidate{{Name: "a", Spec: smallSpec(m, 1, 10), Link: testLink}}
		if _, err := BuildPlan(m, tiny, StrategyAuto, 1); err == nil {
			t.Fatal("want error for pool smaller than the model")
		}
	})
}

// join builds a backend, joins it, and returns it for teardown.
func join(t *testing.T, m *Manager, name string, spec device.Spec, plan *chaos.Plan) *poolBackend {
	t.Helper()
	pb := newPoolBackend(plan)
	if err := m.Join(name, pb.ep, spec, testLink); err != nil {
		t.Fatalf("join %s: %v", name, err)
	}
	return pb
}

// generate drives a scoped session through prefill + steps.
func generate(t *testing.T, m *Manager, scope string, steps int) []int64 {
	t.Helper()
	s, err := m.Runner().NewScopedSessionCtx(context.Background(), runtime.ModeSemAware, scope)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	defer func() { _ = s.Close() }()
	var out []int64
	tok, err := s.Prefill(testPrompt)
	if err != nil {
		t.Fatalf("prefill: %v", err)
	}
	out = append(out, tok)
	for len(out) < steps {
		if tok, err = s.Step(); err != nil {
			t.Fatalf("step %d: %v", len(out), err)
		}
		out = append(out, tok)
	}
	return out
}

// TestShardedAcrossTwoMembers: a model too large for either member is
// planned across both, and a generation counts its segment execs and
// the activations that crossed the shard boundary. Token parity at 1, 2
// and 3 members is the session parity matrix's, in internal/runtime.
func TestShardedAcrossTwoMembers(t *testing.T) {
	gpt := testGPT()

	mgr, err := NewManager(Config{Model: gpt})
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec(gpt, 2, 3)
	b0 := join(t, mgr, "m0", spec, nil)
	defer b0.stop()
	b1 := join(t, mgr, "m1", spec, nil)
	defer b1.stop()

	plan := mgr.Plan()
	if plan == nil {
		t.Fatal("no plan after two joins")
	}
	if got := len(plan.Members()); got != 2 {
		t.Fatalf("plan uses %d members, want 2 (weights %d B, member cap %d B)",
			got, gpt.Cfg.WeightBytes(), spec.MemBytes)
	}

	const steps = 6
	generate(t, mgr, "req1/", steps)
	st := mgr.Status()
	// One [tokens, Dim] f32 activation crosses the one boundary per pass.
	if want := int64(len(testPrompt)+steps-1) * int64(gpt.Cfg.Dim) * 4; st.CrossShardBytes != want {
		t.Errorf("cross-shard activation bytes = %d, want %d", st.CrossShardBytes, want)
	}
	if want := int64(2 * steps); st.SegmentExecs != want {
		t.Errorf("segment execs = %d, want %d (2 shards x %d passes)", st.SegmentExecs, want, steps)
	}
}

// TestLeaveMidDecodeParity: a shard owner leaves voluntarily between
// decode steps; the in-flight session finishes on the repaired plan
// with byte-identical output.
func TestLeaveMidDecodeParity(t *testing.T) {
	gpt := testGPT()
	want := refTokens(t, 6)

	mgr, err := NewManager(Config{Model: gpt})
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec(gpt, 2, 3)
	b0 := join(t, mgr, "m0", spec, nil)
	defer b0.stop()
	b1 := join(t, mgr, "m1", spec, nil)
	defer b1.stop()
	// Hot spare: big enough to absorb either member's whole shard.
	b2 := join(t, mgr, "m2", spec, nil)
	defer b2.stop()

	s, err := mgr.Runner().NewScopedSessionCtx(context.Background(), runtime.ModeSemAware, "req1/")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	var got []int64
	tok, err := s.Prefill(testPrompt)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, tok)
	for i := 0; i < 2; i++ {
		if tok, err = s.Step(); err != nil {
			t.Fatal(err)
		}
		got = append(got, tok)
	}

	// A shard owner departs mid-decode.
	victim := mgr.Plan().Owners[0]
	verBefore := mgr.Plan().Version
	if err := mgr.Leave(victim); err != nil {
		t.Fatalf("leave %s: %v", victim, err)
	}
	plan := mgr.Plan()
	if plan == nil {
		t.Fatal("no plan after leave")
	}
	if plan.Version <= verBefore {
		t.Errorf("plan version %d not bumped past %d", plan.Version, verBefore)
	}
	if ownerIn(plan.Owners, victim) {
		t.Fatalf("departed %s still owns layers: %v", victim, plan.Owners)
	}

	for len(got) < 6 {
		if tok, err = s.Step(); err != nil {
			t.Fatalf("post-leave step: %v", err)
		}
		got = append(got, tok)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("tokens across migration %v != reference %v", got, want)
	}
	st := mgr.Status()
	if st.MigratedKeys == 0 {
		t.Error("leave re-installed no weights")
	}
	if st.Rebuilds == 0 {
		t.Error("no rebuild counted")
	}
	// The session rebuilt its KV on the spare because it was not
	// resident there, not because the spare failed.
	if st.MemberFailures != 0 || len(st.Members) != 2 {
		t.Errorf("member failures %d, members %d: want 0 and 2 (the spare stays)", st.MemberFailures, len(st.Members))
	}
}

// TestCrashMidDecodeRepair: a chaos-injected backend crash surfaces as
// a segment failure; the session reports it, the pool evicts and
// re-places onto the spare, and the stream completes bit-identically.
// Recovery costs one prefill over the token log — one exec per shard —
// whatever the depth of the crash.
func TestCrashMidDecodeRepair(t *testing.T) {
	for _, crashAt := range []int64{3, 6} {
		t.Run(fmt.Sprintf("exec%d", crashAt), func(t *testing.T) {
			gpt := testGPT()
			want := refTokens(t, 6)

			mgr, err := NewManager(Config{Model: gpt})
			if err != nil {
				t.Fatal(err)
			}
			spec := smallSpec(gpt, 2, 3)
			var members []*poolBackend
			for _, name := range []string{"m0", "m1", "m2"} {
				pb := join(t, mgr, name, spec, nil)
				defer pb.stop()
				members = append(members, pb)
			}

			// m0 crashes on its crashAt-th exec: the prefill segment, then
			// crashAt-2 decode segments, then loss mid-decode.
			cp := chaos.NewPlan(7, chaos.Config{CrashExecAt: crashAt})
			members[0].srv.SetExecHook(cp.ExecHook(members[0].srv.Crash))

			got := generate(t, mgr, "req1/", 6)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("tokens across crash %v != reference %v", got, want)
			}
			if n := cp.Injected()["crash_exec"]; n != 1 {
				t.Fatalf("chaos injected %d crashes, want 1", n)
			}
			var execs int64
			for _, pb := range members {
				execs += pb.srv.Stats().ExecCalls
			}
			// A fault-free run is 6 passes × 2 shards; one exec failed.
			if recovery := execs - 12 - 1; recovery != 2 {
				t.Errorf("recovery took %d execs, want 2 (one prefill over the token log, one per shard)", recovery)
			}
			st := mgr.Status()
			if st.MemberFailures == 0 {
				t.Error("no member failure counted")
			}
			if len(st.Members) != 2 {
				t.Errorf("pool still lists %d members, want 2 after eviction", len(st.Members))
			}
		})
	}
}

// TestLeaveUnderConcurrentSessions: two sessions decode at once while
// a shard owner leaves under them. Whichever way each session meets
// the departure — its KV no longer resident, or an exec on the
// departing member — it rebuilds its KV from its token log and finishes
// with the reference tokens. (Run under -race: the resident index is
// read and written by both sessions and by the eviction.)
func TestLeaveUnderConcurrentSessions(t *testing.T) {
	gpt := testGPT()
	want := refTokens(t, 8)

	mgr, err := NewManager(Config{Model: gpt})
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec(gpt, 2, 3)
	for _, name := range []string{"m0", "m1", "m2"} {
		pb := join(t, mgr, name, spec, nil)
		defer pb.stop()
	}

	var wg sync.WaitGroup
	started := make(chan struct{}, 2)
	for _, scope := range []string{"a/", "b/"} {
		wg.Add(1)
		go func(scope string) {
			defer wg.Done()
			s, err := mgr.Runner().NewScopedSessionCtx(context.Background(), runtime.ModeSemAware, scope)
			if err != nil {
				t.Error(err)
				started <- struct{}{}
				return
			}
			defer func() { _ = s.Close() }()
			tok, err := s.Prefill(testPrompt)
			got := []int64{tok}
			started <- struct{}{}
			for err == nil && len(got) < len(want) {
				if tok, err = s.Step(); err == nil {
					got = append(got, tok)
				}
			}
			if err != nil {
				t.Errorf("%s: %v", scope, err)
			} else if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: tokens %v across the leave, reference %v", scope, got, want)
			}
		}(scope)
	}
	<-started
	<-started
	if err := mgr.Leave(mgr.Plan().Owners[0]); err != nil {
		t.Fatalf("leave: %v", err)
	}
	wg.Wait()
}

// TestMembershipChurnSoak: joins, leaves, chaos conn kills, and
// re-joins interleaved with generations; the pool must never leak
// goroutines and must serve correctly once membership stabilizes.
func TestMembershipChurnSoak(t *testing.T) {
	snap := metrics.SnapGoroutines()
	gpt := testGPT()
	want := refTokens(t, 4)

	func() {
		mgr, err := NewManager(Config{Model: gpt, Strategy: StrategyPipeline})
		if err != nil {
			t.Fatal(err)
		}
		spec := smallSpec(gpt, 2, 3)
		var backends []*poolBackend
		defer func() {
			for _, pb := range backends {
				pb.stop()
			}
		}()

		cp := chaos.NewPlan(11, chaos.Config{KillProb: 0.05})
		cp.SetActive(false)
		add := func(name string, chaotic bool) {
			var wrapped *chaos.Plan
			if chaotic {
				wrapped = cp
			}
			pb := newPoolBackend(wrapped)
			backends = append(backends, pb)
			if err := mgr.Join(name, pb.ep, spec, testLink); err != nil {
				t.Fatalf("join %s: %v", name, err)
			}
		}

		add("m0", true)
		add("m1", true)
		add("m2", false)

		got := generate(t, mgr, "warm/", 4)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("pre-churn tokens %v != %v", got, want)
		}

		// Churn phase: conn kills active, members come and go.
		// Generations here may fail (the pool can transiently lack
		// capacity); what matters is that nothing wedges or leaks.
		cp.SetActive(true)
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("churn%d", i)
			add(name, true)
			s, err := mgr.Runner().NewScopedSessionCtx(
				context.Background(), runtime.ModeSemAware, fmt.Sprintf("soak%d/", i))
			if err == nil {
				if _, err := s.Prefill(testPrompt); err == nil {
					_, _ = s.Step()
				}
				_ = s.Close()
			}
			_ = mgr.Leave(name)
		}
		cp.SetActive(false)

		// Stabilize: fresh healthy members join; any chaos-killed member
		// still in the pool is shed by the session-failure path during
		// the final generations.
		add("f0", false)
		add("f1", false)
		var final []int64
		var ferr error
		for attempt := 0; attempt < 6; attempt++ {
			final, ferr = tryGenerate(mgr, fmt.Sprintf("final%d/", attempt), 4)
			if ferr == nil {
				break
			}
		}
		if ferr != nil {
			t.Fatalf("pool never recovered after churn: %v", ferr)
		}
		if fmt.Sprint(final) != fmt.Sprint(want) {
			t.Fatalf("post-churn tokens %v != %v", final, want)
		}
	}()

	snap.Check(t)
}

// tryGenerate is generate without the test fatality, for soak phases
// where failures are expected.
func tryGenerate(m *Manager, scope string, steps int) ([]int64, error) {
	s, err := m.Runner().NewScopedSessionCtx(context.Background(), runtime.ModeSemAware, scope)
	if err != nil {
		return nil, err
	}
	defer func() { _ = s.Close() }()
	var out []int64
	tok, err := s.Prefill(testPrompt)
	if err != nil {
		return nil, err
	}
	out = append(out, tok)
	for len(out) < steps {
		if tok, err = s.Step(); err != nil {
			return nil, err
		}
		out = append(out, tok)
	}
	return out, nil
}

// TestJoinAfterLeaveSameName: a departed name can re-join with a fresh
// backend (regression for stale residue of the earlier incarnation).
func TestJoinAfterLeaveSameName(t *testing.T) {
	gpt := testGPT()
	mgr, err := NewManager(Config{Model: gpt})
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec(gpt, 2, 3)
	b0 := join(t, mgr, "m0", spec, nil)
	defer b0.stop()
	b1 := join(t, mgr, "m1", spec, nil)
	defer b1.stop()
	b2 := join(t, mgr, "m2", spec, nil)
	defer b2.stop()

	if err := mgr.Leave("m0"); err != nil {
		t.Fatal(err)
	}
	b0b := join(t, mgr, "m0", spec, nil) // same name, new incarnation
	defer b0b.stop()

	want := refTokens(t, 4)
	got := generate(t, mgr, "req1/", 4)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("tokens after re-join %v != %v", got, want)
	}
}
