package lineage

import (
	"context"
	"math/rand"
	"net"
	"testing"

	"genie/internal/backend"
	"genie/internal/device"
	"genie/internal/lazy"
	"genie/internal/models"
	"genie/internal/nn"
	"genie/internal/srg"
	"genie/internal/tensor"
	"genie/internal/transport"
)

func startBackend(t *testing.T) (*transport.Client, *backend.Server) {
	t.Helper()
	srv := backend.NewServer(device.A100)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() { _ = srv.Listen(l) }()
	conn, err := transport.Dial(l.Addr().String(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return transport.NewClient(conn), srv
}

// buildChain captures y = relu(w ∘ x) keeping y resident, producing a
// chain of dependent objects across n steps: step i consumes step i-1's
// output.
func chainStep(t *testing.T, m *Manager, ep string, stepKey, prevKey string, first *tensor.Tensor) {
	t.Helper()
	b := lazy.NewBuilder("chain")
	var x lazy.Value
	if prevKey == "" {
		x = b.Input("x", first)
	} else {
		x = b.Input("prev", tensor.New(tensor.F32, first.Shape()...))
	}
	y := b.ReLU(b.Scale(x, 2))
	ex := &transport.Exec{
		Graph: b.Graph(),
		Keep:  map[srg.NodeID]string{y.ID(): stepKey},
	}
	if prevKey == "" {
		ex.Binds = []transport.Binding{{Ref: "x", Inline: first}}
	} else {
		ex.Binds = []transport.Binding{{Ref: "prev", Key: prevKey}}
	}
	if _, err := m.ExecTracked(context.Background(), ep, ex); err != nil {
		t.Fatal(err)
	}
}

func TestUploadTrackedAndRecoverAfterCrash(t *testing.T) {
	client, srv := startBackend(t)
	m := NewManager()
	m.RegisterEndpoint("gpu0", client)

	w := tensor.FromF32(tensor.Shape{2}, []float32{1, 2})
	if err := m.UploadTracked("gpu0", "w", w); err != nil {
		t.Fatal(err)
	}
	srv.Crash()

	lost, err := m.DetectLost("gpu0")
	if err != nil {
		t.Fatal(err)
	}
	if len(lost) != 1 || lost[0] != "w" {
		t.Fatalf("lost = %v", lost)
	}
	if err := m.Recover(lost, "gpu0"); err != nil {
		t.Fatal(err)
	}
	epoch, _ := m.EpochOf("w")
	got, err := client.Fetch("w", epoch)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(got, w, 0, 0) {
		t.Error("recovered weight differs")
	}
}

func TestChainReplayInDependencyOrder(t *testing.T) {
	client, srv := startBackend(t)
	m := NewManager()
	m.RegisterEndpoint("gpu0", client)

	seed := tensor.FromF32(tensor.Shape{2}, []float32{1, -3})
	chainStep(t, m, "gpu0", "s1", "", seed)
	chainStep(t, m, "gpu0", "s2", "s1", seed)
	chainStep(t, m, "gpu0", "s3", "s2", seed)

	// Verify pre-crash value: s3 = relu(2*relu(2*relu(2*x))) = [8, 0].
	epoch, _ := m.EpochOf("s3")
	pre, err := client.Fetch("s3", epoch)
	if err != nil {
		t.Fatal(err)
	}

	srv.Crash()
	n, err := m.RecoverFrom("gpu0", "gpu0")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("recovered %d objects, want 3", n)
	}
	epoch, _ = m.EpochOf("s3")
	post, err := client.Fetch("s3", epoch)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(pre, post, 0, 0) {
		t.Errorf("replayed chain differs: %v vs %v", pre.F32(), post.F32())
	}
}

func TestSelectiveReplayOnlyLostChains(t *testing.T) {
	// Two independent chains on two servers; crash one. Only its chain
	// replays, and the healthy server sees no extra exec calls.
	c0, s0 := startBackend(t)
	c1, s1 := startBackend(t)
	m := NewManager()
	m.RegisterEndpoint("gpu0", c0)
	m.RegisterEndpoint("gpu1", c1)

	seed := tensor.FromF32(tensor.Shape{2}, []float32{1, 1})
	chainStep(t, m, "gpu0", "a1", "", seed)
	chainStep(t, m, "gpu1", "b1", "", seed)
	healthyCalls := s1.Stats().ExecCalls

	s0.Crash()
	n, err := m.RecoverFrom("gpu0", "gpu0")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("recovered %d, want 1", n)
	}
	if got := s1.Stats().ExecCalls; got != healthyCalls {
		t.Errorf("healthy server executed %d extra calls", got-healthyCalls)
	}
	_ = s1
}

func TestRecoverOntoDifferentEndpoint(t *testing.T) {
	// Rebinding to new resources (§3.5): recover a crashed server's
	// state onto a different machine.
	c0, s0 := startBackend(t)
	c1, _ := startBackend(t)
	m := NewManager()
	m.RegisterEndpoint("gpu0", c0)
	m.RegisterEndpoint("gpu1", c1)

	seed := tensor.FromF32(tensor.Shape{2}, []float32{2, 5})
	chainStep(t, m, "gpu0", "s1", "", seed)
	chainStep(t, m, "gpu0", "s2", "s1", seed)

	s0.Crash()
	if _, err := m.RecoverFrom("gpu0", "gpu1"); err != nil {
		t.Fatal(err)
	}
	epoch, _ := m.EpochOf("s2")
	got, err := c1.Fetch("s2", epoch)
	if err != nil {
		t.Fatalf("s2 should now live on gpu1: %v", err)
	}
	want := []float32{8, 20}
	for i, v := range got.F32() {
		if v != want[i] {
			t.Errorf("recovered s2 = %v", got.F32())
			break
		}
	}
}

func TestGroupedReplaySingleExec(t *testing.T) {
	// Two objects kept by ONE execution must replay with one exec call.
	client, srv := startBackend(t)
	m := NewManager()
	m.RegisterEndpoint("gpu0", client)

	b := lazy.NewBuilder("pair")
	x := b.Input("x", tensor.FromF32(tensor.Shape{2}, []float32{1, 2}))
	a := b.Scale(x, 2)
	c := b.Scale(x, 3)
	xt, _ := b.InputData("x")
	ex := &transport.Exec{
		Graph: b.Graph(),
		Binds: []transport.Binding{{Ref: "x", Inline: xt}},
		Keep:  map[srg.NodeID]string{a.ID(): "pa", c.ID(): "pc"},
	}
	if _, err := m.ExecTracked(context.Background(), "gpu0", ex); err != nil {
		t.Fatal(err)
	}
	srv.Crash()
	srv.ResetAccounting()
	if _, err := m.RecoverFrom("gpu0", "gpu0"); err != nil {
		t.Fatal(err)
	}
	if calls := srv.Stats().ExecCalls; calls != 1 {
		t.Errorf("replay used %d exec calls, want 1", calls)
	}
}

func TestDecodeLoopRecovery(t *testing.T) {
	// The §3.5 headline: recover a decode loop's KV state mid-stream and
	// continue generating the same tokens (lineage spans phases).
	client, srv := startBackend(t)
	m := NewManager()
	m.RegisterEndpoint("gpu0", client)

	rng := rand.New(rand.NewSource(77))
	gpt := models.NewGPT(rng, models.TinyGPT)
	prompt := []int64{3, 14, 15, 9, 26}

	// Install weights tracked.
	pb, _ := gpt.BuildPrefill(prompt)
	for _, n := range pb.Graph().Nodes() {
		if n.Op == "param" {
			data, _ := pb.ParamData(n.Ref)
			if err := m.UploadTracked("gpu0", n.Ref, data); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Tracked prefill keeping caches.
	runStep := func(b *lazy.Builder, out models.LLMOutputs) int64 {
		t.Helper()
		ex := &transport.Exec{Graph: b.Graph(), Keep: map[srg.NodeID]string{}}
		for _, n := range b.Graph().Nodes() {
			if n.Op == "input" {
				if n.Residency == srg.ResidencyStatefulKVCache {
					ex.Binds = append(ex.Binds, transport.Binding{Ref: n.Ref, Key: n.Ref})
					continue
				}
				data, _ := b.InputData(n.Ref)
				ex.Binds = append(ex.Binds, transport.Binding{Ref: n.Ref, Inline: data})
			}
		}
		for i := range out.CacheK {
			ex.Keep[out.CacheK[i]] = models.CacheRef(i, "k")
			ex.Keep[out.CacheV[i]] = models.CacheRef(i, "v")
		}
		ex.Want = []srg.NodeID{out.NextToken}
		ok, err := m.ExecTracked(context.Background(), "gpu0", ex)
		if err != nil {
			t.Fatal(err)
		}
		return ok.Results[out.NextToken].I64()[0]
	}

	b, out := gpt.BuildPrefill(prompt)
	next := runStep(b, out)
	hist := len(prompt)

	var tokens []int64
	for s := 0; s < 2; s++ {
		tokens = append(tokens, next)
		db, dout := gpt.BuildDecodeStep(next, hist, hist, emptyCaches(gpt))
		next = runStep(db, dout)
		hist++
	}

	// Crash mid-loop, recover, continue: tokens must match an untouched
	// run.
	srv.Crash()
	if _, err := m.RecoverFrom("gpu0", "gpu0"); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		tokens = append(tokens, next)
		db, dout := gpt.BuildDecodeStep(next, hist, hist, emptyCaches(gpt))
		next = runStep(db, dout)
		hist++
	}

	// Reference: same model, no crash.
	c2, _ := startBackend(t)
	m2 := NewManager()
	m2.RegisterEndpoint("gpu0", c2)
	rng2 := rand.New(rand.NewSource(77))
	gpt2 := models.NewGPT(rng2, models.TinyGPT)
	pb2, _ := gpt2.BuildPrefill(prompt)
	for _, n := range pb2.Graph().Nodes() {
		if n.Op == "param" {
			data, _ := pb2.ParamData(n.Ref)
			if err := m2.UploadTracked("gpu0", n.Ref, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	runStep2 := func(b *lazy.Builder, out models.LLMOutputs) int64 {
		t.Helper()
		ex := &transport.Exec{Graph: b.Graph(), Keep: map[srg.NodeID]string{}}
		for _, n := range b.Graph().Nodes() {
			if n.Op == "input" {
				if n.Residency == srg.ResidencyStatefulKVCache {
					ex.Binds = append(ex.Binds, transport.Binding{Ref: n.Ref, Key: n.Ref})
					continue
				}
				data, _ := b.InputData(n.Ref)
				ex.Binds = append(ex.Binds, transport.Binding{Ref: n.Ref, Inline: data})
			}
		}
		for i := range out.CacheK {
			ex.Keep[out.CacheK[i]] = models.CacheRef(i, "k")
			ex.Keep[out.CacheV[i]] = models.CacheRef(i, "v")
		}
		ex.Want = []srg.NodeID{out.NextToken}
		ok, err := m2.ExecTracked(context.Background(), "gpu0", ex)
		if err != nil {
			t.Fatal(err)
		}
		return ok.Results[out.NextToken].I64()[0]
	}
	b2, out2 := gpt2.BuildPrefill(prompt)
	next2 := runStep2(b2, out2)
	hist2 := len(prompt)
	var want []int64
	for s := 0; s < 4; s++ {
		want = append(want, next2)
		db, dout := gpt2.BuildDecodeStep(next2, hist2, hist2, emptyCaches(gpt2))
		next2 = runStep2(db, dout)
		hist2++
	}

	for i := range want {
		if tokens[i] != want[i] {
			t.Fatalf("post-recovery tokens diverge at %d: %v vs %v", i, tokens, want)
		}
	}
}

func emptyCaches(m *models.GPT) []*nn.KVCache {
	caches := make([]*nn.KVCache, m.Cfg.Layers)
	for i := range caches {
		caches[i] = &nn.KVCache{}
	}
	return caches
}

func TestRecoverUnknownKeyFails(t *testing.T) {
	client, _ := startBackend(t)
	m := NewManager()
	m.RegisterEndpoint("gpu0", client)
	if err := m.Recover([]string{"ghost"}, "gpu0"); err == nil {
		t.Error("recovering untracked object should fail")
	}
	if err := m.Recover(nil, "nowhere"); err == nil {
		t.Error("unknown endpoint should fail")
	}
}

func TestDetectLostNothingWhenHealthy(t *testing.T) {
	client, _ := startBackend(t)
	m := NewManager()
	m.RegisterEndpoint("gpu0", client)
	if err := m.UploadTracked("gpu0", "w", tensor.New(tensor.F32, 1)); err != nil {
		t.Fatal(err)
	}
	lost, err := m.DetectLost("gpu0")
	if err != nil {
		t.Fatal(err)
	}
	if len(lost) != 0 {
		t.Errorf("healthy server lost %v", lost)
	}
}

func TestCheckpointTruncatesReplayChain(t *testing.T) {
	client, srv := startBackend(t)
	m := NewManager()
	m.RegisterEndpoint("gpu0", client)

	seed := tensor.FromF32(tensor.Shape{2}, []float32{1, 1})
	chainStep(t, m, "gpu0", "s1", "", seed)
	chainStep(t, m, "gpu0", "s2", "s1", seed)
	chainStep(t, m, "gpu0", "s3", "s2", seed)
	if d := m.ChainDepth("s3"); d != 3 {
		t.Fatalf("chain depth %d, want 3", d)
	}

	if err := m.Checkpoint("s2"); err != nil {
		t.Fatal(err)
	}
	// s3's chain now cuts at the checkpointed s2.
	if d := m.ChainDepth("s3"); d != 1 {
		t.Errorf("chain depth after checkpoint %d, want 1", d)
	}

	// Crash, then recover just the tip: s2 must re-upload its snapshot
	// (no recomputation) and s3 replay one step; values stay correct
	// (s3 = 2*relu(2*relu(2*x)) = 8).
	srv.Crash()
	srv.ResetAccounting()
	if err := m.Recover([]string{"s2", "s3"}, "gpu0"); err != nil {
		t.Fatal(err)
	}
	if calls := srv.Stats().ExecCalls; calls != 1 {
		t.Errorf("recovery used %d exec calls, want 1 (s3 only; s2 re-uploads)", calls)
	}
	epoch, _ := m.EpochOf("s3")
	got, err := client.Fetch("s3", epoch)
	if err != nil {
		t.Fatal(err)
	}
	if got.F32()[0] != 8 {
		t.Errorf("recovered s3 = %v, want 8", got.F32()[0])
	}
}

func TestCheckpointErrors(t *testing.T) {
	client, _ := startBackend(t)
	m := NewManager()
	m.RegisterEndpoint("gpu0", client)
	if err := m.Checkpoint("ghost"); err == nil {
		t.Error("checkpoint of untracked key should fail")
	}
	if m.ChainDepth("ghost") != 0 {
		t.Error("untracked chain depth should be 0")
	}
}
