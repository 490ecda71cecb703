package runtime

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"testing"

	"genie/internal/backend"
	"genie/internal/device"
	"genie/internal/models"
	"genie/internal/nn"
	"genie/internal/transport"
)

// startBackend spins a real TCP backend and returns a connected client.
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

func newRunner(t *testing.T, seed int64) (*LLMRunner, *backend.Server) {
	t.Helper()
	client, srv := startBackend(t)
	rng := rand.New(rand.NewSource(seed))
	return &LLMRunner{
		Model:    models.NewGPT(rng, models.TinyGPT),
		EP:       client,
		Counters: client.Conn().Counters(),
	}, srv
}

var testPrompt = []int64{5, 17, 42, 3, 9, 28, 54}

// TestTrafficOrdering checks the paper's central quantitative claim at
// small scale: naive moves orders of magnitude more bytes than ΔKV,
// which moves more than semantics-aware.
func TestTrafficOrdering(t *testing.T) {
	const steps = 4
	traffic := map[Mode]int64{}
	for _, mode := range []Mode{ModeNaive, ModeDeltaKV, ModeSemAware} {
		r, _ := newRunner(t, 7)
		res, err := r.Generate(mode, testPrompt, steps)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		traffic[mode] = res.Prefill.NetBytes + res.Decode.NetBytes
	}
	if traffic[ModeNaive] <= traffic[ModeDeltaKV] {
		t.Errorf("naive (%d) should move more than delta_kv (%d)",
			traffic[ModeNaive], traffic[ModeDeltaKV])
	}
	if traffic[ModeDeltaKV] <= traffic[ModeSemAware] {
		t.Errorf("delta_kv (%d) should move more than semantics_aware (%d)",
			traffic[ModeDeltaKV], traffic[ModeSemAware])
	}
	// Naive re-uploads weights every step: at least steps× the weight
	// footprint.
	weightBytes := int64(0)
	r, _ := newRunner(t, 7)
	b, _ := r.Model.BuildPrefill(testPrompt)
	for _, n := range b.Graph().Nodes() {
		if n.Op == "param" {
			weightBytes += n.Output.Bytes()
		}
	}
	if traffic[ModeNaive] < int64(steps)*weightBytes {
		t.Errorf("naive traffic %d below %d× weights (%d)",
			traffic[ModeNaive], steps, weightBytes)
	}
}

// TestRPCCallOrdering checks the per-step call structure: ΔKV dispatches
// per module (L+2 calls per step) while semantics-aware fuses each step
// into one call.
func TestRPCCallOrdering(t *testing.T) {
	const steps = 3
	calls := map[Mode]int64{}
	for _, mode := range []Mode{ModeDeltaKV, ModeSemAware} {
		r, _ := newRunner(t, 11)
		res, err := r.Generate(mode, testPrompt, steps)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		calls[mode] = res.Decode.RPCCalls
	}
	// Prefill emits the first token, so steps tokens take steps-1 decode
	// executions.
	execs := int64(steps - 1)
	layers := int64(models.TinyGPT.Layers)
	if want := execs * (layers + 2); calls[ModeDeltaKV] != want {
		t.Errorf("delta_kv decode calls = %d, want %d", calls[ModeDeltaKV], want)
	}
	if calls[ModeSemAware] != execs {
		t.Errorf("semantics_aware decode calls = %d, want %d", calls[ModeSemAware], execs)
	}
}

// TestSemAwareKeepsCacheRemote verifies no KV bytes cross the wire in
// semantics-aware decode: the per-step traffic must be far below the
// cache size.
func TestSemAwareKeepsCacheRemote(t *testing.T) {
	r, srv := newRunner(t, 23)
	res, err := r.Generate(ModeSemAware, testPrompt, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Remote store must hold 2 cache objects per layer.
	st := srv.Stats()
	wantObjects := int64(2*models.TinyGPT.Layers) + countParams(r)
	if st.ResidentCount != wantObjects {
		t.Errorf("resident objects = %d, want %d", st.ResidentCount, wantObjects)
	}
	// Per-step decode traffic = SRG shipment + token up + logits down,
	// independent of history length. Bound it by the graph encoding plus
	// a few logits rows — crucially it must NOT include the KV cache.
	// (5 tokens = prefill + 4 decode executions.)
	perStep := res.Decode.NetBytes / 4
	logits := int64(models.TinyGPT.Vocab * 4)
	placeholders := make([]*nn.KVCache, models.TinyGPT.Layers)
	for i := range placeholders {
		placeholders[i] = &nn.KVCache{}
	}
	b, _ := r.Model.BuildDecodeStep(0, len(testPrompt), len(testPrompt), placeholders)
	graph := int64(b.Graph().BinarySize())
	if perStep > graph+4*logits+4096 {
		t.Errorf("semantics-aware per-step traffic %d too high (graph=%d logits=%d)",
			perStep, graph, logits)
	}
	// And it must stay well below one layer's cache after 12 tokens.
	cacheBytes := models.TinyGPT.KVBytes(len(testPrompt) + 5)
	if perStep-graph > cacheBytes {
		t.Errorf("per-step payload %d suggests cache is crossing the wire (cache=%d)",
			perStep-graph, cacheBytes)
	}
}

func countParams(r *LLMRunner) int64 {
	b, _ := r.Model.BuildPrefill([]int64{0})
	var n int64
	for _, node := range b.Graph().Nodes() {
		if node.Op == "param" {
			n++
		}
	}
	return n
}

// TestDeltaKVLinearGrowthVsSemAwareFlat reproduces Table 3's shape at
// tiny scale using wire bytes (a latency proxy stable across machines):
// ΔKV per-step data grows with history; semantics-aware stays flat.
func TestDeltaKVLinearGrowthVsSemAwareFlat(t *testing.T) {
	perStepBytes := func(mode Mode, steps int) int64 {
		r, _ := newRunner(t, 31)
		res, err := r.Generate(mode, testPrompt, steps)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		return res.Decode.NetBytes / int64(steps-1) // prefill emits token 0
	}
	semShort := perStepBytes(ModeSemAware, 2)
	semLong := perStepBytes(ModeSemAware, 10)
	if diff := semLong - semShort; diff > semShort/5 {
		t.Errorf("semantics-aware per-step bytes grew %d -> %d", semShort, semLong)
	}
}

func TestGenerateInputValidation(t *testing.T) {
	r, _ := newRunner(t, 1)
	if _, err := r.Generate(ModeSemAware, nil, 3); err == nil {
		t.Error("empty prompt should fail")
	}
	if _, err := r.Generate(ModeSemAware, testPrompt, -1); err == nil {
		t.Error("negative steps should fail")
	}
	if _, err := r.Generate(Mode(99), testPrompt, 1); err == nil {
		t.Error("unknown mode should fail")
	}
	local := &LLMRunner{Model: r.Model}
	if _, err := local.Generate(ModeNaive, testPrompt, 1); err == nil {
		t.Error("remote modes require an endpoint")
	}
}

func TestModeStringRoundTrip(t *testing.T) {
	for _, m := range []Mode{ModeLocal, ModeNaive, ModeDeltaKV, ModeSemAware} {
		back, err := ParseMode(m.String())
		if err != nil || back != m {
			t.Errorf("mode round trip %s: %v", m, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("bogus mode should fail")
	}
}

func TestZeroStepsPrefillOnly(t *testing.T) {
	r, _ := newRunner(t, 3)
	res, err := r.Generate(ModeSemAware, testPrompt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tokens) != 0 || res.Prefill.RPCCalls == 0 {
		t.Errorf("prefill-only run: %+v", res)
	}
	if res.Decode.RPCCalls != 0 {
		t.Error("no decode calls expected")
	}
}

func TestInstallWeightsCountsBytes(t *testing.T) {
	client, _ := startBackend(t)
	rng := rand.New(rand.NewSource(5))
	m := models.NewGPT(rng, models.TinyGPT)
	b, _ := m.BuildPrefill([]int64{1})
	total, err := InstallWeights(client, b)
	if err != nil {
		t.Fatal(err)
	}
	if total != m.NumParams()*4 {
		t.Errorf("installed %d bytes, want %d", total, m.NumParams()*4)
	}
}

func TestStreamDeliversSameTokensAsGenerate(t *testing.T) {
	r, _ := newRunner(t, 55)
	want, err := r.Generate(ModeSemAware, testPrompt, 5)
	if err != nil {
		t.Fatal(err)
	}

	r2, _ := newRunner(t, 55)
	var got []int64
	for tok := range r2.Stream(context.Background(), ModeSemAware, testPrompt, 5) {
		if tok.Err != nil {
			t.Fatal(tok.Err)
		}
		if tok.Index != len(got) {
			t.Fatalf("out-of-order token index %d", tok.Index)
		}
		got = append(got, tok.ID)
	}
	if len(got) != len(want.Tokens) {
		t.Fatalf("streamed %d tokens, want %d", len(got), len(want.Tokens))
	}
	for i := range got {
		if got[i] != want.Tokens[i] {
			t.Fatalf("stream diverges at %d: %v vs %v", i, got, want.Tokens)
		}
	}
}

func TestStreamCancellationStopsEarly(t *testing.T) {
	r, _ := newRunner(t, 56)
	ctx, cancel := context.WithCancel(context.Background())
	ch := r.Stream(ctx, ModeSemAware, testPrompt, 50)

	var received int
	for tok := range ch {
		if tok.Err != nil {
			if !errors.Is(tok.Err, ErrStopped) {
				t.Fatalf("terminal error %v, want ErrStopped", tok.Err)
			}
			break
		}
		received++
		if received == 3 {
			cancel()
		}
	}
	if received < 3 || received >= 50 {
		t.Errorf("received %d tokens before cancellation took effect", received)
	}
	cancel()
}

func TestStreamLocalMode(t *testing.T) {
	r, _ := newRunner(t, 57)
	n := 0
	for tok := range r.Stream(context.Background(), ModeLocal, testPrompt, 4) {
		if tok.Err != nil {
			t.Fatal(tok.Err)
		}
		n++
	}
	if n != 4 {
		t.Errorf("streamed %d tokens, want 4", n)
	}
}

func TestOnTokenStopReturnsPartialResult(t *testing.T) {
	r, _ := newRunner(t, 58)
	count := 0
	r.OnToken = func(int64) bool {
		count++
		return count < 2 // stop after two tokens
	}
	res, err := r.Generate(ModeSemAware, testPrompt, 10)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if res == nil || len(res.Tokens) != 2 {
		t.Errorf("partial result %+v", res)
	}
}
