package backend

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"genie/internal/device"
	"genie/internal/quant"
	"genie/internal/srg"
	"genie/internal/tensor"
	"genie/internal/transport"
)

// End-to-end tests for the negotiated wire tier (DESIGN.md §11) over an
// in-process pipe: feature grants, dedup refs, frame compression, crash
// recovery, and — the load-bearing invariant — byte identity with the
// legacy protocol when features stay off.

// wirePair starts a server goroutine over a pipe and returns a client
// plus its traffic counters.
func wirePair(t *testing.T, srv *Server) (*transport.Client, *transport.Counters) {
	t.Helper()
	ctr := &transport.Counters{}
	cc, sc := transport.Pipe(ctr, nil)
	go func() { _ = srv.Serve(sc) }()
	client := transport.NewClient(cc)
	t.Cleanup(func() { client.Close() })
	return client, ctr
}

func bigTensor(seed int64, dims ...int) *tensor.Tensor {
	w := tensor.New(tensor.F32, dims...)
	w.RandN(rand.New(rand.NewSource(seed)), 1)
	return w
}

func TestNegotiateGrantsIntersection(t *testing.T) {
	srv := NewServer(device.A100)
	srv.SetWireFeatures(transport.FeatDedup | transport.FeatPlan)
	client, _ := wirePair(t, srv)
	granted, err := client.Negotiate(nil, transport.FeatAll)
	if err != nil {
		t.Fatal(err)
	}
	if granted != transport.FeatDedup|transport.FeatPlan {
		t.Fatalf("granted %#x, want dedup|plan", granted)
	}
	if got := client.Conn().Features(); got != granted {
		t.Fatalf("conn features %#x != granted %#x", got, granted)
	}
}

// TestRetiredFeatureBitIsNotGranted: a Hello asking for the retired
// delta bit (1<<2) alongside every live feature gets the live ones only.
func TestRetiredFeatureBitIsNotGranted(t *testing.T) {
	client, _ := wirePair(t, NewServer(device.A100))
	granted, err := client.Negotiate(nil, transport.FeatAll|1<<2)
	if err != nil {
		t.Fatal(err)
	}
	if granted != transport.FeatAll {
		t.Fatalf("granted %#x, want FeatAll %#x without 1<<2", granted, transport.FeatAll)
	}
}

// TestRetiredUploadDeltaFrameIsUnknown: the retired MsgUploadDelta number
// reaches no handler. The server answers it as an unknown message and
// the connection stays usable.
func TestRetiredUploadDeltaFrameIsUnknown(t *testing.T) {
	client, _ := wirePair(t, NewServer(device.A100))
	conn := client.Conn()
	if err := conn.SendEnv(transport.MsgUploadDelta, transport.Envelope{}, []byte{0, 2, 'k', 'v'}); err != nil {
		t.Fatal(err)
	}
	mt, _, p, err := conn.RecvEnv()
	if err != nil {
		t.Fatal(err)
	}
	if mt != transport.MsgErr {
		t.Fatalf("reply type %d, want MsgErr", mt)
	}
	if msg := transport.DecodeErr(p).Error(); !strings.Contains(msg, "unknown message type") {
		t.Fatalf("reply %q, want an unknown message type error", msg)
	}
	if _, err := client.Ping(); err != nil {
		t.Fatalf("ping after the retired frame: %v", err)
	}
}

func TestDedupSecondUploadIsHashSized(t *testing.T) {
	srv := NewServer(device.A100)
	client, ctr := wirePair(t, srv)
	if _, err := client.Negotiate(nil, transport.FeatAll); err != nil {
		t.Fatal(err)
	}
	w := bigTensor(1, 128, 128) // 64 KiB
	if _, err := client.Upload("a.w", w); err != nil {
		t.Fatal(err)
	}
	sent0, _, _ := ctr.Snapshot()
	if _, err := client.Upload("b.w", w); err != nil {
		t.Fatal(err)
	}
	sent1, _, _ := ctr.Snapshot()
	refBytes := sent1 - sent0
	if refBytes > 128 {
		t.Fatalf("dedup re-upload cost %d bytes on the wire, want <= 128 (hash + key + header)", refBytes)
	}
	got, err := client.Fetch("b.w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), w.Bytes()) {
		t.Fatal("dedup-stored tensor differs from the original")
	}
}

func TestCompressionShrinksCompressibleUploads(t *testing.T) {
	srv := NewServer(device.A100)
	client, ctr := wirePair(t, srv)
	if _, err := client.Negotiate(nil, transport.FeatCompress); err != nil {
		t.Fatal(err)
	}
	// Zeros deflate to nearly nothing; what matters is that counters see
	// on-wire (compressed) bytes and the payload survives.
	w := tensor.New(tensor.F32, 128, 128)
	if _, err := client.Upload("z", w); err != nil {
		t.Fatal(err)
	}
	sent, _, _ := ctr.Snapshot()
	if sent > int64(w.NumBytes())/4 {
		t.Fatalf("compressed upload counted %d wire bytes for a %d-byte zero tensor", sent, w.NumBytes())
	}
	got, err := client.Fetch("z", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), w.Bytes()) {
		t.Fatal("compressed upload corrupted payload")
	}
}

// TestLegacyBytesIdenticalWithFeaturesOff locks the compatibility
// contract: a client that never negotiates produces exactly the same
// wire bytes as the pre-feature protocol, Cache hints and all.
func TestLegacyBytesIdenticalWithFeaturesOff(t *testing.T) {
	w := bigTensor(3, 16, 16)
	up := transport.EncodeUpload(&transport.Upload{Key: "k", Data: w})

	g := srg.New("legacy")
	in := g.MustAdd(&srg.Node{Op: "input", Ref: "x",
		Output: srg.TensorMeta{Shape: []int{16, 16}}})
	out := g.MustAdd(&srg.Node{Op: "relu", Inputs: []srg.NodeID{in},
		Output: srg.TensorMeta{Shape: []int{16, 16}}})
	plain, err := transport.EncodeExec(&transport.Exec{
		Graph: g,
		Binds: []transport.Binding{{Ref: "x", Inline: w}},
		Want:  []srg.NodeID{out},
	})
	if err != nil {
		t.Fatal(err)
	}
	hinted, err := transport.EncodeExec(&transport.Exec{
		Graph: g,
		Binds: []transport.Binding{{Ref: "x", Inline: w, Cache: false}},
		Want:  []srg.NodeID{out},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, hinted) {
		t.Fatal("zero-valued Cache field changed the exec encoding")
	}

	// Same RPCs through two pipes — one legacy server, one feature-capable
	// server nobody negotiated with — must move identical byte counts.
	run := func(srv *Server) (int64, int64) {
		client, ctr := wirePair(t, srv)
		if _, err := client.Upload("k", w); err != nil {
			t.Fatal(err)
		}
		x := &transport.Exec{
			Graph: g,
			// Cache hints as the naive runtime now sets them: stripped on
			// the wire because no features were negotiated.
			Binds: []transport.Binding{{Ref: "x", Inline: w, Cache: true}},
			Want:  []srg.NodeID{out},
		}
		if _, err := client.Exec(x); err != nil {
			t.Fatal(err)
		}
		s, r, _ := ctr.Snapshot()
		return s, r
	}
	legacy := NewServer(device.A100)
	legacy.SetWireFeatures(0)
	s0, r0 := run(legacy)
	s1, r1 := run(NewServer(device.A100))
	if s0 != s1 || r0 != r1 {
		t.Fatalf("feature-capable server moved (%d,%d) bytes, legacy (%d,%d)", s1, r1, s0, r0)
	}
	if up == nil {
		t.Fatal("unreachable")
	}
}

// TestExecHashRefAfterUpload: weights uploaded (and remembered) can bind
// by hash in a later exec without re-sending bytes.
func TestExecHashRefAfterUpload(t *testing.T) {
	srv := NewServer(device.A100)
	client, ctr := wirePair(t, srv)
	if _, err := client.Negotiate(nil, transport.FeatDedup); err != nil {
		t.Fatal(err)
	}
	w := bigTensor(4, 64, 64)
	g := srg.New("ref")
	in := g.MustAdd(&srg.Node{Op: "input", Ref: "w",
		Output: srg.TensorMeta{Shape: []int{64, 64}}})
	out := g.MustAdd(&srg.Node{Op: "relu", Inputs: []srg.NodeID{in},
		Output: srg.TensorMeta{Shape: []int{64, 64}}})
	x := &transport.Exec{
		Graph: g,
		Binds: []transport.Binding{{Ref: "w", Inline: w, Cache: true}},
		Want:  []srg.NodeID{out},
	}
	// First exec ships the tensor inline (kind 3) and the server caches it.
	if _, err := client.Exec(x); err != nil {
		t.Fatal(err)
	}
	sent0, _, _ := ctr.Snapshot()
	// Second exec must rewrite to a hash ref: tiny on the wire.
	if _, err := client.Exec(x); err != nil {
		t.Fatal(err)
	}
	sent1, _, _ := ctr.Snapshot()
	if refCost := sent1 - sent0; refCost > int64(w.NumBytes())/16 {
		t.Fatalf("hash-ref exec cost %d bytes, want far under the %d-byte tensor", refCost, w.NumBytes())
	}
}

// TestCrashFlushesDedupAndRecovers: after a server crash the client's
// first cheap-path attempt fails recoverably and falls back to a full
// upload; callers never see the cache miss.
func TestCrashFlushesDedupAndRecovers(t *testing.T) {
	srv := NewServer(device.A100)
	client, _ := wirePair(t, srv)
	if _, err := client.Negotiate(nil, transport.FeatAll); err != nil {
		t.Fatal(err)
	}
	w := bigTensor(5, 32, 32)
	if _, err := client.Upload("a", w); err != nil {
		t.Fatal(err)
	}
	if err := client.Crash(); err != nil {
		t.Fatal(err)
	}
	// Dedup would hash-ref here; the server lost its content cache, so
	// the client must transparently fall back and still succeed.
	if _, err := client.Upload("b", w); err != nil {
		t.Fatalf("upload after crash: %v", err)
	}
	got, err := client.Fetch("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), w.Bytes()) {
		t.Fatal("post-crash upload corrupted payload")
	}
}

// TestQuantPolicyStoresInt8 verifies upload admission rewrites weight
// tensors under the server's quant policy while leaving other keys f32.
func TestQuantPolicyStoresInt8(t *testing.T) {
	srv := NewServer(device.A100)
	srv.SetQuantPolicy(quant.Int8)
	client, _ := wirePair(t, srv)
	w := bigTensor(6, 32, 48)
	if _, err := client.Upload("blk.attn.wq.w", w); err != nil {
		t.Fatal(err)
	}
	stored, err := client.Fetch("blk.attn.wq.w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if stored.DType() != tensor.I8 {
		t.Fatalf("weight stored as %v, want i8", stored.DType())
	}
	if stored.Scales() == nil || stored.QuantAxis() != 1 {
		t.Fatal("quantized weight lost its per-column scales on the wire")
	}
	act := bigTensor(7, 4, 4)
	if _, err := client.Upload("kv.cache", act); err != nil {
		t.Fatal(err)
	}
	other, err := client.Fetch("kv.cache", 0)
	if err != nil {
		t.Fatal(err)
	}
	if other.DType() != tensor.F32 {
		t.Fatalf("non-weight key stored as %v, want untouched f32", other.DType())
	}
}
