package kvcache

import (
	"fmt"
	"math/rand"
	"testing"

	"genie/internal/backend"
	"genie/internal/device"
	"genie/internal/models"
	"genie/internal/runtime"
	"genie/internal/transport"
)

// pipeBackend is an in-process backend over a synchronous pipe with
// explicit shutdown (goroutine-leak checks run after teardown).
type pipeBackend struct {
	cli          *transport.Client
	ctr          *transport.Counters
	srv          *backend.Server
	cconn, sconn *transport.Conn
}

func startPipeBackend(t *testing.T) *pipeBackend {
	t.Helper()
	ctr := &transport.Counters{}
	cconn, sconn := transport.Pipe(ctr, nil)
	srv := backend.NewServer(device.A100)
	go func() { _ = srv.Serve(sconn) }()
	pb := &pipeBackend{cli: transport.NewClient(cconn), ctr: ctr, srv: srv, cconn: cconn, sconn: sconn}
	if _, err := pb.cli.Negotiate(nil, transport.FeatAll); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pb.stop)
	return pb
}

func (p *pipeBackend) stop() {
	p.cconn.Close()
	p.sconn.Close()
}

func generateScoped(t *testing.T, r *runtime.LLMRunner, mode runtime.Mode, scope string, prompt []int64, steps int) []int64 {
	t.Helper()
	s, err := r.NewScopedSession(mode, scope)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := s.Prefill(prompt)
	if err != nil {
		t.Fatal(err)
	}
	out := []int64{tok}
	for i := 1; i < steps; i++ {
		tok, err = s.Step()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tok)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

var parityPrompt = []int64{5, 17, 42, 3, 9, 28, 54, 11, 2, 33}

// TestRemoteCachedWarmPrefixDedups: with the prefix cache in front of a
// fused-RPC runner, repeated prefixes must both hit the radix tree and
// dedup on the wire (a warm request ships fewer bytes than the cold
// one). Token parity and Close accounting are rows of the session parity
// matrix in internal/runtime.
func TestRemoteCachedWarmPrefixDedups(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	model := models.NewGPT(rng, models.TinyGPT)
	const steps = 5

	pb := startPipeBackend(t)
	mgr, err := NewManager(Config{Model: model, BudgetBytes: 1 << 20, PageTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	r := mgr.RunnerOn(pb.cli, pb.ctr)
	if _, err := r.InstallModelWeights(); err != nil {
		t.Fatal(err)
	}

	var requestBytes []int64
	for i := 0; i < 3; i++ {
		before := pb.ctr.Total()
		generateScoped(t, r, runtime.ModeSemAware, fmt.Sprintf("req%d/", i), parityPrompt, steps)
		requestBytes = append(requestBytes, pb.ctr.Total()-before)
	}
	if st := mgr.Snapshot(); st.Hits < 2 {
		t.Fatalf("radix hits %d, want >= 2", st.Hits)
	}
	// Warm passes bind the gathered prefix with the dedup hint; after the
	// first trip the prefix content collapses to hashes, so a warm
	// request must move fewer bytes than the cold one.
	if requestBytes[2] >= requestBytes[0] {
		t.Fatalf("warm request moved %d bytes >= cold %d", requestBytes[2], requestBytes[0])
	}
}
