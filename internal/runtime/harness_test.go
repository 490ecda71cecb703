package runtime_test

// Shared scaffolding of the external runtime tests (the parity matrix
// and the frame golden): they live in package runtime_test so they can
// assemble kvcache and pool runners, which import runtime.

import (
	"context"
	"math/rand"
	"testing"

	"genie/internal/backend"
	"genie/internal/cluster"
	"genie/internal/device"
	"genie/internal/kvcache"
	"genie/internal/models"
	"genie/internal/pool"
	"genie/internal/runtime"
	"genie/internal/transport"
)

// node is one in-process backend behind a transport pipe.
type node struct {
	srv *backend.Server
	cli *transport.Client
	ctr *transport.Counters
}

// wireTier is what a node's connection may speak.
type wireTier int

const (
	// wireLegacy: the server grants nothing, so every frame is a legacy
	// frame whatever a client asks for.
	wireLegacy wireTier = iota
	// wirePlan: nobody negotiates; a semantics-aware session asks for
	// resident plans on its own, the blind modes for nothing.
	wirePlan
	// wireFeatAll: the caller negotiates the full tier up front (dedup,
	// delta, compression, plans).
	wireFeatAll
)

var wireNames = [...]string{"legacy", "plan", "feat_all"}

// startNode serves a fresh backend over a pipe at the given wire tier.
func startNode(t *testing.T, wire wireTier) *node {
	t.Helper()
	ctr := &transport.Counters{}
	cconn, sconn := transport.Pipe(ctr, nil)
	srv := backend.NewServer(device.A100)
	if wire == wireLegacy {
		srv.SetWireFeatures(0)
	}
	go func() { _ = srv.Serve(sconn) }()
	t.Cleanup(func() {
		cconn.Close()
		sconn.Close()
	})
	n := &node{srv: srv, cli: transport.NewClient(cconn), ctr: ctr}
	if wire == wireFeatAll {
		if _, err := n.cli.Negotiate(context.Background(), transport.FeatAll); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func newModel(cfg models.GPTConfig) *models.GPT {
	return models.NewGPT(rand.New(rand.NewSource(17)), cfg)
}

// oracle generates steps tokens in the uncached in-process mode every
// other configuration must match bit for bit.
func oracle(t *testing.T, cfg models.GPTConfig, prompt []int64, steps int) []int64 {
	t.Helper()
	res, err := (&runtime.LLMRunner{Model: newModel(cfg)}).Generate(runtime.ModeLocal, prompt, steps)
	if err != nil {
		t.Fatal(err)
	}
	return res.Tokens
}

func newCache(t *testing.T, m *models.GPT) *kvcache.Manager {
	t.Helper()
	mgr, err := kvcache.NewManager(kvcache.Config{Model: m, BudgetBytes: 1 << 20, PageTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

// newSplit wires a prefill/decode split over the given endpoints and
// installs the weights on every one of them.
func newSplit(t *testing.T, cfg kvcache.SplitConfig) *kvcache.Split {
	t.Helper()
	sp, err := kvcache.NewSplit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.InstallWeights(); err != nil {
		t.Fatal(err)
	}
	return sp
}

// newPool shards m across the given member endpoints as pipeline
// stages, one stage per member while layers last (each join re-places,
// as no session is live yet).
func newPool(t *testing.T, m *models.GPT, members ...runtime.Endpoint) *pool.Manager {
	t.Helper()
	mgr, err := pool.NewManager(pool.Config{Model: m, Strategy: pool.StrategyPipeline, RebalanceOnJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, ep := range members {
		name := string(rune('a' + i))
		if err := mgr.Join(name, ep, device.A100, cluster.Link{Bandwidth: 3.125e9}); err != nil {
			t.Fatalf("join %s: %v", name, err)
		}
	}
	return mgr
}

// drive runs prefill plus steps-1 decode steps on an open session and
// returns the tokens.
func drive(ctx context.Context, s *runtime.Session, prompt []int64, steps int) ([]int64, error) {
	tok, err := s.PrefillCtx(ctx, prompt)
	if err != nil {
		return nil, err
	}
	out := []int64{tok}
	for len(out) < steps {
		if tok, err = s.StepCtx(ctx); err != nil {
			return out, err
		}
		out = append(out, tok)
	}
	return out, nil
}
