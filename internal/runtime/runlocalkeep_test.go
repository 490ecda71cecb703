package runtime

import (
	"math"
	"math/rand"
	"testing"

	"genie/internal/exec"
	"genie/internal/models"
	"genie/internal/srg"
)

// TestRunLocalKeepMatchesRunLocal: the lifetime-tracked evaluator behind
// local sessions (exec.GraphEphemeral) must return bit-identical values
// for the kept nodes, and nothing else, against the reference evaluator
// (exec.Graph).
func TestRunLocalKeepMatchesRunLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := models.NewGPT(rng, models.TinyGPT)
	prompt := []int64{3, 1, 4, 1, 5}

	b1, out1 := m.BuildPrefill(prompt)
	all, err := exec.Graph(b1.Graph(), BindAll(b1))
	if err != nil {
		t.Fatal(err)
	}
	b2, out2 := m.BuildPrefill(prompt)
	keep := map[srg.NodeID]bool{out2.NextToken: true, out2.CacheK[0]: true}
	kept, err := exec.GraphEphemeral(b2.Graph(), BindAll(b2), keep)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != len(keep) {
		t.Fatalf("GraphEphemeral returned %d values, want %d", len(kept), len(keep))
	}
	if got, want := kept[out2.NextToken].I64()[0], all[out1.NextToken].I64()[0]; got != want {
		t.Fatalf("next token %d, want %d", got, want)
	}
	gotK, wantK := kept[out2.CacheK[0]].F32(), all[out1.CacheK[0]].F32()
	for i := range wantK {
		if math.Float32bits(gotK[i]) != math.Float32bits(wantK[i]) {
			t.Fatalf("cache k diverges at %d: %v vs %v", i, gotK[i], wantK[i])
		}
	}
}

// TestLocalSessionMatchesGenerate: the ephemeral decode loop (buffer
// recycling, keep-set caching) must not change a single token relative
// to the one-shot Generate path.
func TestLocalSessionMatchesGenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	r := &LLMRunner{Model: models.NewGPT(rng, models.TinyGPT)}
	prompt := []int64{7, 2, 9}
	const steps = 12

	gen, err := r.Generate(ModeLocal, prompt, steps)
	if err != nil {
		t.Fatal(err)
	}
	s, err := r.NewSession(ModeLocal)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := s.Prefill(prompt)
	if err != nil {
		t.Fatal(err)
	}
	got := []int64{tok}
	for i := 0; i < steps-1; i++ {
		if tok, err = s.Step(); err != nil {
			t.Fatal(err)
		}
		got = append(got, tok)
	}
	if len(got) != len(gen.Tokens) {
		t.Fatalf("session produced %d tokens, Generate %d", len(got), len(gen.Tokens))
	}
	for i := range got {
		if got[i] != gen.Tokens[i] {
			t.Fatalf("token %d: session %d, Generate %d", i, got[i], gen.Tokens[i])
		}
	}
}
