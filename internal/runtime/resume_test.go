package runtime_test

import (
	"fmt"
	"testing"

	"genie/internal/backend"
	"genie/internal/models"
	"genie/internal/quant"
	"genie/internal/runtime"
)

// oddGPT has dims no kernel tiles evenly: the int8 SWAR kernels' 4-column
// groups leave a remainder.
var oddGPT = models.GPTConfig{Layers: 3, Dim: 30, Heads: 3, Hidden: 70, Vocab: 101, MaxSeq: 64, WeightBytesPerParam: 4}

// resumePrompts with resumeMaxK put the token logs of length 1+3, 1+4,
// 7+1, 7+2, 7+5 and 7+6 at and across the 4-token pages of newCache.
var resumePrompts = [][]int64{{7}, {5, 17, 42, 3, 9, 28, 54}}

const resumeMaxK = 6

// kvRows reads a session's KV, per layer K then V, as bytes.
type kvRows func(s *runtime.Session, scope string) [][]byte

func localRows(s *runtime.Session, _ string) [][]byte {
	var out [][]byte
	for _, c := range s.LocalKV() {
		out = append(out, append([]byte(nil), c.K.Bytes()...), append([]byte(nil), c.V.Bytes()...))
	}
	return out
}

func backendRows(srv *backend.Server, layers int) kvRows {
	return func(_ *runtime.Session, scope string) [][]byte {
		var out [][]byte
		for i := 0; i < layers; i++ {
			for _, kind := range []string{"k", "v"} {
				t, err := srv.Lookup(scope+models.CacheRef(i, kind), 0)
				if err != nil {
					return nil
				}
				out = append(out, append([]byte(nil), t.Bytes()...))
			}
		}
		return out
	}
}

// checkResume decodes prompt stepwise on a stepwise session and, for
// every k, prefills prompt ‖ t₁…t_k on a fresh resume session: the next
// token and every KV row must equal what k decode steps built.
func checkResume(t *testing.T, prompt []int64, stepwise, resume func(scope string) *runtime.Session, rows kvRows) {
	t.Helper()
	s := stepwise("step/")
	defer func() { _ = s.Close() }()
	tok, err := s.Prefill(prompt)
	if err != nil {
		t.Fatal(err)
	}
	toks := []int64{tok}
	var want [][][]byte
	for k := 1; k <= resumeMaxK; k++ {
		if tok, err = s.Step(); err != nil {
			t.Fatal(err)
		}
		toks = append(toks, tok)
		want = append(want, rows(s, "step/"))
	}
	for k := 1; k <= resumeMaxK; k++ {
		scope := fmt.Sprintf("resume%d/", k)
		rs := resume(scope)
		log := append(append([]int64(nil), prompt...), toks[:k]...)
		got, err := rs.Prefill(log)
		if err != nil {
			t.Fatal(err)
		}
		if got != toks[k] {
			t.Errorf("prompt %d + k %d: resume gives token %d, stepwise decode %d", len(prompt), k, got, toks[k])
		}
		gotRows := rows(rs, scope)
		if len(gotRows) == 0 || len(gotRows) != len(want[k-1]) {
			t.Fatalf("prompt %d + k %d: resume holds %d KV tensors, stepwise %d", len(prompt), k, len(gotRows), len(want[k-1]))
		}
		for i := range gotRows {
			if string(gotRows[i]) != string(want[k-1][i]) {
				t.Errorf("prompt %d + k %d: KV tensor %d (layer %d %s) differs from stepwise decode",
					len(prompt), k, i, i/2, [2]string{"K", "V"}[i%2])
			}
		}
		_ = rs.Close()
	}
}

// TestResumeMatchesStepwiseDecode pins the premise of recovery by
// resume: decode KV is exactly the prefill KV of the longer prompt, so
// one prefill over the token log rebuilds, bit for bit, the next token
// and every KV row that stepwise decode built — at every weight
// precision, at odd dims, over a backend and through a radix hit.
func TestResumeMatchesStepwiseDecode(t *testing.T) {
	for _, geom := range []struct {
		name string
		cfg  models.GPTConfig
	}{{"tiny", models.TinyGPT}, {"odd", oddGPT}} {
		for _, q := range []quant.Mode{quant.Off, quant.F16, quant.Int8} {
			t.Run(geom.name+"/"+q.String(), func(t *testing.T) {
				m := newModel(geom.cfg)
				if err := models.Quantize(m, q); err != nil {
					t.Fatal(err)
				}
				r := &runtime.LLMRunner{Model: m}
				open := func(scope string) *runtime.Session {
					s, err := r.NewScopedSession(runtime.ModeLocal, scope)
					if err != nil {
						t.Fatal(err)
					}
					return s
				}
				for _, prompt := range resumePrompts {
					checkResume(t, prompt, open, open, localRows)
				}
			})
		}
	}

	t.Run("sem_aware_backend", func(t *testing.T) {
		m := newModel(models.TinyGPT)
		n := startNode(t, wirePlan)
		r := &runtime.LLMRunner{Model: m, EP: n.cli}
		if _, err := r.InstallModelWeights(); err != nil {
			t.Fatal(err)
		}
		open := func(scope string) *runtime.Session {
			s, err := r.NewScopedSession(runtime.ModeSemAware, scope)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		checkResume(t, resumePrompts[1], open, open, backendRows(n.srv, m.Cfg.Layers))
	})

	t.Run("prefix_cached", func(t *testing.T) {
		m := newModel(models.TinyGPT)
		prompt := resumePrompts[1]
		cache := newCache(t, m)
		cached := cache.Runner()
		seed, err := cached.NewScopedSession(runtime.ModeLocal, "seed/")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := seed.Prefill(prompt); err != nil {
			t.Fatal(err)
		}
		_ = seed.Close()
		plain := &runtime.LLMRunner{Model: m}
		open := func(r *runtime.LLMRunner) func(string) *runtime.Session {
			return func(scope string) *runtime.Session {
				s, err := r.NewScopedSession(runtime.ModeLocal, scope)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
		}
		before := cache.Snapshot()
		checkResume(t, prompt, open(plain), open(cached), localRows)
		// Every resume's radix hit covered at least the seeded prompt.
		st := cache.Snapshot()
		if hits := st.Hits - before.Hits; hits != resumeMaxK {
			t.Errorf("%d radix hits over %d resumes", hits, resumeMaxK)
		}
		if saved, floor := st.BytesSaved-before.BytesSaved, int64(resumeMaxK*len(prompt))*m.Cfg.KVBytesPerToken(); saved < floor {
			t.Errorf("radix hits saved %d B, want at least %d (the prompt, every resume)", saved, floor)
		}
	})
}
