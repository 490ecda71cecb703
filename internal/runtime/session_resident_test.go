package runtime

import (
	"math/rand"
	"strings"
	"testing"

	"genie/internal/models"
	"genie/internal/tensor"
	"genie/internal/transport"
)

// fakeFreeEP records Free calls; every other endpoint method is unused by
// these tests.
type fakeFreeEP struct {
	freed []string
}

func (f *fakeFreeEP) Upload(key string, data *tensor.Tensor) (*transport.UploadOK, error) {
	return &transport.UploadOK{}, nil
}
func (f *fakeFreeEP) Exec(x *transport.Exec) (*transport.ExecOK, error) {
	return &transport.ExecOK{}, nil
}
func (f *fakeFreeEP) Fetch(key string, epoch uint32) (*tensor.Tensor, error) { return nil, nil }
func (f *fakeFreeEP) Free(key string) error {
	f.freed = append(f.freed, key)
	return nil
}
func (f *fakeFreeEP) Stats() (*transport.Stats, error) { return &transport.Stats{}, nil }

func localRunner(seed int64, ep Endpoint) *LLMRunner {
	rng := rand.New(rand.NewSource(seed))
	return &LLMRunner{Model: models.NewGPT(rng, models.TinyGPT), EP: ep}
}

// TestResidentKeysUniformAcrossModes pins the residency accounting: every
// mode reports a non-nil key set in the same key space — the naive
// replay's is empty, not nil, because "accounted, zero keys" is an
// answer.
func TestResidentKeysUniformAcrossModes(t *testing.T) {
	const scope = "req7/"
	wantScoped := 2 * models.TinyGPT.Layers

	ep := &fakeFreeEP{}
	r := localRunner(1, ep)

	for _, tc := range []struct {
		mode Mode
		keys int
	}{
		{ModeLocal, wantScoped},
		{ModeNaive, 0},
		{ModeDeltaKV, wantScoped},
		{ModeSemAware, wantScoped},
	} {
		s, err := r.NewScopedSession(tc.mode, scope)
		if err != nil {
			t.Fatalf("%s: %v", tc.mode, err)
		}
		keys := s.ResidentKeys()
		if keys == nil {
			t.Fatalf("%s: ResidentKeys() = nil; want non-nil accounting", tc.mode)
		}
		if len(keys) != tc.keys {
			t.Fatalf("%s: %d resident keys, want %d", tc.mode, len(keys), tc.keys)
		}
		for _, k := range keys {
			if !strings.HasPrefix(k, scope+"gpt.kv.") {
				t.Fatalf("%s: key %q outside the scoped cache plane", tc.mode, k)
			}
		}
	}
}

// TestCloseFreesOnlyEndpointResidentState pins down the Close contract
// the uniform accounting must not disturb: reporting keys for
// client-local caches (local mode) or for unscoped shared refs must not
// cause Close to Free them.
func TestCloseFreesOnlyEndpointResidentState(t *testing.T) {
	ep := &fakeFreeEP{}
	r := localRunner(2, ep)

	// Local mode: keys reported, nothing endpoint-resident, no Free.
	s, err := r.NewScopedSession(ModeLocal, "req1/")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.ResidentKeys()) == 0 {
		t.Fatal("local session reports no keys")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(ep.freed) != 0 {
		t.Fatalf("local Close freed %v", ep.freed)
	}

	// Unscoped semantics-aware: caches live under the bare refs shared
	// with Generate; Close must leave them alone.
	s, err = r.NewSession(ModeSemAware)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.ResidentKeys()); got != 2*models.TinyGPT.Layers {
		t.Fatalf("unscoped sem session reports %d keys", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(ep.freed) != 0 {
		t.Fatalf("unscoped Close freed %v", ep.freed)
	}

	// Scoped semantics-aware: Close frees exactly the scoped plane.
	s, err = r.NewScopedSession(ModeSemAware, "req2/")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := len(ep.freed), 2*models.TinyGPT.Layers; got != want {
		t.Fatalf("scoped Close freed %d keys, want %d", got, want)
	}
	for _, k := range ep.freed {
		if !strings.HasPrefix(k, "req2/gpt.kv.") {
			t.Fatalf("scoped Close freed foreign key %q", k)
		}
	}
}
