package runtime_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"

	"genie/internal/kvcache"
	"genie/internal/models"
	"genie/internal/runtime"
	"genie/internal/transport"
)

// frameRecorder hashes every Exec the sessions above it dispatch, in
// dispatch order, exactly as the transport would encode it. Several
// endpoints of one configuration (a split's two sides, a pool's members)
// share one recorder, so the digest also pins the order of the hops.
type frameRecorder struct {
	mu     sync.Mutex
	digest [sha256.Size]byte
	frames int
	bytes  int
}

func (r *frameRecorder) record(x *transport.Exec) {
	p, err := transport.EncodeExecPooled(x)
	if err != nil {
		panic(err)
	}
	defer transport.ReleaseEncoded(p)
	r.mu.Lock()
	defer r.mu.Unlock()
	// Chain the digests so frame boundaries are part of the hash.
	h := sha256.New()
	h.Write(r.digest[:])
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
	h.Write(n[:])
	h.Write(p)
	h.Sum(r.digest[:0])
	r.frames++
	r.bytes += len(p)
}

func (r *frameRecorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.digest, r.frames, r.bytes = [sha256.Size]byte{}, 0, 0
}

func (r *frameRecorder) line(row string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return fmt.Sprintf("%s %s %d %d", row, hex.EncodeToString(r.digest[:]), r.frames, r.bytes)
}

// recordedEP forwards to a real client and records what passed.
type recordedEP struct {
	*transport.Client
	rec *frameRecorder
}

func (e recordedEP) Exec(x *transport.Exec) (*transport.ExecOK, error) {
	e.rec.record(x)
	return e.Client.Exec(x)
}

func (e recordedEP) ExecCtx(ctx context.Context, x *transport.Exec) (*transport.ExecOK, error) {
	e.rec.record(x)
	return e.Client.ExecCtx(ctx, x)
}

var goldenPrompt = []int64{5, 17, 42, 3, 9, 28, 54, 11, 2, 33}

// TestFrameGolden pins the encoded Exec frames of every configuration
// the benchmark runs (semantics-aware on one endpoint, the split on a
// prefix miss and on a hit, a 2-member pool) plus the two blind modes:
// a fixed prompt and four decode steps must put byte-identical frames on
// the wire in the same order as when testdata/frames.golden was
// recorded. The token parity matrix cannot see a change of graph
// builder, Want set or bind order; the benchmark's wire_bytes_per_tok
// bound can, but only after the fact.
func TestFrameGolden(t *testing.T) {
	if goruntime.GOARCH != "amd64" {
		// Inline activations are float payloads; architectures that fuse
		// multiply-adds produce different bits (and the golden was
		// recorded on amd64).
		t.Skip("frame digests cover float payloads recorded on amd64")
	}
	want := map[string]string{}
	f, err := os.Open("testdata/frames.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want[strings.Fields(line)[0]] = line
		}
	}

	const steps = 5 // prefill + 4 decode steps
	ctx := context.Background()
	rec := &frameRecorder{}
	wrap := func(n *node) recordedEP { return recordedEP{n.cli, rec} }
	session := func(r *runtime.LLMRunner, mode runtime.Mode, scope string) {
		t.Helper()
		s, err := r.NewScopedSessionCtx(ctx, mode, scope)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := drive(ctx, s, goldenPrompt, steps); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	check := func(row string) {
		t.Helper()
		if got := rec.line(row); got != want[row] {
			t.Errorf("frames changed (row digest frames bytes):\n got  %s\n want %s", got, want[row])
		}
		rec.reset()
	}

	for _, tc := range []struct {
		row  string
		mode runtime.Mode
	}{
		{"naive", runtime.ModeNaive},
		{"delta_kv", runtime.ModeDeltaKV},
		{"aware", runtime.ModeSemAware},
	} {
		r := &runtime.LLMRunner{Model: newModel(models.TinyGPT), EP: wrap(startNode(t, wirePlan))}
		session(r, tc.mode, "g/")
		check(tc.row)
	}

	m := newModel(models.TinyGPT)
	sp := newSplit(t, kvcache.SplitConfig{
		Model: m, Prefill: wrap(startNode(t, wirePlan)), Decode: wrap(startNode(t, wirePlan)), Cache: newCache(t, m),
	})
	session(sp.Runner(), runtime.ModeSemAware, "g0/")
	check("split_miss")
	session(sp.Runner(), runtime.ModeSemAware, "g1/")
	check("split_hit")

	pm := newPool(t, newModel(models.TinyGPT), wrap(startNode(t, wirePlan)), wrap(startNode(t, wirePlan)))
	if got := len(pm.Plan().Members()); got != 2 {
		t.Fatalf("pool plan spans %d members, want 2", got)
	}
	session(pm.Runner(), runtime.ModeSemAware, "g/")
	check("pool2")
}
