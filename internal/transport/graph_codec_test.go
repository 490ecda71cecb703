package transport

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"genie/internal/models"
	"genie/internal/srg"
)

// TestDecodeErrorClasses pins which failures poison a connection: a
// malformed frame around the graph is a FrameError, while a graph or
// plan diff that does not decode is srg's plain error — the frame
// boundaries held, only the graph was bad.
func TestDecodeErrorClasses(t *testing.T) {
	x := planExec(3)
	exec, err := EncodeExec(x)
	if err != nil {
		t.Fatal(err)
	}
	install, err := encodeExecPlan(0, nil, x)
	if err != nil {
		t.Fatal(err)
	}
	patch, err := encodeExecPlan(0, x.Graph, planExec(4))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(p []byte, at int) []byte {
		c := append([]byte{}, p...)
		c[at] ^= 0xff
		return c
	}
	// The graph section starts after its u32 length: at 4 in an exec, at
	// planHeader in a plan frame.
	for _, c := range []struct {
		name     string
		frame    []byte
		plan     bool
		frameErr bool
	}{
		{"exec: truncated tail", exec[:len(exec)-3], false, true},
		{"exec: graph length past the payload", corrupt(exec, 3), false, true},
		{"exec: corrupt graph magic", corrupt(exec, 4), false, false},
		{"exec: corrupt node count", corrupt(exec, 4+4+2+len(x.Graph.Name)+3), false, false},
		{"plan: truncated tail", patch[:len(patch)-3], true, true},
		{"plan: invalid kind", corrupt(patch, 1), true, true},
		{"plan: corrupt install graph", corrupt(install, planHeader), true, false},
		{"plan: corrupt patch", corrupt(patch, planHeader+4), true, false},
	} {
		var err error
		if c.plan {
			slots := make([]*srg.Graph, PlanSlots)
			if _, err = DecodeExecPlan(install, slots); err != nil {
				t.Fatal(err)
			}
			_, err = DecodeExecPlan(c.frame, slots)
		} else {
			_, err = DecodeExec(c.frame)
		}
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if IsFrameError(err) != c.frameErr {
			t.Errorf("%s: FrameError %v, want %v (%v)", c.name, IsFrameError(err), c.frameErr, err)
		}
		if !c.frameErr && !strings.HasPrefix(err.Error(), "srg: ") {
			t.Errorf("%s: %v is not srg's error", c.name, err)
		}
	}
}

// midPrefillGraph is the graph of a 32-token prefill of the benchmark's
// kernel-bound model (4 layers, dim 128): 134 nodes, 12 273 bytes.
func midPrefillGraph(t *testing.T) *srg.Graph {
	t.Helper()
	m := models.NewGPT(rand.New(rand.NewSource(1)), models.GPTConfig{
		Layers: 4, Dim: 128, Heads: 4, Hidden: 512,
		Vocab: 512, MaxSeq: 256, WeightBytesPerParam: 4,
	})
	tokens := make([]int64, 32)
	for i := range tokens {
		tokens[i] = int64(i)
	}
	b, _ := m.BuildPrefill(tokens)
	return b.Graph()
}

// TestGraphCodecAllocations pins the codec's allocations on a full
// prefill graph. The io.Writer codec it replaced made 1 685 allocations
// to encode, 3 081 to decode and 1 685 (11 848 B) per fingerprint.
func TestGraphCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects at random")
	}
	g := midPrefillGraph(t)
	buf := make([]byte, 0, g.BinarySize())
	enc, err := g.AppendBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != cap(buf) {
		t.Fatalf("encoded %d bytes, BinarySize says %d", len(enc), cap(buf))
	}
	if n := testing.AllocsPerRun(20, func() { _, _ = g.AppendBinary(buf[:0]) }); n > 2 {
		t.Errorf("appending into a presized buffer: %.0f allocations, want <= 2", n)
	}
	if n := testing.AllocsPerRun(20, func() { _, _ = srg.Decode(enc) }); n > 774 {
		t.Errorf("decode: %.0f allocations, want <= 774", n)
	}
	const calls = 50
	g.Fingerprint()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		g.Fingerprint()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per > 11848 {
		t.Errorf("fingerprint allocates %d B per call, want <= 11 848", per)
	}
}
