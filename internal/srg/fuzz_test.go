package srg_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"genie/internal/frontend"
	"genie/internal/models"
	"genie/internal/nn"
	"genie/internal/srg"
	"genie/internal/tensor"
)

// seedGraphs are the graphs the library's workload models capture, run
// through the frontend annotation pipeline so phases, modalities and
// edge annotations are on the wire too.
func seedGraphs() []*srg.Graph {
	rng := rand.New(rand.NewSource(1))
	gpt := models.NewGPT(rng, models.TinyGPT)
	prefill, _ := gpt.BuildPrefill([]int64{1, 2, 3, 4, 5, 6, 7, 8})
	caches := make([]*nn.KVCache, gpt.Cfg.Layers)
	for i := range caches {
		caches[i] = &nn.KVCache{
			K: tensor.New(tensor.F32, 8, gpt.Cfg.Dim),
			V: tensor.New(tensor.F32, 8, gpt.Cfg.Dim),
		}
	}
	step, _ := gpt.BuildDecodeStep(1, 8, 8, caches)
	cnn, _ := models.NewCNN(rng, models.TinyCNN).BuildForward(tensor.New(tensor.F32, 3, 32, 32))
	dlrm, _ := models.NewDLRM(rng, models.TinyDLRM).BuildForward(models.DLRMRequest{
		Dense:     tensor.New(tensor.F32, 1, models.TinyDLRM.DenseFeatures),
		SparseIDs: [][]int64{{1, 2}, {3}, {4, 5}},
	})
	gs := []*srg.Graph{prefill.Graph(), step.Graph(), cnn.Graph(), dlrm.Graph()}
	for _, g := range gs {
		frontend.Annotate(g)
	}
	return gs
}

// FuzzDecodeGraph feeds the SRG decoder arbitrary bytes: it never
// panics, and whatever decodes re-encodes to exactly BinarySize bytes
// that decode and encode again to the same bytes.
func FuzzDecodeGraph(f *testing.F) {
	for _, g := range seedGraphs() {
		enc, err := g.AppendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	f.Add([]byte("SRG1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := srg.Decode(data)
		if err != nil {
			return
		}
		once, err := g.AppendBinary(nil)
		if err != nil {
			t.Fatalf("decoded graph fails to encode: %v", err)
		}
		if len(once) != g.BinarySize() {
			t.Fatalf("encoded %d bytes, BinarySize says %d", len(once), g.BinarySize())
		}
		back, err := srg.Decode(once)
		if err != nil {
			t.Fatalf("re-encoded graph fails to decode: %v", err)
		}
		twice, err := back.AppendBinary(nil)
		if err != nil || !bytes.Equal(once, twice) {
			t.Fatalf("decode → append → decode is not byte-stable (err %v)", err)
		}
	})
}

// TestDecodeRoundTripsModelGraphs: every model graph decodes from its
// encoding to a graph that encodes to the same bytes, under the same
// fingerprint.
func TestDecodeRoundTripsModelGraphs(t *testing.T) {
	for _, g := range seedGraphs() {
		enc, err := g.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		back, err := srg.Decode(enc)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		again, err := back.AppendBinary(nil)
		if err != nil || !bytes.Equal(enc, again) || back.Fingerprint() != g.Fingerprint() {
			t.Fatalf("%s: round trip differs (err %v)", g.Name, err)
		}
	}
}

// TestDecodeStringLimit: a graph string of 65 535 bytes round-trips, and
// one of 65 536 is an encode error (a u16 length prefix cannot carry
// it; it used to be written with prefix 0 and fail to decode).
func TestDecodeStringLimit(t *testing.T) {
	for _, n := range []int{0xffff, 0x10000} {
		g := srg.New("long")
		g.MustAdd(&srg.Node{Op: "input", Ref: strings.Repeat("r", n)})
		enc, err := g.AppendBinary(nil)
		if n > 0xffff {
			if err == nil {
				t.Errorf("%d-byte ref encoded", n)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%d-byte ref: %v", n, err)
		}
		back, err := srg.Decode(enc)
		if err != nil || back.Node(0).Ref != g.Node(0).Ref {
			t.Fatalf("%d-byte ref does not round-trip (err %v)", n, err)
		}
	}
}
