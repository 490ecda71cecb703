package srg

import (
	"bytes"
	"io"
	"strconv"
	"sync"
	"testing"
)

// stepGraph is a miniature decode step at history length hist: the node
// fields that follow the history (dims, costs, the mask offset) move,
// everything else is structure.
func stepGraph(hist int) *Graph {
	g := New("step")
	x := g.MustAdd(&Node{Op: "input", Ref: "x", Residency: ResidencyExternalInput,
		Output: TensorMeta{Shape: []int{1, 8}}})
	cache := g.MustAdd(&Node{Op: "input", Ref: "cache", Residency: ResidencyStatefulKVCache,
		Cost: CostHints{Bytes: int64(hist * 32)}, Output: TensorMeta{Shape: []int{hist, 8}}})
	cat := g.MustAdd(&Node{Op: "concat", Inputs: []NodeID{cache, x}, Module: "blk.attn",
		Attrs: map[string]string{"dim": "0", "state_key": "k"}, Phase: PhaseLLMDecode,
		Cost: CostHints{Bytes: int64(2 * (hist + 1) * 32)}, Output: TensorMeta{Shape: []int{hist + 1, 8}}})
	sc := g.MustAdd(&Node{Op: "matmul_t", Inputs: []NodeID{x, cat}, Module: "blk.attn",
		Cost:   CostHints{FLOPs: float64(16*(hist+1)) + 0.75, Bytes: int64(4 * (hist + 1))},
		Output: TensorMeta{Shape: []int{1, hist + 1}}})
	g.MustAdd(&Node{Op: "causal_mask", Inputs: []NodeID{sc}, Module: "blk.attn",
		Attrs:  map[string]string{"offset": strconv.Itoa(hist)},
		Output: TensorMeta{Shape: []int{1, hist + 1}}})
	g.SetEdgeCritical(sc, 1, true)
	g.SetEdgeRate(cat, 0, 0.5)
	return g
}

func encoded(t *testing.T, g *Graph) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := g.Encode(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func decoded(t *testing.T, g *Graph) *Graph {
	t.Helper()
	out, err := Decode(bytes.NewReader(encoded(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDiffApplyReachesTheDecodedGraph is the plan contract: a graph the
// server decoded once, patched step after step with the client's diffs,
// is byte for byte the graph a full decode of each step would give.
func TestDiffApplyReachesTheDecodedGraph(t *testing.T) {
	prev := stepGraph(3)
	resident := decoded(t, prev)
	full := len(encoded(t, prev))
	for _, hist := range []int{4, 5, 40, 7} {
		next := stepGraph(hist)
		diff, ok := AppendDiff([]byte("hdr"), prev, next)
		if !ok {
			t.Fatalf("hist %d: same structure reported as different", hist)
		}
		if string(diff[:3]) != "hdr" {
			t.Fatal("AppendDiff clobbered dst's prefix")
		}
		diff = diff[3:]
		if len(diff)*2 > full {
			t.Errorf("hist %d: diff is %d bytes of a %d-byte graph", hist, len(diff), full)
		}
		if err := resident.ApplyDiff(diff); err != nil {
			t.Fatalf("hist %d: %v", hist, err)
		}
		if !bytes.Equal(encoded(t, resident), encoded(t, next)) {
			t.Fatalf("hist %d: patched graph differs from the graph it should have become", hist)
		}
		if resident.Fingerprint() != next.Fingerprint() {
			t.Fatalf("hist %d: fingerprints differ", hist)
		}
		prev = next
	}
	// No change at all is a diff too: four bytes.
	diff, ok := AppendDiff(nil, prev, stepGraph(7))
	if !ok || len(diff) != 4 {
		t.Fatalf("identical graphs: ok=%v, %d bytes", ok, len(diff))
	}
}

func TestDiffRefusesStructuralChange(t *testing.T) {
	base := stepGraph(3)
	for name, mutate := range map[string]func(g *Graph){
		"name":      func(g *Graph) { g.Name = "other" },
		"op":        func(g *Graph) { g.Node(3).Op = "matmul" },
		"ref":       func(g *Graph) { g.Node(1).Ref = "cache2" },
		"module":    func(g *Graph) { g.Node(2).Module = "blk2.attn" },
		"phase":     func(g *Graph) { g.Node(2).Phase = PhaseLLMPrefill },
		"residency": func(g *Graph) { g.Node(1).Residency = ResidencyExternalInput },
		"modality":  func(g *Graph) { g.Node(0).Modality = ModalityText },
		"input":     func(g *Graph) { g.Node(3).Inputs[1] = 1 },
		"attr key":  func(g *Graph) { g.Node(4).Attrs = map[string]string{"start": "3"} },
		"attr gone": func(g *Graph) { g.Node(4).Attrs = nil },
		"dtype":     func(g *Graph) { g.Node(0).Output.DType = 2 },
		"rank":      func(g *Graph) { g.Node(0).Output.Shape = []int{8} },
		"nodes":     func(g *Graph) { g.MustAdd(&Node{Op: "relu", Inputs: []NodeID{4}}) },
		"edge":      func(g *Graph) { g.SetEdgeCritical(4, 0, true) },
		"edge rate": func(g *Graph) { g.SetEdgeRate(2, 0, 0.25) },
	} {
		next := stepGraph(3)
		mutate(next)
		if out, ok := AppendDiff([]byte{9}, base, next); ok || len(out) != 1 {
			t.Errorf("%s: structural change produced a diff (ok=%v, dst len %d)", name, ok, len(out))
		}
	}
}

func TestApplyDiffRejectsMalformed(t *testing.T) {
	good, ok := AppendDiff(nil, stepGraph(3), stepGraph(4))
	if !ok {
		t.Fatal("no diff")
	}
	le := func(v uint32) []byte { return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)} }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	cases := map[string][]byte{
		"empty":             nil,
		"count only":        le(1),
		"node out of range": cat(le(1), le(99), []byte{patchCost}, make([]byte, 16)),
		"node out of order": cat(le(2), le(3), []byte{patchCost}, make([]byte, 16), le(2), []byte{patchCost}, make([]byte, 16)),
		"no fields":         cat(le(1), le(2), []byte{0}),
		"unknown field":     cat(le(1), le(2), []byte{0x80}),
		"bad rank":          cat(le(1), le(2), []byte{patchShape, 3}, make([]byte, 12)),
		"short dims":        cat(le(1), le(2), []byte{patchShape, 2}, make([]byte, 4)),
		"attr count":        cat(le(1), le(4), []byte{patchAttrs, 2, 0}),
		"attr on bare node": cat(le(1), le(0), []byte{patchAttrs, 1, 0, 1, 0, 'x'}),
		"short attr value":  cat(le(1), le(4), []byte{patchAttrs, 1, 0, 9, 0, 'x'}),
		"trailing bytes":    cat(good, []byte{0}),
		"truncated":         good[:len(good)-3],
	}
	for name, p := range cases {
		if err := decoded(t, stepGraph(3)).ApplyDiff(p); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestFingerprintDoesNotWriteTheGraph fingerprints one graph from two
// goroutines while a third encodes it: resident plan graphs, the client
// mirror and the session's hop builder share graphs for a long time. (Run
// under -race; Fingerprint used to blank and restore Name.)
func TestFingerprintDoesNotWriteTheGraph(t *testing.T) {
	g := stepGraph(5)
	want := g.Fingerprint()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if got := g.Fingerprint(); got != want {
					t.Errorf("fingerprint moved: %s, want %s", got, want)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			if err := g.Encode(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if d := decoded(t, g); d.Name != "step" {
		t.Fatalf("encoded name %q", d.Name)
	}
}
