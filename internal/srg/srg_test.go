package srg

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// buildDiamond constructs input -> (a, b) -> out.
func buildDiamond(t *testing.T) (*Graph, NodeID, NodeID, NodeID, NodeID) {
	t.Helper()
	g := New("diamond")
	in := g.MustAdd(&Node{Op: "input", Ref: "x", Output: TensorMeta{DType: 0, Shape: []int{4}}})
	a := g.MustAdd(&Node{Op: "relu", Inputs: []NodeID{in}, Cost: CostHints{FLOPs: 10}})
	b := g.MustAdd(&Node{Op: "gelu", Inputs: []NodeID{in}, Cost: CostHints{FLOPs: 30}})
	out := g.MustAdd(&Node{Op: "add", Inputs: []NodeID{a, b}, Cost: CostHints{FLOPs: 5}})
	return g, in, a, b, out
}

func TestAddAssignsDenseIDs(t *testing.T) {
	g, in, a, b, out := buildDiamond(t)
	if in != 0 || a != 1 || b != 2 || out != 3 {
		t.Fatalf("ids %d %d %d %d", in, a, b, out)
	}
	if g.Len() != 4 {
		t.Fatalf("len %d", g.Len())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddRejectsUnknownInput(t *testing.T) {
	g := New("bad")
	if _, err := g.Add(&Node{Op: "relu", Inputs: []NodeID{5}}); err == nil {
		t.Error("dangling input should fail")
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	g := New("v")
	g.MustAdd(&Node{Op: "input", Ref: "x"})
	// Manually corrupt: leaf with missing ref.
	g.nodes = append(g.nodes, &Node{ID: 1, Op: "param"})
	if err := g.Validate(); err == nil {
		t.Error("param without ref should fail validation")
	}
	g2 := New("v2")
	g2.nodes = append(g2.nodes, &Node{ID: 0, Op: ""})
	if err := g2.Validate(); err == nil {
		t.Error("empty op should fail validation")
	}
	g3 := New("v3")
	g3.nodes = append(g3.nodes, &Node{ID: 0, Op: "relu", Inputs: []NodeID{0}})
	if err := g3.Validate(); err == nil {
		t.Error("self-loop should fail validation")
	}
	g4 := New("v4")
	g4.MustAdd(&Node{Op: "input", Ref: "x"})
	g4.nodes = append(g4.nodes, &Node{ID: 1, Op: "relu", Inputs: []NodeID{0},
		Output: TensorMeta{Shape: []int{0}}})
	if err := g4.Validate(); err == nil {
		t.Error("zero output dim should fail validation")
	}
}

func TestEdgesDerivedFromInputs(t *testing.T) {
	g, in, a, b, out := buildDiamond(t)
	edges := g.Edges()
	if len(edges) != 4 {
		t.Fatalf("%d edges", len(edges))
	}
	// Default rate is 1, non-critical.
	for _, e := range edges {
		if e.Rate != 1 || e.Critical {
			t.Errorf("edge %+v has non-default annotations", e)
		}
	}
	g.SetEdgeRate(out, 1, 0.5)
	g.SetEdgeCritical(out, 0, true)
	found := 0
	for _, e := range g.Edges() {
		if e.To == out && e.ArgIndex == 1 && e.Rate == 0.5 {
			found++
		}
		if e.To == out && e.ArgIndex == 0 && e.Critical {
			found++
		}
	}
	if found != 2 {
		t.Errorf("edge annotations not applied (found %d)", found)
	}
	_ = in
	_ = a
	_ = b
}

func TestOutputsAndConsumers(t *testing.T) {
	g, in, a, b, out := buildDiamond(t)
	outs := g.Outputs()
	if len(outs) != 1 || outs[0] != out {
		t.Fatalf("outputs %v", outs)
	}
	cons := g.Consumers()
	if len(cons[in]) != 2 {
		t.Errorf("input consumers %v", cons[in])
	}
	if len(cons[a]) != 1 || cons[a][0] != out {
		t.Errorf("a consumers %v", cons[a])
	}
	_ = b
}

func TestAncestorsDescendants(t *testing.T) {
	g, in, a, b, out := buildDiamond(t)
	anc := g.AncestorsOf(a)
	if !anc[a] || !anc[in] || anc[b] || anc[out] {
		t.Errorf("ancestors of a: %v", anc)
	}
	if desc := g.Consumers()[a]; len(desc) != 1 || desc[0] != out {
		t.Errorf("consumers of a: %v", desc)
	}
}

func TestByPhaseByModuleParams(t *testing.T) {
	g := New("m")
	w := g.MustAdd(&Node{Op: "param", Ref: "w", Module: "net.fc", Residency: ResidencyPersistentWeight})
	x := g.MustAdd(&Node{Op: "input", Ref: "x", Phase: PhaseLLMPrefill})
	mm := g.MustAdd(&Node{Op: "matmul", Inputs: []NodeID{x, w}, Module: "net.fc", Phase: PhaseLLMPrefill})
	d := g.MustAdd(&Node{Op: "argmax_last", Inputs: []NodeID{mm}, Phase: PhaseLLMDecode})

	if n := g.Node(mm); n.Phase != PhaseLLMPrefill || n.Module != "net.fc" {
		t.Errorf("matmul phase %v module %q", n.Phase, n.Module)
	}
	if n := g.Node(d); n.Phase != PhaseLLMDecode || n.Module != "" {
		t.Errorf("argmax phase %v module %q", n.Phase, n.Module)
	}
	params := g.Params()
	if len(params) != 1 || params[0] != w {
		t.Errorf("params %v", params)
	}
}

func TestTotalCost(t *testing.T) {
	g, _, _, _, _ := buildDiamond(t)
	c := g.TotalCost()
	if c.FLOPs != 45 {
		t.Errorf("total FLOPs %v", c.FLOPs)
	}
}

func TestCostHintsIntensity(t *testing.T) {
	c := CostHints{FLOPs: 100, Bytes: 50}
	if c.Intensity() != 2 {
		t.Errorf("intensity %v", c.Intensity())
	}
	if (CostHints{}).Intensity() != 0 {
		t.Error("zero-byte intensity should be 0")
	}
}

func TestCriticalPathMarksHeaviestChain(t *testing.T) {
	g, in, a, b, out := buildDiamond(t)
	g.MarkCriticalPath()
	// b (30 FLOPs) dominates a (10): path in->b->out is critical.
	critToOut := map[int]bool{}
	for _, e := range g.Edges() {
		if e.Critical {
			if e.To == out {
				critToOut[e.ArgIndex] = true
			}
			if e.To == b && e.From == in {
				critToOut[-1] = true
			}
		}
	}
	if !critToOut[1] || !critToOut[-1] || critToOut[0] {
		t.Errorf("critical edges %v", critToOut)
	}
	_ = a
}

func TestTensorMetaBytes(t *testing.T) {
	m := TensorMeta{DType: 1, Shape: []int{2, 3}} // f16
	if m.Bytes() != 12 {
		t.Errorf("bytes %d", m.Bytes())
	}
	if m.NumElements() != 6 {
		t.Errorf("elements %d", m.NumElements())
	}
	m64 := TensorMeta{DType: 2, Shape: []int{4}} // i64
	if m64.Bytes() != 32 {
		t.Errorf("i64 bytes %d", m64.Bytes())
	}
}

func TestResidencyStrings(t *testing.T) {
	for r, want := range map[Residency]string{
		ResidencyPersistentWeight:    "persistent_weight",
		ResidencyEphemeralActivation: "ephemeral_activation",
		ResidencyStatefulKVCache:     "stateful_kv_cache",
		ResidencyExternalInput:       "external_input",
		ResidencyExternalOutput:      "external_output",
		ResidencyUnknown:             "unknown",
	} {
		if r.String() != want {
			t.Errorf("%d.String() = %q", r, r.String())
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	g, _, _, _, out := buildDiamond(t)
	g.Node(0).Phase = PhaseLLMPrefill
	g.Node(0).Modality = ModalityText
	g.Node(1).Attrs = map[string]string{"alpha": "0.5", "beta": "2"}
	g.Node(2).Residency = ResidencyStatefulKVCache
	g.SetEdgeRate(out, 0, 0.25)
	g.SetEdgeCritical(out, 1, true)

	enc, err := g.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != g.Name || back.Len() != g.Len() {
		t.Fatalf("name/len mismatch")
	}
	for i := 0; i < g.Len(); i++ {
		a, b := g.Node(NodeID(i)), back.Node(NodeID(i))
		if a.Op != b.Op || a.Ref != b.Ref || a.Phase != b.Phase ||
			a.Residency != b.Residency || a.Modality != b.Modality ||
			a.Cost != b.Cost || len(a.Inputs) != len(b.Inputs) {
			t.Errorf("node %d mismatch: %+v vs %+v", i, a, b)
		}
		if len(a.Attrs) != len(b.Attrs) {
			t.Errorf("node %d attrs mismatch", i)
		}
		for k, v := range a.Attrs {
			if b.Attrs[k] != v {
				t.Errorf("node %d attr %q: %q vs %q", i, k, v, b.Attrs[k])
			}
		}
	}
	// Edge annotations survive.
	gotRate, gotCrit := false, false
	for _, e := range back.Edges() {
		if e.To == out && e.ArgIndex == 0 && e.Rate == 0.25 {
			gotRate = true
		}
		if e.To == out && e.ArgIndex == 1 && e.Critical {
			gotCrit = true
		}
	}
	if !gotRate || !gotCrit {
		t.Error("edge annotations lost in round trip")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("NOPE")); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := Decode(nil); err == nil {
		t.Error("empty input should fail")
	}
	// Truncated valid prefix.
	g, _, _, _, _ := buildDiamond(t)
	enc, err := g.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	trunc := enc[:len(enc)/2]
	if _, err := Decode(trunc); err == nil {
		t.Error("truncated input should fail")
	}
}

func TestFingerprintStableAndNameIndependent(t *testing.T) {
	g1, _, _, _, _ := buildDiamond(t)
	g2, _, _, _, _ := buildDiamond(t)
	g2.Name = "different-label"
	if g1.Fingerprint() != g2.Fingerprint() {
		t.Error("fingerprint should ignore the name")
	}
	g2.Node(1).Cost.FLOPs = 11
	if g1.Fingerprint() == g2.Fingerprint() {
		t.Error("fingerprint should change with node costs")
	}
	if g1.Name != "diamond" {
		t.Error("Fingerprint must restore the name")
	}
}

func TestFingerprintPropertyEncodeDeterminism(t *testing.T) {
	// Property: encoding is deterministic regardless of attr insertion
	// order (maps are sorted at encode time).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		keys := []string{"a", "b", "c", "d", "e"}
		build := func(order []int) *Graph {
			g := New("p")
			in := g.MustAdd(&Node{Op: "input", Ref: "x"})
			n := &Node{Op: "relu", Inputs: []NodeID{in}, Attrs: map[string]string{}}
			for _, i := range order {
				n.Attrs[keys[i]] = keys[i]
			}
			g.MustAdd(n)
			return g
		}
		perm := rng.Perm(len(keys))
		return build(perm).Fingerprint() == build([]int{0, 1, 2, 3, 4}).Fingerprint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestJSONExport(t *testing.T) {
	g, _, _, _, _ := buildDiamond(t)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["name"] != "diamond" {
		t.Errorf("json name %v", decoded["name"])
	}
	nodes := decoded["nodes"].([]any)
	if len(nodes) != 4 {
		t.Errorf("json nodes %d", len(nodes))
	}
}

func TestDOTOutput(t *testing.T) {
	g, _, _, _, _ := buildDiamond(t)
	g.MarkCriticalPath()
	dot := g.DOT()
	for _, want := range []string{"digraph", "n0 -> n1", "invhouse", "penwidth=2"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestTopoOrderIsValid(t *testing.T) {
	g, _, _, _, _ := buildDiamond(t)
	order := g.TopoOrder()
	pos := make(map[NodeID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, n := range g.Nodes() {
		for _, in := range n.Inputs {
			if pos[in] >= pos[n.ID] {
				t.Errorf("node %d before its input %d", n.ID, in)
			}
		}
	}
}

func TestNodeLookupBounds(t *testing.T) {
	g, _, _, _, _ := buildDiamond(t)
	if g.Node(-1) != nil || g.Node(99) != nil {
		t.Error("out-of-range Node() should be nil")
	}
}

// TestEncodeDecodePropertyRandomDAGs round-trips randomly generated
// graphs through the wire format: structure, annotations, and
// fingerprints must survive exactly.
func TestEncodeDecodePropertyRandomDAGs(t *testing.T) {
	ops := []string{"relu", "gelu", "softmax", "add", "mul", "matmul"}
	phases := []Phase{PhaseUnknown, PhaseLLMPrefill, PhaseLLMDecode, PhaseCVStage}
	mods := []Modality{ModalityUnknown, ModalityText, ModalityVision}

	gen := func(seed int64) *Graph {
		rng := rand.New(rand.NewSource(seed))
		g := New("prop")
		nLeaves := 1 + rng.Intn(4)
		for i := 0; i < nLeaves; i++ {
			op, ref := "input", "in"
			if rng.Intn(2) == 0 {
				op, ref = "param", "w"
			}
			g.MustAdd(&Node{
				Op: op, Ref: ref + string(rune('a'+i)),
				Residency: Residency(rng.Intn(6)),
				Output:    TensorMeta{DType: uint8(rng.Intn(5)), Shape: []int{1 + rng.Intn(8)}},
			})
		}
		nCompute := 1 + rng.Intn(12)
		for i := 0; i < nCompute; i++ {
			op := ops[rng.Intn(len(ops))]
			nIn := 1
			if op == "add" || op == "mul" || op == "matmul" {
				nIn = 2
			}
			inputs := make([]NodeID, nIn)
			for j := range inputs {
				inputs[j] = NodeID(rng.Intn(g.Len()))
			}
			n := &Node{
				Op: op, Inputs: inputs,
				Phase:    phases[rng.Intn(len(phases))],
				Modality: mods[rng.Intn(len(mods))],
				Cost:     CostHints{FLOPs: float64(rng.Intn(1e6)), Bytes: int64(rng.Intn(1e6))},
				Output:   TensorMeta{Shape: []int{1 + rng.Intn(8)}},
			}
			if rng.Intn(3) == 0 {
				n.Attrs = map[string]string{"k": fmt.Sprint(rng.Intn(100))}
			}
			id := g.MustAdd(n)
			if rng.Intn(4) == 0 {
				g.SetEdgeRate(id, 0, float64(rng.Intn(100))/100)
			}
			if rng.Intn(4) == 0 {
				g.SetEdgeCritical(id, 0, true)
			}
		}
		return g
	}

	check := func(seed int64) bool {
		g := gen(seed)
		if err := g.Validate(); err != nil {
			return false
		}
		enc, err := g.AppendBinary(nil)
		if err != nil {
			return false
		}
		back, err := Decode(enc)
		if err != nil {
			return false
		}
		return back.Fingerprint() == g.Fingerprint() && back.Len() == g.Len()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
