package frontend

import (
	"fmt"
	"math/rand"
	"testing"

	"genie/internal/exec"
	"genie/internal/models"
	"genie/internal/nn"
	"genie/internal/srg"
	"genie/internal/tensor"
)

func TestDecodeRecognizerTagsDecodeGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := models.NewGPT(rng, models.TinyGPT)
	caches := prefillCaches(t, m, []int64{1, 2, 3})
	b, _ := m.BuildDecodeStep(4, 3, 3, caches)

	rep := Annotate(b.Graph())
	if rep.Tagged["kv_cache_decode"] == 0 {
		t.Fatal("decode recognizer missed the KV-append idiom")
	}
	// Every compute node should now be decode-phase.
	for _, n := range b.Graph().Nodes() {
		if n.Op != "param" && n.Op != "input" && n.Phase != srg.PhaseLLMDecode {
			t.Errorf("node %d (%s) phase %q", n.ID, n.Op, n.Phase)
		}
	}
	// The cache appends must be marked stateful.
	foundStateful := false
	for _, n := range b.Graph().Nodes() {
		if n.Op == "concat" && n.Residency == srg.ResidencyStatefulKVCache {
			foundStateful = true
		}
	}
	if !foundStateful {
		t.Error("cache append not marked stateful")
	}
}

func TestPrefillRecognizerTagsPrefillGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := models.NewGPT(rng, models.TinyGPT)
	b, _ := m.BuildPrefill([]int64{1, 2, 3, 4, 5})

	rep := Annotate(b.Graph())
	if rep.Tagged["attention_prefill"] == 0 {
		t.Fatal("prefill recognizer missed multi-row attention")
	}
	if rep.Tagged["kv_cache_decode"] != 0 {
		t.Error("decode recognizer fired on a prefill graph")
	}
	hasPrefill := false
	for _, p := range rep.Phases {
		if p == srg.PhaseLLMPrefill {
			hasPrefill = true
		}
	}
	if !hasPrefill {
		t.Errorf("phases = %v", rep.Phases)
	}
}

func TestConvPipelineRecognizerAssignsStages(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := models.NewCNN(rng, models.TinyCNN)
	img := tensor.New(tensor.F32, 3, 32, 32)
	b, _ := m.BuildForward(img)

	rep := Annotate(b.Graph())
	if rep.Tagged["conv_pipeline"] == 0 {
		t.Fatal("conv recognizer missed the CNN")
	}
	stages := map[string]bool{}
	for _, n := range b.Graph().Nodes() {
		if n.Op == "conv2d" {
			if n.Phase != srg.PhaseCVStage {
				t.Errorf("conv node %d phase %q", n.ID, n.Phase)
			}
			stages[n.Attrs["cv_stage"]] = true
		}
	}
	if len(stages) != 3 {
		t.Errorf("distinct stages %v, want 3", stages)
	}
}

func TestSparseDenseRecognizerOnDLRM(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := models.NewDLRM(rng, models.TinyDLRM)
	req := models.DLRMRequest{
		Dense:     tensor.New(tensor.F32, 1, 8),
		SparseIDs: [][]int64{{1, 2}, {3}, {4, 5, 6}},
	}
	b, out := m.BuildForward(req)
	rep := Annotate(b.Graph())
	if rep.Tagged["sparse_dense"] == 0 {
		t.Fatal("sparse recognizer missed embedding bags")
	}
	for _, id := range out.Lookups {
		if b.Graph().Node(id).Phase != srg.PhaseSparse {
			t.Errorf("lookup %d phase %q", id, b.Graph().Node(id).Phase)
		}
	}
}

func TestFusionRecognizerOnMultiModal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := models.NewMultiModal(rng, models.TinyCNN, 64, 16, 8)
	img := tensor.New(tensor.F32, 3, 32, 32)
	b, out := m.BuildForward(img, []int64{1, 2, 3})
	rep := Annotate(b.Graph())
	if rep.Tagged["modality_fusion"] == 0 {
		t.Fatal("fusion recognizer missed the merge point")
	}
	if b.Graph().Node(out.FusionNode).Phase != srg.PhaseFusion {
		t.Errorf("fusion node phase %q", b.Graph().Node(out.FusionNode).Phase)
	}
}

func TestExplicitAnnotationsRespectedByRecognizers(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := models.NewGPT(rng, models.TinyGPT)
	b, _ := m.BuildPrefill([]int64{1, 2, 3})
	g := b.Graph()

	// Developer hook: tag a block explicitly before annotation.
	n := AnnotatePhase(g, "gpt.blocks.0", srg.PhaseLLMDecode)
	if n == 0 {
		t.Fatal("explicit annotation matched nothing")
	}
	Annotate(g)
	// Recognizers must not overwrite the explicit tag.
	for _, node := range g.Nodes() {
		if node.Module == "gpt.blocks.0.ln1" && node.Phase != srg.PhaseLLMDecode {
			t.Errorf("explicit phase overwritten on %s: %q", node.Module, node.Phase)
		}
	}
}

func TestAnnotateResidencyHook(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := models.NewGPT(rng, models.TinyGPT)
	b, _ := m.BuildPrefill([]int64{1})
	g := b.Graph()
	if err := AnnotateResidency(g, "gpt.wte.table", srg.ResidencyStatefulKVCache); err != nil {
		t.Fatal(err)
	}
	if err := AnnotateResidency(g, "no.such.ref", srg.ResidencyUnknown); err == nil {
		t.Error("unknown ref should error")
	}
}

func TestReductionRatesMarked(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := models.NewGPT(rng, models.TinyGPT)
	b, out := m.BuildPrefill([]int64{1, 2, 3, 4})
	g := b.Graph()
	Annotate(g)
	// The argmax edge reduces [t,vocab] to [1]: rate must be << 1.
	for _, e := range g.Edges() {
		if e.To == out.NextToken {
			if e.Rate >= 1 {
				t.Errorf("argmax edge rate %v, want < 1", e.Rate)
			}
		}
	}
}

func TestCriticalPathMarkedAfterAnnotate(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := models.NewGPT(rng, models.TinyGPT)
	b, _ := m.BuildPrefill([]int64{1, 2, 3})
	g := b.Graph()
	Annotate(g)
	critical := 0
	for _, e := range g.Edges() {
		if e.Critical {
			critical++
		}
	}
	if critical == 0 {
		t.Error("no critical edges marked")
	}
}

func TestRecognizersIgnoreIrrelevantGraphs(t *testing.T) {
	g := srg.New("plain")
	in := g.MustAdd(&srg.Node{Op: "input", Ref: "x", Output: srg.TensorMeta{Shape: []int{4}}})
	g.MustAdd(&srg.Node{Op: "relu", Inputs: []srg.NodeID{in}, Output: srg.TensorMeta{Shape: []int{4}}})
	rep := Annotate(g)
	for name, count := range rep.Tagged {
		if count != 0 {
			t.Errorf("recognizer %s tagged %d nodes of a plain graph", name, count)
		}
	}
	if len(rep.Phases) != 0 {
		t.Errorf("phases %v on a plain graph", rep.Phases)
	}
}

// prefillCaches runs a real prefill to produce concrete caches for decode
// tests.
func prefillCaches(t *testing.T, m *models.GPT, prompt []int64) []*nn.KVCache {
	t.Helper()
	b, out := m.BuildPrefill(prompt)
	vals, err := exec.Graph(b.Graph(), func(op, ref string) (*tensor.Tensor, error) {
		if op == "param" {
			if tt, ok := b.ParamData(ref); ok {
				return tt, nil
			}
		} else if tt, ok := b.InputData(ref); ok {
			return tt, nil
		}
		return nil, fmt.Errorf("no data for %s %q", op, ref)
	})
	if err != nil {
		t.Fatal(err)
	}
	caches := make([]*nn.KVCache, len(out.CacheK))
	for i := range out.CacheK {
		caches[i] = &nn.KVCache{}
		caches[i].Append(vals[out.CacheK[i]], vals[out.CacheV[i]])
	}
	return caches
}
