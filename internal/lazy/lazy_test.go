package lazy

import (
	"testing"

	"genie/internal/srg"
	"genie/internal/tensor"
)

func TestParamAndInputLeaves(t *testing.T) {
	b := NewBuilder("t")
	w := b.Param("w", tensor.New(tensor.F32, 2, 3))
	x := b.Input("x", tensor.New(tensor.F32, 1, 2))
	g := b.Graph()
	if g.Node(w.ID()).Op != "param" || g.Node(w.ID()).Residency != srg.ResidencyPersistentWeight {
		t.Error("param leaf wrong")
	}
	if g.Node(x.ID()).Op != "input" || g.Node(x.ID()).Residency != srg.ResidencyExternalInput {
		t.Error("input leaf wrong")
	}
	if _, ok := b.ParamData("w"); !ok {
		t.Error("param data should be registered")
	}
	if _, ok := b.InputData("x"); !ok {
		t.Error("input data should be registered")
	}
}

func TestStatefulInputResidency(t *testing.T) {
	b := NewBuilder("t")
	kv := b.StatefulInput("kv.k", tensor.New(tensor.F32, 4, 8))
	if b.Graph().Node(kv.ID()).Residency != srg.ResidencyStatefulKVCache {
		t.Error("stateful input should carry kv-cache residency")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	b := NewBuilder("t")
	b.Param("w", tensor.New(tensor.F32, 1))
	defer func() {
		if recover() == nil {
			t.Error("duplicate param should panic")
		}
	}()
	b.Param("w", tensor.New(tensor.F32, 1))
}

func TestModuleScopesStampPathsAndPrefixRefs(t *testing.T) {
	b := NewBuilder("t")
	var w, y Value
	b.InModule("model", func() {
		b.InModule("layer0", func() {
			w = b.Param("w", tensor.New(tensor.F32, 2, 2))
			x := b.Input("x", tensor.New(tensor.F32, 1, 2))
			y = b.MatMul(x, w)
		})
	})
	g := b.Graph()
	if g.Node(w.ID()).Ref != "model.layer0.w" {
		t.Errorf("param ref %q", g.Node(w.ID()).Ref)
	}
	if g.Node(y.ID()).Module != "model.layer0" {
		t.Errorf("op module %q", g.Node(y.ID()).Module)
	}
	if b.ModulePath() != "" {
		t.Error("module stack should unwind")
	}
}

func TestPhaseScopes(t *testing.T) {
	b := NewBuilder("t")
	x := b.Input("x", tensor.New(tensor.F32, 2, 2))
	var inPhase, after Value
	b.InPhase(srg.PhaseLLMDecode, func() {
		inPhase = b.ReLU(x)
	})
	after = b.GELU(x)
	g := b.Graph()
	if g.Node(inPhase.ID()).Phase != srg.PhaseLLMDecode {
		t.Error("phase scope not applied")
	}
	if g.Node(after.ID()).Phase != srg.PhaseUnknown {
		t.Error("phase scope leaked")
	}
}

func TestShapeInference(t *testing.T) {
	b := NewBuilder("t")
	x := b.Input("x", tensor.New(tensor.F32, 3, 4))
	w := b.Param("w", tensor.New(tensor.F32, 4, 5))
	mm := b.MatMul(x, w)
	if !mm.Shape().Equal(tensor.Shape{3, 5}) {
		t.Errorf("matmul shape %v", mm.Shape())
	}
	k := b.Input("k", tensor.New(tensor.F32, 7, 4))
	st := b.MatMulT(x, k)
	if !st.Shape().Equal(tensor.Shape{3, 7}) {
		t.Errorf("matmulT shape %v", st.Shape())
	}
	c := b.Concat(0, x, x)
	if !c.Shape().Equal(tensor.Shape{6, 4}) {
		t.Errorf("concat shape %v", c.Shape())
	}
	s := b.SliceRows(x, 1, 3)
	if !s.Shape().Equal(tensor.Shape{2, 4}) {
		t.Errorf("slice shape %v", s.Shape())
	}
	tr := b.Transpose2D(x)
	if !tr.Shape().Equal(tensor.Shape{4, 3}) {
		t.Errorf("transpose shape %v", tr.Shape())
	}
	r := b.Reshape(x, 12)
	if !r.Shape().Equal(tensor.Shape{12}) {
		t.Errorf("reshape shape %v", r.Shape())
	}
	am := b.ArgmaxLast(mm)
	if am.Meta().DType != tensor.I64 {
		t.Error("argmax should be i64")
	}
}

func TestConvShapeInference(t *testing.T) {
	b := NewBuilder("t")
	img := b.Input("img", tensor.New(tensor.F32, 3, 32, 32))
	kern := b.Param("k", tensor.New(tensor.F32, 8, 3, 3, 3))
	c := b.Conv2D(img, kern, 1, 1)
	if !c.Shape().Equal(tensor.Shape{8, 32, 32}) {
		t.Errorf("conv shape %v", c.Shape())
	}
	p := b.MaxPool2D(c, 2)
	if !p.Shape().Equal(tensor.Shape{8, 16, 16}) {
		t.Errorf("pool shape %v", p.Shape())
	}
	g := b.MeanPoolAll(p)
	if !g.Shape().Equal(tensor.Shape{8}) {
		t.Errorf("meanpool shape %v", g.Shape())
	}
	if b.Graph().Node(c.ID()).Modality != srg.ModalityVision {
		t.Error("conv should be vision modality")
	}
}

func TestMatMulCostHints(t *testing.T) {
	b := NewBuilder("t")
	x := b.Input("x", tensor.New(tensor.F32, 10, 20))
	w := b.Param("w", tensor.New(tensor.F32, 20, 30))
	mm := b.MatMul(x, w)
	n := b.Graph().Node(mm.ID())
	if n.Cost.FLOPs != 2*10*20*30 {
		t.Errorf("matmul FLOPs %v", n.Cost.FLOPs)
	}
	if n.Cost.Bytes <= 0 {
		t.Error("matmul bytes should be positive")
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	b := NewBuilder("t")
	x := b.Input("x", tensor.New(tensor.F32, 2, 3))
	w := b.Param("w", tensor.New(tensor.F32, 5, 4))
	for name, fn := range map[string]func(){
		"matmul":  func() { b.MatMul(x, w) },
		"slice":   func() { b.SliceRows(x, 0, 9) },
		"reshape": func() { b.Reshape(x, 7) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCrossBuilderValuePanics(t *testing.T) {
	b1 := NewBuilder("a")
	b2 := NewBuilder("b")
	x := b1.Input("x", tensor.New(tensor.F32, 2, 2))
	y := b2.Input("y", tensor.New(tensor.F32, 2, 2))
	defer func() {
		if recover() == nil {
			t.Error("cross-builder op should panic")
		}
	}()
	b1.Add(x, y)
}

func TestMarkOutput(t *testing.T) {
	b := NewBuilder("t")
	x := b.Input("x", tensor.New(tensor.F32, 2, 2))
	y := b.ReLU(x)
	b.MarkOutput(y)
	if len(b.Outputs()) != 1 || b.Outputs()[0] != y.ID() {
		t.Error("output not recorded")
	}
	if b.Graph().Node(y.ID()).Residency != srg.ResidencyExternalOutput {
		t.Error("output residency not set")
	}
}

func TestBindInputRebinds(t *testing.T) {
	b := NewBuilder("t")
	b.Input("x", tensor.New(tensor.F32, 1))
	repl := tensor.FromF32(tensor.Shape{1}, []float32{42})
	b.BindInput("x", repl)
	got, _ := b.InputData("x")
	if got.F32()[0] != 42 {
		t.Error("rebinding failed")
	}
}

// TestStatefulInputMetaCapturesTheSameGraph: a cache leaf known only by
// its descriptor captures exactly the graph a zero tensor of that shape
// does — the frames do not move — and holds no data.
func TestStatefulInputMetaCapturesTheSameGraph(t *testing.T) {
	capture := func(meta bool) *Builder {
		b := NewBuilder("t")
		b.PushModule("m")
		x := b.Input("x", tensor.New(tensor.F32, 1, 8))
		var cache Value
		if meta {
			cache = b.StatefulInputMeta("cache", tensor.Meta{DType: tensor.F32, Shape: tensor.Shape{5, 8}})
		} else {
			cache = b.StatefulInput("cache", tensor.New(tensor.F32, 5, 8))
		}
		b.MarkOutput(b.MatMulT(x, b.Concat(0, cache, x)))
		return b
	}
	with, without := capture(false), capture(true)
	if with.Graph().Fingerprint() != without.Graph().Fingerprint() {
		t.Fatal("a meta-only cache leaf changed the captured graph")
	}
	if _, ok := with.InputData("m.cache"); !ok {
		t.Error("concrete cache leaf lost its data")
	}
	if data, ok := without.InputData("m.cache"); ok || data != nil {
		t.Error("meta-only cache leaf reports data")
	}
	defer func() {
		if recover() == nil {
			t.Error("a second input under a meta-only leaf's name was accepted")
		}
	}()
	without.Input("cache", tensor.New(tensor.F32, 1))
}

func TestGraphIsValidAfterCapture(t *testing.T) {
	b := NewBuilder("valid")
	x := b.Input("x", tensor.New(tensor.F32, 4, 8))
	w := b.Param("w", tensor.New(tensor.F32, 8, 8))
	h := b.MatMul(x, w)
	h = b.GELU(h)
	b.MarkOutput(h)
	if err := b.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCaptureOpPanicsTableDriven sweeps shape-inference panics across
// the capture surface: every malformed capture must fail at graph-build
// time, not at execution.
func TestCaptureOpPanicsTableDriven(t *testing.T) {
	mustPanic := func(name string, fn func(b *Builder)) {
		t.Helper()
		b := NewBuilder("panics")
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn(b)
	}
	mustPanic("matmulT mismatch", func(b *Builder) {
		x := b.Input("x", tensor.New(tensor.F32, 2, 3))
		y := b.Input("y", tensor.New(tensor.F32, 2, 4))
		b.MatMulT(x, y)
	})
	mustPanic("concat rank mismatch", func(b *Builder) {
		x := b.Input("x", tensor.New(tensor.F32, 2, 3))
		y := b.Input("y", tensor.New(tensor.F32, 3))
		b.Concat(0, x, y)
	})
	mustPanic("concat dim mismatch", func(b *Builder) {
		x := b.Input("x", tensor.New(tensor.F32, 2, 3))
		y := b.Input("y", tensor.New(tensor.F32, 2, 4))
		b.Concat(0, x, y)
	})
	mustPanic("concat empty", func(b *Builder) { b.Concat(0) })
	mustPanic("layernorm wrong gain", func(b *Builder) {
		x := b.Input("x", tensor.New(tensor.F32, 2, 8))
		g := b.Param("g", tensor.New(tensor.F32, 4))
		bb := b.Param("b", tensor.New(tensor.F32, 8))
		_ = bb
		b.LayerNorm(x, g, bb, 1e-5)
	})
	mustPanic("embedding bad table", func(b *Builder) {
		tbl := b.Param("t", tensor.New(tensor.F32, 4))
		ids := b.Input("i", tensor.FromI64(tensor.Shape{1}, []int64{0}))
		b.Embedding(tbl, ids)
	})
	mustPanic("embedding_bag no offsets", func(b *Builder) {
		tbl := b.Param("t", tensor.New(tensor.F32, 4, 2))
		ids := b.Input("i", tensor.FromI64(tensor.Shape{1}, []int64{0}))
		b.EmbeddingBag(tbl, ids, nil)
	})
	mustPanic("transpose rank", func(b *Builder) {
		b.Transpose2D(b.Input("x", tensor.New(tensor.F32, 3)))
	})
	mustPanic("argmax rank", func(b *Builder) {
		b.ArgmaxLast(b.Input("x", tensor.New(tensor.F32, 3)))
	})
	mustPanic("conv kernel mismatch", func(b *Builder) {
		img := b.Input("x", tensor.New(tensor.F32, 3, 8, 8))
		k := b.Param("k", tensor.New(tensor.F32, 4, 2, 3, 3))
		b.Conv2D(img, k, 1, 1)
	})
	mustPanic("conv empty output", func(b *Builder) {
		img := b.Input("x", tensor.New(tensor.F32, 1, 2, 2))
		k := b.Param("k", tensor.New(tensor.F32, 1, 1, 5, 5))
		b.Conv2D(img, k, 1, 0)
	})
	mustPanic("maxpool oversized", func(b *Builder) {
		b.MaxPool2D(b.Input("x", tensor.New(tensor.F32, 1, 2, 2)), 4)
	})
	mustPanic("meanpool rank", func(b *Builder) {
		b.MeanPoolAll(b.Input("x", tensor.New(tensor.F32, 4)))
	})
	mustPanic("causal mask rank", func(b *Builder) {
		b.CausalMask(b.Input("x", tensor.New(tensor.F32, 3)), 0)
	})
	mustPanic("ewise broadcast", func(b *Builder) {
		x := b.Input("x", tensor.New(tensor.F32, 3))
		y := b.Input("y", tensor.New(tensor.F32, 4))
		b.Add(x, y)
	})
	mustPanic("annotate unknown node", func(b *Builder) {
		b.AnnotateStatefulNode(99, "k")
	})
}

func TestPhaseAndModuleStackUnderflow(t *testing.T) {
	b := NewBuilder("t")
	// Popping empty stacks is a no-op, not a crash.
	b.PopPhase()
	b.PopModule()
	if b.ModulePath() != "" {
		t.Error("module path should stay empty")
	}
}
