// Package lazy implements deferred execution — the frontend mechanism the
// paper builds on PyTorch's __torch_dispatch__ (§3.2 "Automated Graph
// Construction"). Operations on lazy Values do not compute; they append
// annotated nodes to an SRG under construction. Materialization is the
// scheduler/runtime's job.
//
// The Builder also implements the structural-annotation tier: module
// scopes (the nn.Module hierarchy analogue) stamp every captured op with
// its owning module path, and an explicit phase scope supports the
// genie.AnnotatePhase developer hook.
package lazy

import (
	"fmt"
	"strconv"
	"strings"

	"genie/internal/srg"
	"genie/internal/tensor"
)

// Value is a lazy tensor proxy: a handle to an SRG node plus the inferred
// output descriptor. All arithmetic on Values defers into the graph.
type Value struct {
	b    *Builder
	id   srg.NodeID
	meta tensor.Meta
}

// ID returns the underlying SRG node.
func (v Value) ID() srg.NodeID { return v.id }

// Meta returns the inferred output descriptor.
//
//lint:ignore deadexport SRG builder surface: graph-capture tests read a value's edge metadata
func (v Value) Meta() tensor.Meta { return v.meta }

// Shape returns the inferred output shape.
func (v Value) Shape() tensor.Shape { return v.meta.Shape }

// Valid reports whether the value is bound to a graph node.
func (v Value) Valid() bool { return v.b != nil }

// Builder captures a computation into an SRG. It owns the concrete
// parameter and input tensors so the runtime can bind leaf nodes to data
// at execution time.
type Builder struct {
	g           *srg.Graph
	moduleStack []string
	phaseStack  []srg.Phase
	modality    srg.Modality

	params map[string]*tensor.Tensor
	inputs map[string]*tensor.Tensor
	// residency overrides for named inputs (e.g. a KV cache input is
	// stateful, not per-call external).
	inputResidency map[string]srg.Residency
	outputs        []srg.NodeID
}

// NewBuilder starts a capture for a graph with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		g:              srg.New(name),
		params:         make(map[string]*tensor.Tensor),
		inputs:         make(map[string]*tensor.Tensor),
		inputResidency: make(map[string]srg.Residency),
	}
}

// Graph returns the SRG under construction.
func (b *Builder) Graph() *srg.Graph { return b.g }

// ParamData returns the concrete tensor registered for a parameter ref.
func (b *Builder) ParamData(ref string) (*tensor.Tensor, bool) {
	t, ok := b.params[ref]
	return t, ok
}

// InputData returns the concrete tensor bound to an input ref.
func (b *Builder) InputData(ref string) (*tensor.Tensor, bool) {
	t, ok := b.inputs[ref]
	return t, ok
}

// BindInput rebinds the concrete tensor for an input ref (used when
// replaying a captured graph against new data, e.g. the next decode
// token).
//
//lint:ignore deadexport SRG builder surface: capture tests rebind an input without re-tracing
func (b *Builder) BindInput(ref string, t *tensor.Tensor) {
	b.inputs[ref] = t
}

// PushModule enters a module scope; captured ops are stamped with the
// joined path. This is the FX-pass structural annotation applied online.
func (b *Builder) PushModule(name string) { b.moduleStack = append(b.moduleStack, name) }

// PopModule leaves the innermost module scope.
func (b *Builder) PopModule() {
	if len(b.moduleStack) > 0 {
		b.moduleStack = b.moduleStack[:len(b.moduleStack)-1]
	}
}

// InModule runs fn inside a module scope.
func (b *Builder) InModule(name string, fn func()) {
	b.PushModule(name)
	defer b.PopModule()
	fn()
}

// ModulePath returns the current dotted module path.
func (b *Builder) ModulePath() string { return strings.Join(b.moduleStack, ".") }

// PushPhase enters an explicit phase scope — the developer hook
// genie.AnnotatePhase from §3.2 ("Semi-Automated Semantic Annotation").
func (b *Builder) PushPhase(p srg.Phase) { b.phaseStack = append(b.phaseStack, p) }

// PopPhase leaves the innermost phase scope.
func (b *Builder) PopPhase() {
	if len(b.phaseStack) > 0 {
		b.phaseStack = b.phaseStack[:len(b.phaseStack)-1]
	}
}

// InPhase runs fn inside a phase scope.
//
//lint:ignore deadexport SRG builder surface: phase-scope capture tests use it
func (b *Builder) InPhase(p srg.Phase, fn func()) {
	b.PushPhase(p)
	defer b.PopPhase()
	fn()
}

// SetModality sets the modality stamped on subsequently captured nodes.
func (b *Builder) SetModality(m srg.Modality) { b.modality = m }

func (b *Builder) currentPhase() srg.Phase {
	if len(b.phaseStack) == 0 {
		return srg.PhaseUnknown
	}
	return b.phaseStack[len(b.phaseStack)-1]
}

// MarkOutput declares v as a graph result the application will read back.
func (b *Builder) MarkOutput(v Value) {
	n := b.g.Node(v.id)
	if n != nil && (n.Residency == srg.ResidencyUnknown || n.Residency == srg.ResidencyEphemeralActivation) {
		n.Residency = srg.ResidencyExternalOutput
	}
	b.outputs = append(b.outputs, v.id)
}

// Outputs returns the declared result nodes.
//
//lint:ignore deadexport SRG builder surface: capture tests list graph outputs
func (b *Builder) Outputs() []srg.NodeID { return b.outputs }

func toSRGMeta(m tensor.Meta) srg.TensorMeta {
	return srg.TensorMeta{DType: uint8(m.DType), Shape: append([]int(nil), m.Shape...)}
}

func (b *Builder) add(n *srg.Node, meta tensor.Meta) Value {
	n.Module = b.ModulePath()
	if n.Phase == srg.PhaseUnknown {
		n.Phase = b.currentPhase()
	}
	if n.Modality == srg.ModalityUnknown {
		n.Modality = b.modality
	}
	n.Output = toSRGMeta(meta)
	id := b.g.MustAdd(n)
	return Value{b: b, id: id, meta: meta}
}

// Param registers a model parameter (persistent weight) and returns its
// lazy leaf. The ref is prefixed with the module path, giving the
// hierarchical names the structural pass groups by.
func (b *Builder) Param(name string, t *tensor.Tensor) Value {
	ref := name
	if p := b.ModulePath(); p != "" {
		ref = p + "." + name
	}
	if _, dup := b.params[ref]; dup {
		panic(fmt.Sprintf("lazy: duplicate param %q", ref))
	}
	b.params[ref] = t
	meta := tensor.MetaOf(t)
	return b.add(&srg.Node{
		Op: "param", Ref: ref,
		Residency: srg.ResidencyPersistentWeight,
		Cost:      srg.CostHints{Bytes: int64(meta.Bytes())},
	}, meta)
}

// Input registers an external per-call input.
func (b *Builder) Input(name string, t *tensor.Tensor) Value {
	return b.inputWithResidency(name, t, tensor.MetaOf(t), srg.ResidencyExternalInput)
}

// StatefulInput registers an input whose data persists and grows across
// calls (a KV cache): residency stateful_kv_cache instead of
// external_input. The frontend's pattern recognizer also infers this for
// un-annotated graphs; this is the explicit path.
func (b *Builder) StatefulInput(name string, t *tensor.Tensor) Value {
	return b.inputWithResidency(name, t, tensor.MetaOf(t), srg.ResidencyStatefulKVCache)
}

// StatefulInputMeta is StatefulInput for state the client does not hold
// (a remote-resident KV cache the runtime binds by key): the leaf carries
// the descriptor capture needs and no backing store, and InputData
// reports it absent. The captured graph is the one StatefulInput builds
// over a tensor of that descriptor.
func (b *Builder) StatefulInputMeta(name string, meta tensor.Meta) Value {
	return b.inputWithResidency(name, nil, meta, srg.ResidencyStatefulKVCache)
}

func (b *Builder) inputWithResidency(name string, t *tensor.Tensor, meta tensor.Meta, r srg.Residency) Value {
	ref := name
	if p := b.ModulePath(); p != "" {
		ref = p + "." + name
	}
	if _, dup := b.inputResidency[ref]; dup {
		panic(fmt.Sprintf("lazy: duplicate input %q", ref))
	}
	if t != nil {
		b.inputs[ref] = t
	}
	b.inputResidency[ref] = r
	return b.add(&srg.Node{
		Op: "input", Ref: ref,
		Residency: r,
		Cost:      srg.CostHints{Bytes: int64(meta.Bytes())},
	}, meta)
}

func (b *Builder) check(vs ...Value) {
	for _, v := range vs {
		if v.b != b {
			panic("lazy: value from a different builder")
		}
	}
}

// MatMul captures a @ b.
func (b *Builder) MatMul(x, y Value) Value {
	b.check(x, y)
	xs, ys := x.meta.Shape, y.meta.Shape
	if ys.Rank() != 2 || (xs.Rank() != 2 && xs.Rank() != 3) || xs[xs.Rank()-1] != ys[0] {
		panic(fmt.Sprintf("lazy: matmul %v @ %v", xs, ys))
	}
	outShape := xs.Clone()
	outShape[len(outShape)-1] = ys[1]
	m := int64(xs.NumElements() / xs[xs.Rank()-1])
	k, n := int64(ys[0]), int64(ys[1])
	flops := float64(2 * m * k * n)
	bytes := int64(x.meta.Bytes() + y.meta.Bytes() + int(m*n)*4)
	return b.add(&srg.Node{
		Op: "matmul", Inputs: []srg.NodeID{x.id, y.id},
		Residency: srg.ResidencyEphemeralActivation,
		Cost:      srg.CostHints{FLOPs: flops, Bytes: bytes},
	}, tensor.Meta{DType: tensor.F32, Shape: outShape})
}

// MatMulT captures a @ bᵀ (attention scores).
func (b *Builder) MatMulT(x, y Value) Value {
	b.check(x, y)
	xs, ys := x.meta.Shape, y.meta.Shape
	if xs.Rank() != 2 || ys.Rank() != 2 || xs[1] != ys[1] {
		panic(fmt.Sprintf("lazy: matmulT %v @ %vᵀ", xs, ys))
	}
	flops := float64(2 * xs[0] * xs[1] * ys[0])
	bytes := int64(x.meta.Bytes() + y.meta.Bytes() + xs[0]*ys[0]*4)
	return b.add(&srg.Node{
		Op: "matmul_t", Inputs: []srg.NodeID{x.id, y.id},
		Residency: srg.ResidencyEphemeralActivation,
		Cost:      srg.CostHints{FLOPs: flops, Bytes: bytes},
	}, tensor.Meta{DType: tensor.F32, Shape: tensor.Shape{xs[0], ys[0]}})
}

func (b *Builder) ewise(op string, x, y Value) Value {
	b.check(x, y)
	outShape, err := tensor.BroadcastShapes(x.meta.Shape, y.meta.Shape)
	if err != nil {
		panic(fmt.Sprintf("lazy: %s: %v", op, err))
	}
	n := int64(outShape.NumElements())
	return b.add(&srg.Node{
		Op: op, Inputs: []srg.NodeID{x.id, y.id},
		Residency: srg.ResidencyEphemeralActivation,
		Cost:      srg.CostHints{FLOPs: float64(n), Bytes: 3 * n * 4},
	}, tensor.Meta{DType: tensor.F32, Shape: outShape})
}

// Add captures x + y (broadcasting).
func (b *Builder) Add(x, y Value) Value { return b.ewise("add", x, y) }

// Sub captures x - y.
func (b *Builder) Sub(x, y Value) Value { return b.ewise("sub", x, y) }

// Mul captures x * y elementwise.
//
//lint:ignore deadexport SRG builder op: executor tests capture mul
func (b *Builder) Mul(x, y Value) Value { return b.ewise("mul", x, y) }

func (b *Builder) unary(op string, x Value, flopsPerElem float64) Value {
	b.check(x)
	n := int64(x.meta.NumElements())
	return b.add(&srg.Node{
		Op: op, Inputs: []srg.NodeID{x.id},
		Residency: srg.ResidencyEphemeralActivation,
		Cost:      srg.CostHints{FLOPs: flopsPerElem * float64(n), Bytes: 2 * n * 4},
	}, x.meta)
}

// Scale captures x * s for scalar s.
func (b *Builder) Scale(x Value, s float32) Value {
	v := b.unary("scale", x, 1)
	b.g.Node(v.id).Attrs = map[string]string{"s": strconv.FormatFloat(float64(s), 'g', -1, 32)}
	return v
}

// Softmax captures a last-dim softmax.
func (b *Builder) Softmax(x Value) Value { return b.unary("softmax", x, 5) }

// GELU captures the activation.
func (b *Builder) GELU(x Value) Value { return b.unary("gelu", x, 10) }

// ReLU captures the activation.
func (b *Builder) ReLU(x Value) Value { return b.unary("relu", x, 1) }

// LayerNorm captures normalization with learned gain/bias.
func (b *Builder) LayerNorm(x, gamma, beta Value, eps float32) Value {
	b.check(x, gamma, beta)
	inner := x.meta.Shape[x.meta.Shape.Rank()-1]
	if gamma.meta.NumElements() != inner || beta.meta.NumElements() != inner {
		panic(fmt.Sprintf("lazy: layernorm gain/bias %d/%d for inner %d",
			gamma.meta.NumElements(), beta.meta.NumElements(), inner))
	}
	n := int64(x.meta.NumElements())
	v := b.add(&srg.Node{
		Op: "layernorm", Inputs: []srg.NodeID{x.id, gamma.id, beta.id},
		Attrs:     map[string]string{"eps": strconv.FormatFloat(float64(eps), 'g', -1, 32)},
		Residency: srg.ResidencyEphemeralActivation,
		Cost:      srg.CostHints{FLOPs: 8 * float64(n), Bytes: 2 * n * 4},
	}, x.meta)
	return v
}

// Embedding captures a row gather.
func (b *Builder) Embedding(table, ids Value) Value {
	b.check(table, ids)
	ts := table.meta.Shape
	if ts.Rank() != 2 {
		panic(fmt.Sprintf("lazy: embedding table %v", ts))
	}
	n := ids.meta.NumElements()
	outShape := tensor.Shape{n, ts[1]}
	bytes := int64(n * ts[1] * 4)
	return b.add(&srg.Node{
		Op: "embedding", Inputs: []srg.NodeID{table.id, ids.id},
		Residency: srg.ResidencyEphemeralActivation,
		Modality:  srg.ModalitySparse,
		Cost:      srg.CostHints{FLOPs: float64(n), Bytes: 2 * bytes},
	}, tensor.Meta{DType: tensor.F32, Shape: outShape})
}

// EmbeddingBag captures a gather-sum over bags; offsets are static
// attributes (they are part of the request structure, not tensor data).
func (b *Builder) EmbeddingBag(table, ids Value, offsets []int) Value {
	b.check(table, ids)
	ts := table.meta.Shape
	if ts.Rank() != 2 || len(offsets) == 0 {
		panic(fmt.Sprintf("lazy: embedding_bag table %v offsets %v", ts, offsets))
	}
	parts := make([]string, len(offsets))
	for i, o := range offsets {
		parts[i] = strconv.Itoa(o)
	}
	nIDs := ids.meta.NumElements()
	return b.add(&srg.Node{
		Op: "embedding_bag", Inputs: []srg.NodeID{table.id, ids.id},
		Attrs:     map[string]string{"offsets": strings.Join(parts, ",")},
		Residency: srg.ResidencyEphemeralActivation,
		Modality:  srg.ModalitySparse,
		Cost: srg.CostHints{FLOPs: float64(nIDs * ts[1]),
			Bytes: int64((nIDs + len(offsets)) * ts[1] * 4)},
	}, tensor.Meta{DType: tensor.F32, Shape: tensor.Shape{len(offsets), ts[1]}})
}

// Concat captures concatenation along dim. When the first operand is a
// stateful cache leaf this is the KV-append idiom the pattern recognizer
// keys on.
func (b *Builder) Concat(dim int, vs ...Value) Value {
	if len(vs) == 0 {
		panic("lazy: concat of nothing")
	}
	b.check(vs...)
	base := vs[0].meta.Shape.Clone()
	total := 0
	var bytes int64
	ids := make([]srg.NodeID, len(vs))
	for i, v := range vs {
		s := v.meta.Shape
		if s.Rank() != base.Rank() {
			panic(fmt.Sprintf("lazy: concat rank mismatch %v vs %v", s, base))
		}
		for d := range s {
			if d != dim && s[d] != base[d] {
				panic(fmt.Sprintf("lazy: concat shape mismatch %v vs %v", s, base))
			}
		}
		total += s[dim]
		bytes += int64(v.meta.Bytes())
		ids[i] = v.id
	}
	base[dim] = total
	return b.add(&srg.Node{
		Op: "concat", Inputs: ids,
		Attrs:     map[string]string{"dim": strconv.Itoa(dim)},
		Residency: srg.ResidencyEphemeralActivation,
		Cost:      srg.CostHints{Bytes: 2 * bytes},
	}, tensor.Meta{DType: vs[0].meta.DType, Shape: base})
}

// SliceRows captures rows [start,end) along dim 0.
func (b *Builder) SliceRows(x Value, start, end int) Value {
	b.check(x)
	s := x.meta.Shape
	if start < 0 || end > s[0] || start >= end {
		panic(fmt.Sprintf("lazy: slice [%d:%d) of %v", start, end, s))
	}
	outShape := s.Clone()
	outShape[0] = end - start
	return b.add(&srg.Node{
		Op: "slice_rows", Inputs: []srg.NodeID{x.id},
		Attrs:     map[string]string{"start": strconv.Itoa(start), "end": strconv.Itoa(end)},
		Residency: srg.ResidencyEphemeralActivation,
		Cost:      srg.CostHints{Bytes: 2 * int64(outShape.NumElements()) * 4},
	}, tensor.Meta{DType: x.meta.DType, Shape: outShape})
}

// Transpose2D captures xᵀ.
func (b *Builder) Transpose2D(x Value) Value {
	b.check(x)
	s := x.meta.Shape
	if s.Rank() != 2 {
		panic(fmt.Sprintf("lazy: transpose2d of %v", s))
	}
	return b.add(&srg.Node{
		Op: "transpose2d", Inputs: []srg.NodeID{x.id},
		Residency: srg.ResidencyEphemeralActivation,
		Cost:      srg.CostHints{Bytes: 2 * int64(x.meta.Bytes())},
	}, tensor.Meta{DType: x.meta.DType, Shape: tensor.Shape{s[1], s[0]}})
}

// Reshape captures a metadata-only shape change.
func (b *Builder) Reshape(x Value, shape ...int) Value {
	b.check(x)
	s := tensor.Shape(shape)
	if s.NumElements() != x.meta.NumElements() {
		panic(fmt.Sprintf("lazy: reshape %v to %v", x.meta.Shape, s))
	}
	parts := make([]string, len(shape))
	for i, d := range shape {
		parts[i] = strconv.Itoa(d)
	}
	return b.add(&srg.Node{
		Op: "reshape", Inputs: []srg.NodeID{x.id},
		Attrs:     map[string]string{"shape": strings.Join(parts, ",")},
		Residency: srg.ResidencyEphemeralActivation,
	}, tensor.Meta{DType: x.meta.DType, Shape: s.Clone()})
}

// ArgmaxLast captures greedy token selection over the final row.
func (b *Builder) ArgmaxLast(x Value) Value {
	b.check(x)
	s := x.meta.Shape
	if s.Rank() != 2 {
		panic(fmt.Sprintf("lazy: argmax_last of %v", s))
	}
	return b.add(&srg.Node{
		Op: "argmax_last", Inputs: []srg.NodeID{x.id},
		Residency: srg.ResidencyExternalOutput,
		Cost:      srg.CostHints{FLOPs: float64(s[1]), Bytes: int64(s[1]) * 4},
	}, tensor.Meta{DType: tensor.I64, Shape: tensor.Shape{1}})
}

// Conv2D captures a convolution.
func (b *Builder) Conv2D(x, kernel Value, stride, pad int) Value {
	b.check(x, kernel)
	is, ks := x.meta.Shape, kernel.meta.Shape
	if is.Rank() != 3 || ks.Rank() != 4 || is[0] != ks[1] {
		panic(fmt.Sprintf("lazy: conv2d %v * %v", is, ks))
	}
	oh := (is[1]+2*pad-ks[2])/stride + 1
	ow := (is[2]+2*pad-ks[3])/stride + 1
	if oh <= 0 || ow <= 0 {
		panic("lazy: conv2d empty output")
	}
	flops := float64(2 * ks[0] * ks[1] * ks[2] * ks[3] * oh * ow)
	return b.add(&srg.Node{
		Op: "conv2d", Inputs: []srg.NodeID{x.id, kernel.id},
		Attrs: map[string]string{
			"stride": strconv.Itoa(stride), "pad": strconv.Itoa(pad)},
		Residency: srg.ResidencyEphemeralActivation,
		Modality:  srg.ModalityVision,
		Cost: srg.CostHints{FLOPs: flops,
			Bytes: int64(x.meta.Bytes() + kernel.meta.Bytes() + ks[0]*oh*ow*4)},
	}, tensor.Meta{DType: tensor.F32, Shape: tensor.Shape{ks[0], oh, ow}})
}

// MaxPool2D captures k×k pooling.
func (b *Builder) MaxPool2D(x Value, k int) Value {
	b.check(x)
	s := x.meta.Shape
	if s.Rank() != 3 || s[1]/k == 0 || s[2]/k == 0 {
		panic(fmt.Sprintf("lazy: maxpool %d of %v", k, s))
	}
	out := tensor.Shape{s[0], s[1] / k, s[2] / k}
	return b.add(&srg.Node{
		Op: "maxpool2d", Inputs: []srg.NodeID{x.id},
		Attrs:     map[string]string{"k": strconv.Itoa(k)},
		Residency: srg.ResidencyEphemeralActivation,
		Modality:  srg.ModalityVision,
		Cost:      srg.CostHints{FLOPs: float64(x.meta.NumElements()), Bytes: int64(x.meta.Bytes())},
	}, tensor.Meta{DType: tensor.F32, Shape: out})
}

// MeanPoolAll captures global average pooling [c,h,w] -> [c].
func (b *Builder) MeanPoolAll(x Value) Value {
	b.check(x)
	s := x.meta.Shape
	if s.Rank() != 3 {
		panic(fmt.Sprintf("lazy: meanpool of %v", s))
	}
	return b.add(&srg.Node{
		Op: "meanpool", Inputs: []srg.NodeID{x.id},
		Residency: srg.ResidencyEphemeralActivation,
		Modality:  srg.ModalityVision,
		Cost:      srg.CostHints{FLOPs: float64(x.meta.NumElements()), Bytes: int64(x.meta.Bytes())},
	}, tensor.Meta{DType: tensor.F32, Shape: tensor.Shape{s[0]}})
}

// CausalMask captures autoregressive masking of attention scores; offset
// is the number of cached positions preceding the queries.
func (b *Builder) CausalMask(x Value, offset int) Value {
	b.check(x)
	if x.meta.Shape.Rank() != 2 {
		panic(fmt.Sprintf("lazy: causal_mask of %v", x.meta.Shape))
	}
	v := b.unary("causal_mask", x, 0)
	b.g.Node(v.id).Attrs = map[string]string{"offset": strconv.Itoa(offset)}
	return v
}

// AnnotateStateful marks a captured value as a stateful data product that
// must be materialized remotely under the given stable key — the explicit
// handle-naming hook models use for cache products the pattern
// recognizers cannot name on their own (e.g. the fresh K/V rows a prefill
// produces).
func (b *Builder) AnnotateStateful(v Value, key string) {
	b.check(v)
	b.AnnotateStatefulNode(v.id, key)
}

// AnnotateStatefulNode is AnnotateStateful addressed by node ID (for
// callers that re-derived the node from the graph).
func (b *Builder) AnnotateStatefulNode(id srg.NodeID, key string) {
	n := b.g.Node(id)
	if n == nil {
		panic(fmt.Sprintf("lazy: no node %d", id))
	}
	n.Residency = srg.ResidencyStatefulKVCache
	if n.Attrs == nil {
		n.Attrs = map[string]string{}
	}
	n.Attrs["state_key"] = key
}
