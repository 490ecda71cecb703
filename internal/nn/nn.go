// Package nn provides the module system — the analogue of PyTorch's
// nn.Module hierarchy. Modules own concrete weight tensors and know how to
// capture their forward pass into a lazy.Builder; the module names they
// register under become the hierarchical paths the frontend's structural
// annotation groups by (§3.2 "Automated Structural Annotation").
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"genie/internal/lazy"
	"genie/internal/tensor"
)

// Module is anything that can capture a forward pass over a single input.
//
//lint:ignore deadexport test reference: the nn layer contract the layer tests iterate over
type Module interface {
	// Forward captures the module's computation on x inside scope name.
	Forward(b *lazy.Builder, name string, x lazy.Value) lazy.Value
	// NumParams returns the module's parameter count.
	NumParams() int64
}

// Linear is a dense layer y = x@W + bias.
type Linear struct {
	W    *tensor.Tensor // [in, out]
	Bias *tensor.Tensor // [out], optional
}

// NewLinear initializes a Linear with scaled-normal weights.
func NewLinear(rng *rand.Rand, in, out int, bias bool) *Linear {
	l := &Linear{W: tensor.New(tensor.F32, in, out)}
	l.W.RandN(rng, float32(1/math.Sqrt(float64(in))))
	if bias {
		l.Bias = tensor.New(tensor.F32, out)
	}
	return l
}

// Forward implements Module.
func (l *Linear) Forward(b *lazy.Builder, name string, x lazy.Value) lazy.Value {
	var out lazy.Value
	b.InModule(name, func() {
		w := b.Param("w", l.W)
		out = b.MatMul(x, w)
		if l.Bias != nil {
			bias := b.Param("bias", l.Bias)
			out = b.Add(out, bias)
		}
	})
	return out
}

// NumParams implements Module.
func (l *Linear) NumParams() int64 {
	n := int64(l.W.NumElements())
	if l.Bias != nil {
		n += int64(l.Bias.NumElements())
	}
	return n
}

// LayerNorm normalizes the last dimension with learned gain and bias.
type LayerNorm struct {
	Gamma, Beta *tensor.Tensor
	Eps         float32
}

// NewLayerNorm initializes gain=1, bias=0.
func NewLayerNorm(dim int) *LayerNorm {
	g := tensor.New(tensor.F32, dim)
	g.Fill(1)
	return &LayerNorm{Gamma: g, Beta: tensor.New(tensor.F32, dim), Eps: 1e-5}
}

// Forward implements Module.
func (l *LayerNorm) Forward(b *lazy.Builder, name string, x lazy.Value) lazy.Value {
	var out lazy.Value
	b.InModule(name, func() {
		g := b.Param("gamma", l.Gamma)
		be := b.Param("beta", l.Beta)
		out = b.LayerNorm(x, g, be, l.Eps)
	})
	return out
}

// NumParams implements Module.
func (l *LayerNorm) NumParams() int64 {
	return int64(l.Gamma.NumElements() + l.Beta.NumElements())
}

// Embedding maps token ids to dense rows.
type Embedding struct {
	Table *tensor.Tensor // [vocab, dim]
}

// NewEmbedding initializes a [vocab, dim] table.
func NewEmbedding(rng *rand.Rand, vocab, dim int) *Embedding {
	e := &Embedding{Table: tensor.New(tensor.F32, vocab, dim)}
	e.Table.RandN(rng, 0.02)
	return e
}

// Lookup captures a gather of ids through the table.
func (e *Embedding) Lookup(b *lazy.Builder, name string, ids lazy.Value) lazy.Value {
	var out lazy.Value
	b.InModule(name, func() {
		t := b.Param("table", e.Table)
		out = b.Embedding(t, ids)
	})
	return out
}

// NumParams implements Module.
func (e *Embedding) NumParams() int64 { return int64(e.Table.NumElements()) }

// MLP is the transformer feed-forward block: Linear → GELU → Linear.
type MLP struct {
	FC   *Linear
	Proj *Linear
}

// NewMLP builds the standard 4× expansion block.
func NewMLP(rng *rand.Rand, dim, hidden int) *MLP {
	return &MLP{
		FC:   NewLinear(rng, dim, hidden, true),
		Proj: NewLinear(rng, hidden, dim, true),
	}
}

// Forward implements Module.
func (m *MLP) Forward(b *lazy.Builder, name string, x lazy.Value) lazy.Value {
	var out lazy.Value
	b.InModule(name, func() {
		h := m.FC.Forward(b, "fc", x)
		h = b.GELU(h)
		out = m.Proj.Forward(b, "proj", h)
	})
	return out
}

// NumParams implements Module.
func (m *MLP) NumParams() int64 { return m.FC.NumParams() + m.Proj.NumParams() }

// KVCache is the concrete stateful key/value store for one attention
// layer. It grows by one row per decoded token — the defining access
// pattern of the decode phase.
type KVCache struct {
	K, V *tensor.Tensor // [t, dim], nil when empty
}

// Len returns the number of cached positions.
func (c *KVCache) Len() int {
	if c.K == nil {
		return 0
	}
	return c.K.Shape()[0]
}

// Bytes returns the cache footprint.
func (c *KVCache) Bytes() int64 {
	if c.K == nil {
		return 0
	}
	return int64(c.K.NumBytes() + c.V.NumBytes())
}

// Append grows the cache with new rows (concrete-side mirror of the
// captured concat).
//
//lint:ignore deadexport test reference: concrete mirror of the captured KV concat
func (c *KVCache) Append(k, v *tensor.Tensor) {
	if c.K == nil {
		c.K, c.V = k.Clone(), v.Clone()
		return
	}
	c.K = mustConcatRows(c.K, k)
	c.V = mustConcatRows(c.V, v)
}

func mustConcatRows(a, b *tensor.Tensor) *tensor.Tensor {
	as, bs := a.Shape(), b.Shape()
	if as.Rank() != 2 || bs.Rank() != 2 || as[1] != bs[1] {
		panic(fmt.Sprintf("nn: kv append %v ++ %v", as, bs))
	}
	out := tensor.New(a.DType(), as[0]+bs[0], as[1])
	copy(out.Bytes(), a.Bytes())
	copy(out.Bytes()[a.NumBytes():], b.Bytes())
	return out
}

// Attention is causal multi-head self-attention with an optional KV
// cache.
type Attention struct {
	NumHeads       int
	WQ, WK, WV, WO *Linear
	dim            int
}

// NewAttention builds the four projections.
func NewAttention(rng *rand.Rand, dim, heads int) *Attention {
	if dim%heads != 0 {
		panic(fmt.Sprintf("nn: dim %d not divisible by %d heads", dim, heads))
	}
	return &Attention{
		NumHeads: heads, dim: dim,
		WQ: NewLinear(rng, dim, dim, false),
		WK: NewLinear(rng, dim, dim, false),
		WV: NewLinear(rng, dim, dim, false),
		WO: NewLinear(rng, dim, dim, false),
	}
}

// NumParams implements Module.
func (a *Attention) NumParams() int64 {
	return a.WQ.NumParams() + a.WK.NumParams() + a.WV.NumParams() + a.WO.NumParams()
}

// Forward implements Module for the no-cache (prefill-style) case.
func (a *Attention) Forward(b *lazy.Builder, name string, x lazy.Value) lazy.Value {
	out, _, _ := a.ForwardKV(b, name, x, lazy.Value{}, lazy.Value{})
	return out
}

// ForwardKV captures attention where cacheK/cacheV (possibly invalid =
// empty) hold prior keys/values. It returns the block output plus the
// captured new K and V rows so the caller can wire cache appends.
//
// The capture is deliberately simplified relative to a production
// transformer (single fused head-space rather than per-head reshapes):
// the semantic structure — Q@Kᵀ, causal softmax, @V — and the data
// volumes match, which is what the disaggregation study needs.
func (a *Attention) ForwardKV(b *lazy.Builder, name string, x, cacheK, cacheV lazy.Value) (out, newK, newV lazy.Value) {
	b.InModule(name, func() {
		q := a.WQ.Forward(b, "wq", x)
		newK = a.WK.Forward(b, "wk", x)
		newV = a.WV.Forward(b, "wv", x)

		k, v := newK, newV
		if cacheK.Valid() {
			k = b.Concat(0, cacheK, newK)
			v = b.Concat(0, cacheV, newV)
		}
		scores := b.MatMulT(q, k) // [tq, tk]
		scores = b.Scale(scores, float32(1/math.Sqrt(float64(a.dim/a.NumHeads))))
		// Autoregressive masking: queries may not attend to future keys.
		offset := k.Shape()[0] - scores.Shape()[0]
		scores = b.CausalMask(scores, offset)
		probs := b.Softmax(scores)
		ctx := b.MatMul(probs, v) // [tq, dim]
		out = a.WO.Forward(b, "wo", ctx)
	})
	return out, newK, newV
}

// Block is one transformer layer: pre-norm attention + pre-norm MLP with
// residual connections.
type Block struct {
	LN1, LN2 *LayerNorm
	Attn     *Attention
	MLP      *MLP
}

// NewBlock builds a standard decoder block.
func NewBlock(rng *rand.Rand, dim, heads, hidden int) *Block {
	return &Block{
		LN1:  NewLayerNorm(dim),
		LN2:  NewLayerNorm(dim),
		Attn: NewAttention(rng, dim, heads),
		MLP:  NewMLP(rng, dim, hidden),
	}
}

// NumParams implements Module.
func (bl *Block) NumParams() int64 {
	return bl.LN1.NumParams() + bl.LN2.NumParams() + bl.Attn.NumParams() + bl.MLP.NumParams()
}

// ForwardKV captures the block with optional KV cache inputs.
func (bl *Block) ForwardKV(b *lazy.Builder, name string, x, cacheK, cacheV lazy.Value) (out, newK, newV lazy.Value) {
	b.InModule(name, func() {
		h := bl.LN1.Forward(b, "ln1", x)
		var attnOut lazy.Value
		attnOut, newK, newV = bl.Attn.ForwardKV(b, "attention", h, cacheK, cacheV)
		x = b.Add(x, attnOut)
		h2 := bl.LN2.Forward(b, "ln2", x)
		out = b.Add(x, bl.MLP.Forward(b, "mlp", h2))
	})
	return out, newK, newV
}

// Forward implements Module (no cache).
func (bl *Block) Forward(b *lazy.Builder, name string, x lazy.Value) lazy.Value {
	out, _, _ := bl.ForwardKV(b, name, x, lazy.Value{}, lazy.Value{})
	return out
}

// Conv2D is a convolutional layer with bias and ReLU, the CNN building
// block.
type Conv2D struct {
	Kernel *tensor.Tensor // [outC, inC, kh, kw]
	Bias   *tensor.Tensor // [outC]
	Stride int
	Pad    int
}

// NewConv2D initializes a conv layer.
func NewConv2D(rng *rand.Rand, inC, outC, k, stride, pad int) *Conv2D {
	c := &Conv2D{
		Kernel: tensor.New(tensor.F32, outC, inC, k, k),
		Bias:   tensor.New(tensor.F32, outC),
		Stride: stride, Pad: pad,
	}
	c.Kernel.RandN(rng, float32(1/math.Sqrt(float64(inC*k*k))))
	return c
}

// Forward implements Module: conv → +bias (broadcast per channel is
// approximated by reshape-free add of [outC,1,1]-expanded bias being
// unsupported, so bias is folded as a per-channel scale-free add through
// a [oh*ow]-tiled tensor at build time) → ReLU.
func (c *Conv2D) Forward(b *lazy.Builder, name string, x lazy.Value) lazy.Value {
	var out lazy.Value
	b.InModule(name, func() {
		k := b.Param("kernel", c.Kernel)
		out = b.Conv2D(x, k, c.Stride, c.Pad)
		// Per-channel bias: materialize as [outC, oh, ow] is wasteful;
		// instead rely on broadcast over trailing dims being unavailable
		// and add bias only when spatial dims are 1 (post-pool heads).
		s := out.Shape()
		if s[1] == 1 && s[2] == 1 {
			bias := b.Param("bias", c.Bias)
			flat := b.Reshape(out, 1, s[0])
			flat = b.Add(flat, bias)
			out = b.Reshape(flat, s[0], 1, 1)
		}
		out = b.ReLU(out)
	})
	return out
}

// NumParams implements Module.
func (c *Conv2D) NumParams() int64 {
	return int64(c.Kernel.NumElements() + c.Bias.NumElements())
}

// EmbeddingBag is the DLRM-style sparse feature module: gathers and sums
// rows per bag.
type EmbeddingBag struct {
	Table *tensor.Tensor // [vocab, dim]
}

// NewEmbeddingBag initializes the table.
func NewEmbeddingBag(rng *rand.Rand, vocab, dim int) *EmbeddingBag {
	e := &EmbeddingBag{Table: tensor.New(tensor.F32, vocab, dim)}
	e.Table.RandN(rng, 0.05)
	return e
}

// Lookup captures a bag gather-sum.
func (e *EmbeddingBag) Lookup(b *lazy.Builder, name string, ids lazy.Value, offsets []int) lazy.Value {
	var out lazy.Value
	b.InModule(name, func() {
		t := b.Param("table", e.Table)
		out = b.EmbeddingBag(t, ids, offsets)
	})
	return out
}

// NumParams implements Module.
func (e *EmbeddingBag) NumParams() int64 { return int64(e.Table.NumElements()) }
