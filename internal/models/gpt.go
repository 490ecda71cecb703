// Package models implements the workload models the paper evaluates or
// motivates (Table 1): a GPT-style autoregressive LLM (GPT-J-configurable),
// a convolutional vision network, a DLRM-style recommender, and a
// multi-modal fusion model. Each model captures its forward pass into SRGs
// with the semantics the frontend recognizers key on.
//
// Models run for real at small configurations (the correctness plane) and
// provide exact analytic accounting (weights, FLOPs, KV sizes) at paper
// scale (the simulation plane).
package models

import (
	"fmt"
	"math/rand"

	"genie/internal/lazy"
	"genie/internal/nn"
	"genie/internal/srg"
	"genie/internal/tensor"
)

// GPTConfig describes a decoder-only transformer.
type GPTConfig struct {
	Layers int
	Dim    int
	Heads  int
	Hidden int
	Vocab  int
	MaxSeq int
	// WeightBytesPerParam is 2 for fp16 deployment (the paper's GPT-J),
	// 4 for fp32.
	WeightBytesPerParam int
}

// GPTJ6B is the paper's evaluation model (§4): 28 layers, d=4096,
// 16 heads, 50400 vocab, fp16 weights ≈ 12.1 GB.
var GPTJ6B = GPTConfig{
	Layers: 28, Dim: 4096, Heads: 16, Hidden: 16384,
	Vocab: 50400, MaxSeq: 2048, WeightBytesPerParam: 2,
}

// TinyGPT is the laptop-scale configuration used for real end-to-end
// execution in tests and examples.
var TinyGPT = GPTConfig{
	Layers: 2, Dim: 32, Heads: 4, Hidden: 64,
	Vocab: 96, MaxSeq: 64, WeightBytesPerParam: 4,
}

// ParamCount returns the exact parameter count.
func (c GPTConfig) ParamCount() int64 {
	perLayer := int64(4*c.Dim*c.Dim) + // attention projections
		int64(2*c.Dim*c.Hidden+c.Hidden+c.Dim) + // mlp (+biases)
		int64(4*c.Dim) // two layernorms
	return int64(c.Vocab)*int64(c.Dim) + // token embedding
		int64(c.MaxSeq)*int64(c.Dim) + // position embedding
		int64(c.Layers)*perLayer +
		int64(2*c.Dim) + // final layernorm
		int64(c.Dim)*int64(c.Vocab) // lm head
}

// WeightBytes returns the deployed weight footprint.
func (c GPTConfig) WeightBytes() int64 {
	return c.ParamCount() * int64(c.WeightBytesPerParam)
}

// KVBytesPerToken returns the per-token KV-cache growth across all layers
// (K and V rows, fp32 runtime cache — the paper's ~1.0 MB delta for
// GPT-J).
func (c GPTConfig) KVBytesPerToken() int64 {
	return int64(2 * c.Layers * c.Dim * 4)
}

// KVBytes returns the cache footprint after t tokens.
func (c GPTConfig) KVBytes(t int) int64 { return int64(t) * c.KVBytesPerToken() }

// LogitsBytes returns one position's logits row size.
func (c GPTConfig) LogitsBytes() int64 { return int64(c.Vocab) * 4 }

// PrefillFLOPs estimates the prompt-processing work for t tokens:
// 2·params per token plus the quadratic attention term.
func (c GPTConfig) PrefillFLOPs(t int) float64 {
	dense := 2 * float64(c.ParamCount()) * float64(t)
	attn := 4 * float64(c.Layers) * float64(t) * float64(t) * float64(c.Dim)
	return dense + attn
}

// DecodeFLOPs estimates one decode step's work at history length hist.
func (c GPTConfig) DecodeFLOPs(hist int) float64 {
	dense := 2 * float64(c.ParamCount())
	attn := 4 * float64(c.Layers) * float64(hist) * float64(c.Dim)
	return dense + attn
}

// DecodeBytesTouched returns the memory traffic of one decode step
// (weights + KV history), which makes decode memory-bound — the property
// the paper's phase-aware scheduling exploits.
func (c GPTConfig) DecodeBytesTouched(hist int) int64 {
	return c.WeightBytes() + c.KVBytes(hist)
}

// GPT is a runnable decoder-only transformer.
type GPT struct {
	Cfg    GPTConfig
	Embed  *nn.Embedding
	Pos    *nn.Embedding
	Blocks []*nn.Block
	LNF    *nn.LayerNorm
	Head   *nn.Linear
}

// NewGPT initializes real weights for the configuration (only call for
// small configs; GPT-J-scale accounting uses GPTConfig directly).
func NewGPT(rng *rand.Rand, cfg GPTConfig) *GPT {
	m := &GPT{
		Cfg:   cfg,
		Embed: nn.NewEmbedding(rng, cfg.Vocab, cfg.Dim),
		Pos:   nn.NewEmbedding(rng, cfg.MaxSeq, cfg.Dim),
		LNF:   nn.NewLayerNorm(cfg.Dim),
		Head:  nn.NewLinear(rng, cfg.Dim, cfg.Vocab, false),
	}
	for i := 0; i < cfg.Layers; i++ {
		m.Blocks = append(m.Blocks, nn.NewBlock(rng, cfg.Dim, cfg.Heads, cfg.Hidden))
	}
	return m
}

// cacheName is the in-module input name for a layer's cache half; the
// capture happens inside the "gpt" module scope, so the resulting leaf
// ref (and canonical remote-object key) is CacheRef.
func cacheName(layer int, half string) string {
	return fmt.Sprintf("kv.%d.%s", layer, half)
}

// CacheRef returns the canonical leaf ref / remote-object key for a
// layer's cache half ("k" or "v").
func CacheRef(layer int, half string) string {
	return "gpt." + cacheName(layer, half)
}

// LLMOutputs indexes the interesting nodes of a captured LLM graph.
type LLMOutputs struct {
	// Logits is the [t, vocab] head output node.
	Logits srg.NodeID
	// LastLogits is the final position's [1, vocab] logits row — the only
	// logits a generation loop actually needs, which a semantics-aware
	// runtime ships instead of the full matrix.
	LastLogits srg.NodeID
	// NextToken is the argmax over the final position.
	NextToken srg.NodeID
	// CacheK and CacheV hold, per layer, the node producing the full
	// cache contents after this call (new rows only for prefill; the
	// appended concat for decode).
	CacheK, CacheV []srg.NodeID
	// NewK and NewV hold, per layer, the node producing only the freshly
	// computed cache rows of this call — the ΔKV slice a prefix cache
	// inserts without shipping the (already resident) history back. At
	// prefill they coincide with CacheK/CacheV.
	NewK, NewV []srg.NodeID
}

// BuildPrefill captures the prompt pass over the given token ids. The
// returned builder owns the weights; outputs identify logits, next token,
// and the per-layer KV products (which a semantics-aware scheduler pins
// remotely).
func (m *GPT) BuildPrefill(tokens []int64) (*lazy.Builder, LLMOutputs) {
	if len(tokens) == 0 || len(tokens) > m.Cfg.MaxSeq {
		panic(fmt.Sprintf("models: prompt length %d out of range", len(tokens)))
	}
	b := lazy.NewBuilder("gpt.prefill")
	b.SetModality(srg.ModalityText)
	var out LLMOutputs
	b.InModule("gpt", func() {
		ids := b.Input("tokens", tensor.FromI64(tensor.Shape{len(tokens)}, tokens))
		x := m.Embed.Lookup(b, "wte", ids)
		pos := m.Pos.Lookup(b, "wpe",
			b.Input("positions", positions(0, len(tokens))))
		x = b.Add(x, pos)
		for i, blk := range m.Blocks {
			var k, v lazy.Value
			x, k, v = blk.ForwardKV(b, fmt.Sprintf("blocks.%d", i), x, lazy.Value{}, lazy.Value{})
			b.AnnotateStateful(k, CacheRef(i, "k"))
			b.AnnotateStateful(v, CacheRef(i, "v"))
			out.CacheK = append(out.CacheK, k.ID())
			out.CacheV = append(out.CacheV, v.ID())
			out.NewK = append(out.NewK, k.ID())
			out.NewV = append(out.NewV, v.ID())
		}
		x = m.LNF.Forward(b, "ln_f", x)
		logits := m.Head.Forward(b, "lm_head", x)
		b.MarkOutput(logits)
		last := b.SliceRows(logits, len(tokens)-1, len(tokens))
		b.MarkOutput(last)
		next := b.ArgmaxLast(logits)
		b.MarkOutput(next)
		out.Logits = logits.ID()
		out.LastLogits = last.ID()
		out.NextToken = next.ID()
	})
	return b, out
}

// BuildDecodeStep captures one autoregressive step: the new token at
// absolute position pos attends over per-layer caches of length pos.
// Caches enter the graph as stateful inputs bound to concrete data (Local
// and client-owned modes) or rebound to remote keys by the runtime
// (semantics-aware mode); histLen is their current length.
func (m *GPT) BuildDecodeStep(token int64, pos, histLen int, caches []*nn.KVCache) (*lazy.Builder, LLMOutputs) {
	if len(caches) != m.Cfg.Layers {
		panic(fmt.Sprintf("models: %d caches for %d layers", len(caches), m.Cfg.Layers))
	}
	b := lazy.NewBuilder("gpt.decode")
	b.SetModality(srg.ModalityText)
	var out LLMOutputs
	b.InModule("gpt", func() {
		ids := b.Input("token", tensor.FromI64(tensor.Shape{1}, []int64{token}))
		x := m.Embed.Lookup(b, "wte", ids)
		posv := m.Pos.Lookup(b, "wpe", b.Input("position", positions(pos, 1)))
		x = b.Add(x, posv)
		for i, blk := range m.Blocks {
			cacheK := cacheInput(b, cacheName(i, "k"), caches[i].K, histLen, m.Cfg.Dim)
			cacheV := cacheInput(b, cacheName(i, "v"), caches[i].V, histLen, m.Cfg.Dim)
			var k, v lazy.Value
			x, k, v = blk.ForwardKV(b, fmt.Sprintf("blocks.%d", i), x, cacheK, cacheV)
			// The appended caches are the concat nodes (cache ++ new).
			// Find them: they are the inputs of the attention's score
			// matmul; simpler, capture appended = concat captured inside
			// ForwardKV. We re-derive them as the concat consumers of the
			// stateful inputs.
			ak := appendedCache(b, cacheK.ID())
			av := appendedCache(b, cacheV.ID())
			b.AnnotateStatefulNode(ak, CacheRef(i, "k"))
			b.AnnotateStatefulNode(av, CacheRef(i, "v"))
			out.CacheK = append(out.CacheK, ak)
			out.CacheV = append(out.CacheV, av)
			out.NewK = append(out.NewK, k.ID())
			out.NewV = append(out.NewV, v.ID())
		}
		x = m.LNF.Forward(b, "ln_f", x)
		logits := m.Head.Forward(b, "lm_head", x)
		b.MarkOutput(logits)
		next := b.ArgmaxLast(logits)
		b.MarkOutput(next)
		out.Logits = logits.ID()
		out.LastLogits = logits.ID() // decode logits are already [1, vocab]
		out.NextToken = next.ID()
	})
	return b, out
}

// appendedCache finds the concat node consuming a stateful cache input —
// the node whose output is the updated cache.
func appendedCache(b *lazy.Builder, cacheLeaf srg.NodeID) srg.NodeID {
	g := b.Graph()
	for _, n := range g.Nodes() {
		if n.Op == "concat" && len(n.Inputs) >= 1 && n.Inputs[0] == cacheLeaf {
			return n.ID
		}
	}
	panic("models: cache leaf has no concat consumer")
}

// cacheInput captures a layer's cache leaf: over the concrete tensor
// when the client holds it, otherwise (remote-resident mode) over its
// descriptor alone — the runtime binds the leaf to a remote key, so
// capture needs the shape and nothing to back it.
func cacheInput(b *lazy.Builder, name string, t *tensor.Tensor, histLen, dim int) lazy.Value {
	if t != nil {
		return b.StatefulInput(name, t)
	}
	if histLen <= 0 {
		histLen = 1
	}
	return b.StatefulInputMeta(name, tensor.Meta{DType: tensor.F32, Shape: tensor.Shape{histLen, dim}})
}

// LayerStepOutputs indexes a per-layer subgraph (the unit a
// semantics-blind per-module dispatcher ships one RPC at a time).
type LayerStepOutputs struct {
	// Out is the layer's activation output.
	Out srg.NodeID
	// NewK and NewV are the freshly produced cache rows (the "delta
	// slice").
	NewK, NewV srg.NodeID
	// AppendedK and AppendedV are the full updated caches (concat nodes);
	// Invalid when the layer ran without a cache (prefill).
	AppendedK, AppendedV srg.NodeID
}

// BuildLayerStep captures a single transformer layer over activation x.
// When histLen > 0 the layer attends over a stateful cache of that
// length (cache data may be nil for remote-resident caches — the graph
// only needs shapes); when histLen == 0 it runs cache-less (prefill).
func (m *GPT) BuildLayerStep(layer int, x *tensor.Tensor, cache *nn.KVCache, histLen int) (*lazy.Builder, LayerStepOutputs) {
	b := lazy.NewBuilder(fmt.Sprintf("gpt.layer%d.step", layer))
	b.SetModality(srg.ModalityText)
	out := LayerStepOutputs{AppendedK: srg.Invalid, AppendedV: srg.Invalid}
	b.InModule("gpt", func() {
		xin := b.Input("x", x)
		var cacheK, cacheV lazy.Value
		if histLen > 0 {
			var ckData, cvData *tensor.Tensor
			if cache != nil {
				ckData, cvData = cache.K, cache.V
			}
			cacheK = cacheInput(b, cacheName(layer, "k"), ckData, histLen, m.Cfg.Dim)
			cacheV = cacheInput(b, cacheName(layer, "v"), cvData, histLen, m.Cfg.Dim)
		}
		o, k, v := m.Blocks[layer].ForwardKV(b, fmt.Sprintf("blocks.%d", layer), xin, cacheK, cacheV)
		b.MarkOutput(o)
		b.MarkOutput(k)
		b.MarkOutput(v)
		out.Out, out.NewK, out.NewV = o.ID(), k.ID(), v.ID()
		if histLen > 0 {
			out.AppendedK = appendedCache(b, cacheK.ID())
			out.AppendedV = appendedCache(b, cacheV.ID())
		}
	})
	return b, out
}

// BuildEmbedStep captures token+position embedding for a token span
// starting at absolute position startPos.
func (m *GPT) BuildEmbedStep(tokens []int64, startPos int) (*lazy.Builder, srg.NodeID) {
	b := lazy.NewBuilder("gpt.embed.step")
	b.SetModality(srg.ModalityText)
	var id srg.NodeID
	b.InModule("gpt", func() {
		ids := b.Input("tokens", tensor.FromI64(tensor.Shape{len(tokens)}, tokens))
		x := m.Embed.Lookup(b, "wte", ids)
		posv := m.Pos.Lookup(b, "wpe", b.Input("positions", positions(startPos, len(tokens))))
		x = b.Add(x, posv)
		b.MarkOutput(x)
		id = x.ID()
	})
	return b, id
}

// BuildHeadStep captures the final layernorm + lm head for one position.
func (m *GPT) BuildHeadStep(x *tensor.Tensor) (*lazy.Builder, srg.NodeID, srg.NodeID) {
	b := lazy.NewBuilder("gpt.head.step")
	b.SetModality(srg.ModalityText)
	var logitsID, nextID srg.NodeID
	b.InModule("gpt", func() {
		xin := b.Input("x", x)
		h := m.LNF.Forward(b, "ln_f", xin)
		logits := m.Head.Forward(b, "lm_head", h)
		next := b.ArgmaxLast(logits)
		b.MarkOutput(logits)
		b.MarkOutput(next)
		logitsID, nextID = logits.ID(), next.ID()
	})
	return b, logitsID, nextID
}

// SegmentSpec describes a contiguous slice of the forward pass — the
// unit one pool shard executes as a single fused RPC. A segment covers
// blocks [LoLayer, HiLayer); the first segment additionally runs the
// embeddings (its input is then token ids, not an activation) and the
// last one the final norm + lm head + argmax.
type SegmentSpec struct {
	// WithEmbed prepends token+position embedding; Tokens/StartPos feed
	// it. Otherwise X is the incoming [t, dim] activation.
	WithEmbed bool
	Tokens    []int64
	StartPos  int
	X         *tensor.Tensor
	// LoLayer..HiLayer-1 are the blocks captured.
	LoLayer, HiLayer int
	// WithHead appends ln_f + lm_head + argmax.
	WithHead bool
	// HistLen is the per-layer cache length (0 = prefill: blocks run
	// cache-less and their fresh KV rows become the caches).
	HistLen int
	// Caches optionally supplies concrete per-layer cache data (indexed by
	// absolute layer) for the HistLen > 0 stateful inputs. When nil the
	// inputs are descriptors only (lazy.StatefulInputMeta) and the runtime
	// must bind them to remote-resident keys; when set, the graph is directly
	// executable (the prefix-cache extend path binds gathered pages here).
	Caches []*nn.KVCache
}

// SegmentOutputs indexes a captured segment graph.
type SegmentOutputs struct {
	// Out is the boundary activation shipped to the next shard; Invalid
	// when WithHead (the segment ends in logits instead).
	Out srg.NodeID
	// LastLogits and NextToken are set when WithHead.
	LastLogits, NextToken srg.NodeID
	// CacheK/CacheV hold, per included layer (Layers[i] gives the
	// absolute index), the node producing the layer's full cache after
	// this call — fresh rows at prefill, the appended concat at decode.
	CacheK, CacheV []srg.NodeID
	// NewK/NewV hold, per included layer, the node producing only the
	// freshly computed rows (the ΔKV slice). Equal to CacheK/CacheV when
	// HistLen == 0.
	NewK, NewV []srg.NodeID
	Layers     []int
}

// BuildSegment captures one shard's slice of the forward pass. The
// capture mirrors BuildPrefill/BuildDecodeStep exactly — same ops, same
// module scopes, same cache annotations — so a pipeline of segments
// produces bit-identical tokens to the monolithic graphs.
func (m *GPT) BuildSegment(spec SegmentSpec) (*lazy.Builder, SegmentOutputs) {
	if spec.LoLayer < 0 || spec.HiLayer > m.Cfg.Layers || spec.LoLayer > spec.HiLayer {
		panic(fmt.Sprintf("models: segment layers [%d,%d) out of range", spec.LoLayer, spec.HiLayer))
	}
	b := lazy.NewBuilder(fmt.Sprintf("gpt.segment.%d-%d", spec.LoLayer, spec.HiLayer))
	b.SetModality(srg.ModalityText)
	var out SegmentOutputs
	out.Out, out.LastLogits, out.NextToken = srg.Invalid, srg.Invalid, srg.Invalid
	b.InModule("gpt", func() {
		var x lazy.Value
		var rows int
		if spec.WithEmbed {
			ids := b.Input("tokens", tensor.FromI64(tensor.Shape{len(spec.Tokens)}, spec.Tokens))
			x = m.Embed.Lookup(b, "wte", ids)
			posv := m.Pos.Lookup(b, "wpe",
				b.Input("positions", positions(spec.StartPos, len(spec.Tokens))))
			x = b.Add(x, posv)
			rows = len(spec.Tokens)
		} else {
			x = b.Input("x", spec.X)
			rows = spec.X.Shape()[0]
		}
		for i := spec.LoLayer; i < spec.HiLayer; i++ {
			var cacheK, cacheV lazy.Value
			if spec.HistLen > 0 {
				var ckData, cvData *tensor.Tensor
				if spec.Caches != nil && spec.Caches[i] != nil {
					ckData, cvData = spec.Caches[i].K, spec.Caches[i].V
				}
				cacheK = cacheInput(b, cacheName(i, "k"), ckData, spec.HistLen, m.Cfg.Dim)
				cacheV = cacheInput(b, cacheName(i, "v"), cvData, spec.HistLen, m.Cfg.Dim)
			}
			var k, v lazy.Value
			x, k, v = m.Blocks[i].ForwardKV(b, fmt.Sprintf("blocks.%d", i), x, cacheK, cacheV)
			if spec.HistLen > 0 {
				ak := appendedCache(b, cacheK.ID())
				av := appendedCache(b, cacheV.ID())
				b.AnnotateStatefulNode(ak, CacheRef(i, "k"))
				b.AnnotateStatefulNode(av, CacheRef(i, "v"))
				out.CacheK = append(out.CacheK, ak)
				out.CacheV = append(out.CacheV, av)
			} else {
				b.AnnotateStateful(k, CacheRef(i, "k"))
				b.AnnotateStateful(v, CacheRef(i, "v"))
				out.CacheK = append(out.CacheK, k.ID())
				out.CacheV = append(out.CacheV, v.ID())
			}
			out.NewK = append(out.NewK, k.ID())
			out.NewV = append(out.NewV, v.ID())
			out.Layers = append(out.Layers, i)
		}
		if spec.WithHead {
			x = m.LNF.Forward(b, "ln_f", x)
			logits := m.Head.Forward(b, "lm_head", x)
			b.MarkOutput(logits)
			last := b.SliceRows(logits, rows-1, rows)
			b.MarkOutput(last)
			next := b.ArgmaxLast(logits)
			b.MarkOutput(next)
			out.LastLogits = last.ID()
			out.NextToken = next.ID()
		} else {
			b.MarkOutput(x)
			out.Out = x.ID()
		}
	})
	return b, out
}

// BuildPrefillExtend captures a suffix-only prompt pass: the suffix
// tokens (absolute positions histLen..histLen+len(suffix)-1) attend over
// per-layer caches already holding the first histLen positions — the
// prefix-cache hit path, where the shared prefix's KV state is reused and
// only the novel suffix is computed. With concrete caches the graph runs
// locally as-is; with nil cache data the stateful inputs are placeholders
// for the runtime to rebind to remote-resident keys. Offset-based causal
// masking inside the blocks makes the result bit-identical to a full
// BuildPrefill over prefix+suffix.
func (m *GPT) BuildPrefillExtend(suffix []int64, histLen int, caches []*nn.KVCache) (*lazy.Builder, SegmentOutputs) {
	if len(suffix) == 0 || histLen <= 0 || histLen+len(suffix) > m.Cfg.MaxSeq {
		panic(fmt.Sprintf("models: extend of %d tokens over history %d out of range", len(suffix), histLen))
	}
	return m.BuildSegment(SegmentSpec{
		WithEmbed: true,
		Tokens:    suffix,
		StartPos:  histLen,
		LoLayer:   0,
		HiLayer:   m.Cfg.Layers,
		WithHead:  true,
		HistLen:   histLen,
		Caches:    caches,
	})
}

func positions(start, n int) *tensor.Tensor {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(start + i)
	}
	return tensor.FromI64(tensor.Shape{n}, ids)
}

// NumParams returns the live model's actual parameter count (must agree
// with Cfg.ParamCount; a test asserts this).
func (m *GPT) NumParams() int64 {
	n := m.Embed.NumParams() + m.Pos.NumParams() + m.LNF.NumParams() + m.Head.NumParams()
	for _, b := range m.Blocks {
		n += b.NumParams()
	}
	return n
}
