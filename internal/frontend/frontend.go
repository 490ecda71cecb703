// Package frontend implements Genie's intent-capture tier above the raw
// lazy tracer (§3.2): structural annotation from the module hierarchy,
// a library of pattern recognizers that infer high-level semantics
// (execution phases, cache behavior, pipeline structure) from graph
// idioms, and explicit developer hooks for novel architectures.
//
// The output of Annotate is a fully-tagged SRG — the contract the
// scheduler consumes without understanding the source framework.
package frontend

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"genie/internal/srg"
)

// Recognizer infers semantic annotations from graph structure. Apply
// returns how many nodes it tagged (0 = pattern absent).
type Recognizer interface {
	// Name identifies the recognizer in reports.
	Name() string
	// Apply tags the graph in place.
	Apply(g *srg.Graph) int
}

// DefaultRecognizers returns the standard library of model-idiom
// recognizers, in application order.
func DefaultRecognizers() []Recognizer {
	return []Recognizer{
		KVCacheDecodeRecognizer{},
		AttentionPrefillRecognizer{},
		ConvPipelineRecognizer{},
		SparseDenseRecognizer{},
		ModalityFusionRecognizer{},
	}
}

// Report summarizes what Annotate inferred.
type Report struct {
	// Tagged maps recognizer name -> nodes tagged.
	Tagged map[string]int
	// Phases lists the distinct phases present after annotation.
	Phases []srg.Phase
}

// Annotate runs the full annotation pipeline: pattern recognizers,
// then critical-path edge marking and reduction-rate edge annotation.
// Explicit developer annotations (AnnotatePhase etc.) applied beforehand
// are preserved — recognizers never overwrite a non-empty phase.
func Annotate(g *srg.Graph) Report {
	return AnnotateWith(g, DefaultRecognizers())
}

// AnnotateWith runs a custom recognizer set (the §3.3 prepass extension
// point) followed by the standard edge passes.
func AnnotateWith(g *srg.Graph, recs []Recognizer) Report {
	r := Report{Tagged: make(map[string]int)}
	for _, rec := range recs {
		r.Tagged[rec.Name()] = rec.Apply(g)
	}
	markReductionRates(g)
	g.MarkCriticalPath()

	seen := make(map[srg.Phase]bool)
	for _, n := range g.Nodes() {
		if n.Phase != srg.PhaseUnknown && !seen[n.Phase] {
			seen[n.Phase] = true
			r.Phases = append(r.Phases, n.Phase)
		}
	}
	sort.Slice(r.Phases, func(i, j int) bool { return r.Phases[i] < r.Phases[j] })
	return r
}

// AnnotatePhase is the explicit developer hook (genie.annotate_phase in
// the paper): every node whose module path starts with modulePrefix gets
// the phase.
//
//lint:ignore deadexport facade only: the paper's genie.annotate_phase hook (§3.2), exercised through the facade
func AnnotatePhase(g *srg.Graph, modulePrefix string, p srg.Phase) int {
	n := 0
	for _, node := range g.Nodes() {
		if node.Module == modulePrefix || strings.HasPrefix(node.Module, modulePrefix+".") {
			node.Phase = p
			n++
		}
	}
	return n
}

// AnnotateResidency explicitly overrides residency for a leaf ref.
//
//lint:ignore deadexport facade only: the paper's residency override hook (§3.2), exercised through the facade
func AnnotateResidency(g *srg.Graph, ref string, r srg.Residency) error {
	for _, node := range g.Nodes() {
		if (node.Op == "param" || node.Op == "input") && node.Ref == ref {
			node.Residency = r
			return nil
		}
	}
	return fmt.Errorf("frontend: no leaf with ref %q", ref)
}

// --- recognizers ---

// KVCacheDecodeRecognizer detects the decode-phase idiom: a concat whose
// first operand is a stateful (KV cache) leaf feeding an attention
// pattern. "A recurrent loop with a growing KV cache is characteristic of
// LLM decoding" (§3.2).
type KVCacheDecodeRecognizer struct{}

// Name implements Recognizer.
func (KVCacheDecodeRecognizer) Name() string { return "kv_cache_decode" }

// Apply implements Recognizer.
func (KVCacheDecodeRecognizer) Apply(g *srg.Graph) int {
	found := false
	for _, n := range g.Nodes() {
		if n.Op != "concat" || len(n.Inputs) < 2 {
			continue
		}
		first := g.Node(n.Inputs[0])
		if first.Op == "input" && first.Residency == srg.ResidencyStatefulKVCache {
			found = true
			break
		}
	}
	if !found {
		return 0
	}
	// The growing-cache idiom marks the whole capture as a decode step:
	// tag every untagged node and mark cache appends as stateful products.
	count := 0
	for _, n := range g.Nodes() {
		if n.Phase == srg.PhaseUnknown {
			n.Phase = srg.PhaseLLMDecode
			count++
		}
		if n.Op == "concat" && len(n.Inputs) >= 2 {
			if first := g.Node(n.Inputs[0]); first.Op == "input" &&
				first.Residency == srg.ResidencyStatefulKVCache {
				// The appended cache itself is the stateful product that
				// must stay co-located with decode compute.
				n.Residency = srg.ResidencyStatefulKVCache
			}
		}
	}
	return count
}

// AttentionPrefillRecognizer detects attention (matmul_t → softmax →
// matmul) with a multi-row query and no cache input: the compute-bound,
// parallelizable prefill phase.
type AttentionPrefillRecognizer struct{}

// Name implements Recognizer.
func (AttentionPrefillRecognizer) Name() string { return "attention_prefill" }

// Apply implements Recognizer.
func (AttentionPrefillRecognizer) Apply(g *srg.Graph) int {
	consumers := g.Consumers()
	found := false
	for _, n := range g.Nodes() {
		if n.Op != "matmul_t" {
			continue
		}
		if len(n.Output.Shape) > 0 && n.Output.Shape[0] <= 1 {
			continue // single-row query is a decode step, not prefill
		}
		if hasDownstream(g, consumers, n.ID, "softmax", 2) {
			found = true
			break
		}
	}
	if !found {
		return 0
	}
	count := 0
	for _, n := range g.Nodes() {
		if n.Phase == srg.PhaseUnknown {
			n.Phase = srg.PhaseLLMPrefill
			count++
		}
	}
	return count
}

// hasDownstream reports whether some consumer within depth hops has op.
func hasDownstream(g *srg.Graph, consumers map[srg.NodeID][]srg.NodeID, from srg.NodeID, op string, depth int) bool {
	if depth < 0 {
		return false
	}
	for _, c := range consumers[from] {
		if g.Node(c).Op == op {
			return true
		}
		if hasDownstream(g, consumers, c, op, depth-1) {
			return true
		}
	}
	return false
}

// ConvPipelineRecognizer detects chains of convolutional stages and tags
// them cv_stage with a stage index attribute, exposing the pipeline
// parallelism opportunity (§3.3 "Pipelined CNN inference").
type ConvPipelineRecognizer struct{}

// Name implements Recognizer.
func (ConvPipelineRecognizer) Name() string { return "conv_pipeline" }

// Apply implements Recognizer.
func (ConvPipelineRecognizer) Apply(g *srg.Graph) int {
	// Stage index = number of conv2d ops on the path from inputs
	// (monotone along topological order).
	stage := make(map[srg.NodeID]int)
	hasConv := false
	for _, n := range g.Nodes() {
		s := 0
		for _, in := range n.Inputs {
			if stage[in] > s {
				s = stage[in]
			}
		}
		if n.Op == "conv2d" {
			s++
			hasConv = true
		}
		stage[n.ID] = s
	}
	if !hasConv {
		return 0
	}
	count := 0
	for _, n := range g.Nodes() {
		if n.Modality == srg.ModalityVision || n.Op == "conv2d" || n.Op == "maxpool2d" {
			if n.Phase == srg.PhaseUnknown {
				n.Phase = srg.PhaseCVStage
				count++
			}
			if n.Attrs == nil {
				n.Attrs = make(map[string]string)
			}
			n.Attrs["cv_stage"] = strconv.Itoa(stage[n.ID])
		}
	}
	return count
}

// SparseDenseRecognizer detects the recommendation-model idiom: embedding
// lookups (sparse, memory-bound, tiering-friendly) feeding dense MLP
// compute.
type SparseDenseRecognizer struct{}

// Name implements Recognizer.
func (SparseDenseRecognizer) Name() string { return "sparse_dense" }

// Apply implements Recognizer.
func (SparseDenseRecognizer) Apply(g *srg.Graph) int {
	sparseRoots := []srg.NodeID{}
	for _, n := range g.Nodes() {
		if n.Op == "embedding_bag" || n.Op == "embedding" {
			sparseRoots = append(sparseRoots, n.ID)
		}
	}
	if len(sparseRoots) == 0 {
		return 0
	}
	count := 0
	// Lookup subtrees (the gather and its table/id ancestors) are the
	// sparse phase; everything downstream of a matmul is dense.
	for _, root := range sparseRoots {
		n := g.Node(root)
		if n.Phase == srg.PhaseUnknown {
			n.Phase = srg.PhaseSparse
			count++
		}
		for id := range g.AncestorsOf(root) {
			a := g.Node(id)
			if a.Phase == srg.PhaseUnknown {
				a.Phase = srg.PhaseSparse
				count++
			}
		}
	}
	for _, n := range g.Nodes() {
		if n.Phase == srg.PhaseUnknown && (n.Op == "matmul" || n.Op == "relu" || n.Op == "gelu" || n.Op == "add") {
			n.Phase = srg.PhaseDense
			count++
		}
	}
	return count
}

// ModalityFusionRecognizer finds nodes where vision and text (or sparse
// and dense) ancestries merge — multi-modal fusion points that the global
// scheduler places on fusion-friendly devices.
type ModalityFusionRecognizer struct{}

// Name implements Recognizer.
func (ModalityFusionRecognizer) Name() string { return "modality_fusion" }

// Apply implements Recognizer.
func (ModalityFusionRecognizer) Apply(g *srg.Graph) int {
	// Propagate modality sets forward.
	mods := make(map[srg.NodeID]map[srg.Modality]bool)
	count := 0
	for _, n := range g.Nodes() {
		set := map[srg.Modality]bool{}
		if n.Modality != srg.ModalityUnknown {
			set[n.Modality] = true
		}
		for _, in := range n.Inputs {
			for m := range mods[in] {
				set[m] = true
			}
		}
		mods[n.ID] = set
		if len(set) >= 2 && len(n.Inputs) >= 2 {
			// Direct merge point: inputs carry different *perceptual*
			// modalities (vision/text). A sparse+dense merge is the
			// recommendation idiom, not cross-modal fusion.
			distinct := map[srg.Modality]bool{}
			for _, in := range n.Inputs {
				for m := range mods[in] {
					distinct[m] = true
				}
			}
			if distinct[srg.ModalityVision] && distinct[srg.ModalityText] &&
				n.Phase == srg.PhaseUnknown {
				n.Phase = srg.PhaseFusion
				count++
			}
		}
	}
	return count
}

// markReductionRates annotates producer→consumer rates on edges into
// data-reducing ops (argmax, pooling, slicing): consumers of these edges
// receive far less data than flows in, which matters for bandwidth
// reservation (§3.1 "Producer-Consumer Rates").
func markReductionRates(g *srg.Graph) {
	for _, n := range g.Nodes() {
		var outBytes int64 = n.Output.Bytes()
		for i, in := range n.Inputs {
			inBytes := g.Node(in).Output.Bytes()
			if inBytes > 0 && outBytes > 0 && outBytes < inBytes {
				g.SetEdgeRate(n.ID, i, float64(outBytes)/float64(inBytes))
			}
		}
	}
}
