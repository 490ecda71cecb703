// Package srg implements the Semantically Rich Graph — the paper's core
// abstraction (§3.1) and the "narrow waist" between frontends, schedulers,
// and backends.
//
// An SRG is a declarative DAG, not an executable program: nodes are named
// operations with a common annotation schema (phase, residency, modality,
// cost hints) and edges carry data-movement metadata (tensor descriptors,
// producer-consumer rates, criticality). The graph is pure data — it can be
// serialized, hashed, diffed, shipped to a global scheduler, and
// recomputed anywhere for fault tolerance.
package srg

import (
	"fmt"
)

// NodeID identifies a node within one graph. IDs are dense and assigned in
// insertion order, which is always a valid topological order for graphs
// built by the lazy frontend (an input must exist before an op consumes it).
type NodeID int32

// Invalid is the zero-value "no node" sentinel.
const Invalid NodeID = -1

// Phase tags the execution phase a node belongs to (§3.1 "Phase"). The
// scheduler treats phases as opaque strings; the well-known values below
// are produced by the frontend's pattern recognizers.
type Phase string

// Well-known phases produced by the frontend's recognizers.
const (
	PhaseUnknown    Phase = ""
	PhaseLLMPrefill Phase = "llm_prefill"
	PhaseLLMDecode  Phase = "llm_decode"
	PhaseCVStage    Phase = "cv_stage"
	PhaseSparse     Phase = "sparse_lookup"
	PhaseDense      Phase = "dense_compute"
	PhaseFusion     Phase = "modal_fusion"
)

// Residency describes the intended lifetime of a node's data product
// (§3.1 "Residency"): it is what lets the scheduler distinguish a reusable
// model weight from a one-off activation — the exact knowledge a DMA-level
// disaggregator cannot see.
type Residency uint8

// Residency classes.
const (
	ResidencyUnknown Residency = iota
	// ResidencyPersistentWeight marks immutable model parameters that
	// should be materialized on a remote device exactly once.
	ResidencyPersistentWeight
	// ResidencyEphemeralActivation marks one-shot intermediates that may
	// be discarded (or recomputed) after consumption.
	ResidencyEphemeralActivation
	// ResidencyStatefulKVCache marks state that grows across iterations
	// and must stay co-located with the compute that consumes it.
	ResidencyStatefulKVCache
	// ResidencyExternalInput marks data fed by the application per call.
	ResidencyExternalInput
	// ResidencyExternalOutput marks data the application will read back.
	ResidencyExternalOutput
)

// String implements fmt.Stringer.
func (r Residency) String() string {
	switch r {
	case ResidencyPersistentWeight:
		return "persistent_weight"
	case ResidencyEphemeralActivation:
		return "ephemeral_activation"
	case ResidencyStatefulKVCache:
		return "stateful_kv_cache"
	case ResidencyExternalInput:
		return "external_input"
	case ResidencyExternalOutput:
		return "external_output"
	}
	return "unknown"
}

// Modality tags the data domain (§3.1 "Modality") for placement on
// specialized accelerators.
type Modality string

// Well-known modalities.
const (
	ModalityUnknown Modality = ""
	ModalityText    Modality = "text"
	ModalityVision  Modality = "vision"
	ModalitySparse  Modality = "sparse"
	ModalityDense   Modality = "dense"
)

// CostHints carries profiling- or model-based cost estimates (§3.1).
type CostHints struct {
	// FLOPs is the estimated floating-point work of the node.
	FLOPs float64
	// Bytes is the memory footprint touched by the node (weights +
	// activations), used by the roofline cost model for memory-bound ops.
	Bytes int64
}

// Intensity returns operational intensity in FLOPs/byte (0 if unknown).
func (c CostHints) Intensity() float64 {
	if c.Bytes == 0 {
		return 0
	}
	return c.FLOPs / float64(c.Bytes)
}

// TensorMeta mirrors tensor.Meta without importing it (the SRG is the
// framework-independent waist; it must not depend on any one tensor
// implementation). DType is the tensor package's dtype byte.
type TensorMeta struct {
	DType uint8
	Shape []int
}

// Bytes returns the payload size this descriptor implies on the wire.
func (m TensorMeta) Bytes() int64 {
	n := int64(1)
	for _, d := range m.Shape {
		n *= int64(d)
	}
	return n * int64(dtypeSize(m.DType))
}

func dtypeSize(d uint8) int {
	switch d {
	case 0, 3: // f32, i32
		return 4
	case 1: // f16
		return 2
	case 2: // i64
		return 8
	default: // u8 and anything unknown
		return 1
	}
}

// NumElements returns the element count.
func (m TensorMeta) NumElements() int64 {
	n := int64(1)
	for _, d := range m.Shape {
		n *= int64(d)
	}
	return n
}

// Node is one operation in the graph: anything from a single kernel to a
// large fused subgraph. Nodes are pure data; the backend interprets Op.
type Node struct {
	ID NodeID
	// Op names the operation ("matmul", "softmax", …). Two special ops
	// exist: "param" (a model weight leaf, identified by Ref) and "input"
	// (an external input leaf, identified by Ref).
	Op string
	// Ref names the parameter or input for leaf ops, e.g.
	// "gpt.block3.attn.wq". Empty for compute nodes.
	Ref string
	// Inputs lists producer nodes in argument order.
	Inputs []NodeID
	// Attrs holds op attributes as strings (stride, padding, …) so the
	// graph stays serializable without closures.
	Attrs map[string]string

	// Module is the owning module-hierarchy path captured by the
	// structural-annotation pass (the FX-pass analogue), e.g.
	// "gpt.blocks.3.attention".
	Module string

	// Annotation schema (§3.1).
	Phase     Phase
	Residency Residency
	Modality  Modality
	Cost      CostHints

	// Output describes the node's produced tensor.
	Output TensorMeta
}

// Edge is a data dependency with movement metadata (§3.1). Edges are
// derived from node Inputs; Meta/Rate/Critical may be refined by
// annotation passes.
type Edge struct {
	From, To NodeID
	// ArgIndex is the position of this edge in To's input list.
	ArgIndex int
	// Meta describes the tensor flowing across the edge.
	Meta TensorMeta
	// Rate is the producer-consumer data-volume ratio (1 = pass-through;
	// <1 for sampling/reduction operators), used for bandwidth
	// reservation.
	Rate float64
	// Critical marks edges on the execution critical path so the
	// scheduler can prioritize their transfers.
	Critical bool
}

// Graph is the Semantically Rich Graph.
type Graph struct {
	// Name labels the graph (model + phase), for humans and the global
	// scheduler.
	Name  string
	nodes []*Node
	// critical and rate overrides keyed by edge (to, argIndex).
	edgeCritical map[edgeKey]bool
	edgeRate     map[edgeKey]float64
}

type edgeKey struct {
	to  NodeID
	arg int
}

// New creates an empty graph.
func New(name string) *Graph {
	return &Graph{
		Name:         name,
		edgeCritical: make(map[edgeKey]bool),
		edgeRate:     make(map[edgeKey]float64),
	}
}

// Add appends a node, assigning its ID. The node's Inputs must already be
// in the graph (construction order is therefore topological).
func (g *Graph) Add(n *Node) (NodeID, error) {
	for _, in := range n.Inputs {
		if int(in) < 0 || int(in) >= len(g.nodes) {
			return Invalid, fmt.Errorf("srg: node %q input %d not in graph", n.Op, in)
		}
	}
	n.ID = NodeID(len(g.nodes))
	g.nodes = append(g.nodes, n)
	return n.ID, nil
}

// MustAdd is Add that panics on error, for frontend builders where inputs
// are known-valid by construction.
func (g *Graph) MustAdd(n *Node) NodeID {
	id, err := g.Add(n)
	if err != nil {
		panic(err)
	}
	return id
}

// Len returns the node count.
func (g *Graph) Len() int { return len(g.nodes) }

// Node returns the node with the given ID, or nil.
func (g *Graph) Node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(g.nodes) {
		return nil
	}
	return g.nodes[id]
}

// Nodes returns the node slice in ID (topological) order. Callers must not
// reorder it.
func (g *Graph) Nodes() []*Node { return g.nodes }

// SetEdgeCritical marks the (producer→consumer arg) edge as critical-path.
func (g *Graph) SetEdgeCritical(to NodeID, argIndex int, critical bool) {
	g.edgeCritical[edgeKey{to, argIndex}] = critical
}

// SetEdgeRate records a producer-consumer rate for an edge.
func (g *Graph) SetEdgeRate(to NodeID, argIndex int, rate float64) {
	g.edgeRate[edgeKey{to, argIndex}] = rate
}

// Edges materializes the edge list from node inputs plus any per-edge
// annotation overrides, ordered by (To, ArgIndex).
func (g *Graph) Edges() []Edge {
	var out []Edge
	for _, n := range g.nodes {
		for i, in := range n.Inputs {
			e := Edge{
				From:     in,
				To:       n.ID,
				ArgIndex: i,
				Meta:     g.nodes[in].Output,
				Rate:     1,
			}
			k := edgeKey{n.ID, i}
			if r, ok := g.edgeRate[k]; ok {
				e.Rate = r
			}
			if c, ok := g.edgeCritical[k]; ok {
				e.Critical = c
			}
			out = append(out, e)
		}
	}
	return out
}

// Consumers returns, for every node, the IDs of nodes that consume it.
func (g *Graph) Consumers() map[NodeID][]NodeID {
	out := make(map[NodeID][]NodeID, len(g.nodes))
	for _, n := range g.nodes {
		for _, in := range n.Inputs {
			out[in] = append(out[in], n.ID)
		}
	}
	return out
}

// Outputs returns the IDs of sink nodes (no consumers) — the graph's
// results.
func (g *Graph) Outputs() []NodeID {
	consumed := make([]bool, len(g.nodes))
	for _, n := range g.nodes {
		for _, in := range n.Inputs {
			consumed[in] = true
		}
	}
	var out []NodeID
	for _, n := range g.nodes {
		if !consumed[n.ID] {
			out = append(out, n.ID)
		}
	}
	return out
}

// Validate checks structural invariants: dense IDs, inputs precede
// consumers (acyclicity by construction), leaf ops carry refs, and compute
// nodes have inputs.
func (g *Graph) Validate() error {
	for i, n := range g.nodes {
		if n.ID != NodeID(i) {
			return fmt.Errorf("srg: node %d has ID %d", i, n.ID)
		}
		for _, in := range n.Inputs {
			if in >= n.ID || in < 0 {
				return fmt.Errorf("srg: node %d consumes %d (not topological)", n.ID, in)
			}
		}
		switch n.Op {
		case "param", "input":
			if n.Ref == "" {
				return fmt.Errorf("srg: leaf node %d (%s) missing ref", n.ID, n.Op)
			}
			if len(n.Inputs) != 0 {
				return fmt.Errorf("srg: leaf node %d (%s %q) has inputs", n.ID, n.Op, n.Ref)
			}
		case "":
			return fmt.Errorf("srg: node %d has empty op", n.ID)
		default:
			if len(n.Inputs) == 0 && n.Op != "const" {
				return fmt.Errorf("srg: compute node %d (%s) has no inputs", n.ID, n.Op)
			}
		}
		if len(n.Output.Shape) > 0 {
			for _, d := range n.Output.Shape {
				if d <= 0 {
					return fmt.Errorf("srg: node %d output dim %d", n.ID, d)
				}
			}
		}
	}
	return nil
}

// TopoOrder returns node IDs in a valid topological order. Because Add
// enforces inputs-before-consumers, insertion order is already
// topological; this returns it explicitly for callers that must not rely
// on that invariant.
func (g *Graph) TopoOrder() []NodeID {
	out := make([]NodeID, len(g.nodes))
	for i := range out {
		out[i] = NodeID(i)
	}
	return out
}

// AncestorsOf returns the transitive producer closure of the given roots
// (including the roots themselves).
func (g *Graph) AncestorsOf(roots ...NodeID) map[NodeID]bool {
	seen := make(map[NodeID]bool)
	stack := append([]NodeID(nil), roots...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] || g.Node(id) == nil {
			continue
		}
		seen[id] = true
		stack = append(stack, g.Node(id).Inputs...)
	}
	return seen
}

// DescendantsOf returns the transitive consumer closure of the given
// roots (including the roots themselves).
func (g *Graph) DescendantsOf(roots ...NodeID) map[NodeID]bool {
	consumers := g.Consumers()
	seen := make(map[NodeID]bool)
	stack := append([]NodeID(nil), roots...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] || g.Node(id) == nil {
			continue
		}
		seen[id] = true
		stack = append(stack, consumers[id]...)
	}
	return seen
}

// ByPhase groups node IDs by phase, preserving topological order within
// each group.
func (g *Graph) ByPhase() map[Phase][]NodeID {
	out := make(map[Phase][]NodeID)
	for _, n := range g.nodes {
		out[n.Phase] = append(out[n.Phase], n.ID)
	}
	return out
}

// ByModule groups node IDs by module path.
func (g *Graph) ByModule() map[string][]NodeID {
	out := make(map[string][]NodeID)
	for _, n := range g.nodes {
		out[n.Module] = append(out[n.Module], n.ID)
	}
	return out
}

// Params returns the IDs of all parameter leaves in ID order.
func (g *Graph) Params() []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Op == "param" {
			out = append(out, n.ID)
		}
	}
	return out
}

// TotalCost sums cost hints across all nodes.
func (g *Graph) TotalCost() CostHints {
	var c CostHints
	for _, n := range g.nodes {
		c.FLOPs += n.Cost.FLOPs
		c.Bytes += n.Cost.Bytes
	}
	return c
}

// CriticalPathEdges marks every edge on some path from an external input
// to a graph output as critical, using longest-path analysis over cost
// hints; the helper is used by the annotation pass.
func (g *Graph) CriticalPathEdges() map[edgeKey]bool {
	if len(g.nodes) == 0 {
		return nil
	}
	// dist[i]: max FLOPs from any source to node i inclusive.
	dist := make([]float64, len(g.nodes))
	pred := make([]NodeID, len(g.nodes))
	predArg := make([]int, len(g.nodes))
	for i, n := range g.nodes {
		dist[i] = n.Cost.FLOPs
		pred[i] = Invalid
		for ai, in := range n.Inputs {
			if d := dist[in] + n.Cost.FLOPs; d >= dist[i] {
				dist[i] = d
				pred[i] = in
				predArg[i] = ai
			}
		}
	}
	// Find the deepest sink, walk back.
	best := NodeID(0)
	for _, id := range g.Outputs() {
		if dist[id] > dist[best] {
			best = id
		}
	}
	out := make(map[edgeKey]bool)
	for cur := best; pred[cur] != Invalid; cur = pred[cur] {
		out[edgeKey{cur, predArg[cur]}] = true
	}
	return out
}

// MarkCriticalPath runs CriticalPathEdges and applies the result to the
// graph's edge annotations.
func (g *Graph) MarkCriticalPath() {
	for k := range g.CriticalPathEdges() {
		g.edgeCritical[k] = true
	}
}
