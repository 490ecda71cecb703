package scheduler

import (
	"strings"

	"genie/internal/srg"
)

// FuseElementwise is a graph rewrite that collapses chains of unary
// elementwise operations (scale, gelu, relu, and softmax as a terminal)
// into single "fused" nodes. SRG nodes may represent "anything from a
// single kernel to a large fused subgraph" (§3.1); fusing shrinks both
// the shipped graph and the number of kernel launches, and gives the
// scheduler coarser units to place.
//
// The fused node carries its micro-program in the "stages" attribute
// ("scale:0.5|gelu|relu"); the backend interpreter executes the stages
// in order. Only single-consumer interior links fuse — a value read by
// two consumers stays materialized.
//
//lint:ignore deadexport facade only: the §3.3 rewrite prepass, demonstrated through the facade
type FuseElementwise struct{}

// Name implements Rewrite.
func (FuseElementwise) Name() string { return "fuse_elementwise" }

// fusibleOps are unary ops with no shape change that can join a chain.
// The scale→causal_mask→softmax triple is the attention epilogue — fusing
// it fires twice per transformer block.
var fusibleOps = map[string]bool{
	"scale": true, "gelu": true, "relu": true, "softmax": true, "causal_mask": true,
}

// stageOfNode renders one node as a fused-program stage.
func stageOfNode(n *srg.Node) string {
	switch n.Op {
	case "scale":
		return "scale:" + n.Attrs["s"]
	case "causal_mask":
		return "causal_mask:" + n.Attrs["offset"]
	}
	return n.Op
}

// Apply implements Rewrite.
func (FuseElementwise) Apply(g *srg.Graph) (*srg.Graph, int) {
	consumers := g.Consumers()

	fusible := func(n *srg.Node) bool {
		if !fusibleOps[n.Op] {
			return false
		}
		// Keep externally observable values materialized.
		return n.Residency != srg.ResidencyExternalOutput &&
			n.Residency != srg.ResidencyStatefulKVCache
	}

	// Identify chains: walk topologically; start a chain at a fusible
	// node whose producer is not part of a chain, extend while the next
	// node is fusible, single-consumer, and consumes only the previous.
	inChain := map[srg.NodeID]bool{}
	type chain struct {
		nodes []srg.NodeID
	}
	var chains []chain
	for _, n := range g.Nodes() {
		if inChain[n.ID] || !fusible(n) || len(n.Inputs) != 1 {
			continue
		}
		c := chain{nodes: []srg.NodeID{n.ID}}
		inChain[n.ID] = true
		cur := n.ID
		for {
			next := consumers[cur]
			if len(next) != 1 {
				break
			}
			cand := g.Node(next[0])
			if !fusible(cand) || len(cand.Inputs) != 1 || inChain[cand.ID] {
				break
			}
			c.nodes = append(c.nodes, cand.ID)
			inChain[cand.ID] = true
			cur = cand.ID
		}
		if len(c.nodes) >= 2 {
			chains = append(chains, c)
		} else {
			// Singleton: not worth fusing; release it.
			inChain[n.ID] = false
			c.nodes = nil
		}
	}
	if len(chains) == 0 {
		return g, 0
	}

	// Rebuild: chain members are replaced by one fused node at the
	// position of the chain tail.
	tailOf := map[srg.NodeID]chain{} // tail ID -> chain
	member := map[srg.NodeID]bool{}
	for _, c := range chains {
		tailOf[c.nodes[len(c.nodes)-1]] = c
		for _, id := range c.nodes {
			member[id] = true
		}
	}

	out := srg.New(g.Name)
	remap := map[srg.NodeID]srg.NodeID{}
	fusedCount := 0
	for _, n := range g.Nodes() {
		if member[n.ID] {
			c, isTail := tailOf[n.ID]
			if !isTail {
				continue // interior node: swallowed by the fused op
			}
			head := g.Node(c.nodes[0])
			stages := make([]string, len(c.nodes))
			var flops float64
			for i, id := range c.nodes {
				stages[i] = stageOfNode(g.Node(id))
				flops += g.Node(id).Cost.FLOPs
			}
			tail := g.Node(c.nodes[len(c.nodes)-1])
			fused := &srg.Node{
				Op:     "fused",
				Inputs: []srg.NodeID{remap[head.Inputs[0]]},
				Attrs:  map[string]string{"stages": strings.Join(stages, "|")},
				Module: head.Module, Phase: head.Phase, Modality: head.Modality,
				Residency: tail.Residency,
				Cost:      srg.CostHints{FLOPs: flops, Bytes: head.Cost.Bytes},
				Output:    tail.Output,
			}
			id := out.MustAdd(fused)
			remap[n.ID] = id
			fusedCount += len(c.nodes)
			continue
		}
		inputs := make([]srg.NodeID, len(n.Inputs))
		for i, in := range n.Inputs {
			inputs[i] = remap[in]
		}
		var attrs map[string]string
		if n.Attrs != nil {
			attrs = make(map[string]string, len(n.Attrs))
			for k, v := range n.Attrs {
				attrs[k] = v
			}
		}
		clone := &srg.Node{
			Op: n.Op, Ref: n.Ref, Inputs: inputs, Attrs: attrs,
			Module: n.Module, Phase: n.Phase, Residency: n.Residency,
			Modality: n.Modality, Cost: n.Cost, Output: n.Output,
		}
		remap[n.ID] = out.MustAdd(clone)
	}
	return out, fusedCount
}
