package scheduler

import (
	"fmt"
	"sort"
	"strings"

	"genie/internal/srg"
)

// Rewrite is the §3.3 "graph rewrites (prepass)" extension point: a
// transformation applied to the SRG before placement. Rewrites must
// preserve semantics — the graph computes the same outputs — while
// changing its shape to schedule better.
type Rewrite interface {
	// Name identifies the rewrite in reports.
	Name() string
	// Apply returns a rewritten graph (possibly the input unchanged) and
	// how many nodes it affected.
	Apply(g *srg.Graph) (*srg.Graph, int)
}

// ApplyRewrites runs passes in order, returning the final graph and a
// per-pass change count.
//
//lint:ignore deadexport facade only: the §3.3 rewrite prepass, demonstrated through the facade
func ApplyRewrites(g *srg.Graph, passes ...Rewrite) (*srg.Graph, map[string]int) {
	counts := map[string]int{}
	for _, p := range passes {
		var n int
		g, n = p.Apply(g)
		counts[p.Name()] += n
	}
	return g, counts
}

// DefaultRewrites returns the standard prepass pipeline.
//
//lint:ignore deadexport paper mechanism: the §3.3 rewrite prepass pipeline, demonstrated by tests
func DefaultRewrites() []Rewrite {
	return []Rewrite{DeadNodeElimination{}, CommonSubexpression{}}
}

// rebuild constructs a new graph containing exactly the nodes in keep
// (which must be closed under inputs), remapping IDs densely and
// preserving edge annotations where both endpoints survive.
func rebuild(g *srg.Graph, keep map[srg.NodeID]bool, alias map[srg.NodeID]srg.NodeID) *srg.Graph {
	out := srg.New(g.Name)
	remap := map[srg.NodeID]srg.NodeID{}
	resolve := func(id srg.NodeID) srg.NodeID {
		for {
			if a, ok := alias[id]; ok {
				id = a
				continue
			}
			return id
		}
	}
	for _, n := range g.Nodes() {
		if !keep[n.ID] {
			continue
		}
		inputs := make([]srg.NodeID, len(n.Inputs))
		for i, in := range n.Inputs {
			inputs[i] = remap[resolve(in)]
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
	// Preserve edge annotations for surviving consumers.
	for _, e := range g.Edges() {
		to, ok := remap[e.To]
		if !ok {
			continue
		}
		if e.Rate != 1 {
			out.SetEdgeRate(to, e.ArgIndex, e.Rate)
		}
		if e.Critical {
			out.SetEdgeCritical(to, e.ArgIndex, true)
		}
	}
	return out
}

// DeadNodeElimination removes nodes whose values can never be observed:
// not marked as outputs (external_output residency), not stateful
// products, and with no surviving consumers. The lazy frontend can leave
// such nodes behind when an application captures more than it reads.
type DeadNodeElimination struct{}

// Name implements Rewrite.
func (DeadNodeElimination) Name() string { return "dead_node_elimination" }

// Apply implements Rewrite.
func (DeadNodeElimination) Apply(g *srg.Graph) (*srg.Graph, int) {
	// Roots: externally visible values.
	var roots []srg.NodeID
	for _, n := range g.Nodes() {
		switch {
		case n.Residency == srg.ResidencyExternalOutput,
			n.Residency == srg.ResidencyStatefulKVCache && n.Op != "input":
			roots = append(roots, n.ID)
		}
	}
	if len(roots) == 0 {
		// Nothing marked: treat sinks as roots (conservative no-op-ish).
		roots = g.Outputs()
	}
	live := g.AncestorsOf(roots...)
	removed := g.Len() - len(live)
	if removed == 0 {
		return g, 0
	}
	return rebuild(g, live, nil), removed
}

// CommonSubexpression merges structurally identical compute nodes: same
// op, same attrs, same inputs. Transformer captures are full of these
// (e.g. repeated layernorm gains), and deduplication shrinks both the
// shipped SRG and the remote work.
type CommonSubexpression struct{}

// Name implements Rewrite.
func (CommonSubexpression) Name() string { return "common_subexpression" }

// Apply implements Rewrite.
func (CommonSubexpression) Apply(g *srg.Graph) (*srg.Graph, int) {
	alias := map[srg.NodeID]srg.NodeID{}
	seen := map[string]srg.NodeID{}
	resolve := func(id srg.NodeID) srg.NodeID {
		for {
			if a, ok := alias[id]; ok {
				id = a
				continue
			}
			return id
		}
	}
	merged := 0
	for _, n := range g.Nodes() {
		if n.Op == "param" || n.Op == "input" {
			// Leaves are identified by ref; duplicate refs cannot occur
			// (the builder panics), so leaves never merge.
			continue
		}
		// Stateful and output nodes keep their identity (their keys and
		// delivery matter).
		if n.Residency == srg.ResidencyStatefulKVCache || n.Residency == srg.ResidencyExternalOutput {
			continue
		}
		key := cseKey(n, resolve)
		if prev, ok := seen[key]; ok {
			alias[n.ID] = prev
			merged++
			continue
		}
		seen[key] = n.ID
	}
	if merged == 0 {
		return g, 0
	}
	keep := map[srg.NodeID]bool{}
	for _, n := range g.Nodes() {
		if _, dead := alias[n.ID]; !dead {
			keep[n.ID] = true
		}
	}
	return rebuild(g, keep, alias), merged
}

func cseKey(n *srg.Node, resolve func(srg.NodeID) srg.NodeID) string {
	var b strings.Builder
	b.WriteString(n.Op)
	keys := make([]string, 0, len(n.Attrs))
	for k := range n.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "|%s=%s", k, n.Attrs[k])
	}
	for _, in := range n.Inputs {
		fmt.Fprintf(&b, "|%d", resolve(in))
	}
	return b.String()
}
