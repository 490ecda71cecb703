package scheduler

import (
	"fmt"
	"strings"

	"genie/internal/cluster"
	"genie/internal/srg"
)

// shardByMemory handles models whose persistent weights exceed a single
// device's memory — the "disproportionate resource requirements" case
// from the paper's introduction. It splits the graph into module-level
// groups (transformer blocks, CNN stages) in topological order and
// greedily bin-packs consecutive groups onto devices by weight footprint,
// so activations stream device-to-device once per boundary while every
// weight lives exactly one place.
//
// Returns nil if the model fits on the home device (no sharding needed).
func shardByMemory(g *srg.Graph, cs *cluster.State, home cluster.AcceleratorID) (map[srg.NodeID]cluster.AcceleratorID, error) {
	homeAcc := cs.Accelerator(home)
	if homeAcc == nil {
		return nil, fmt.Errorf("scheduler: unknown home device %q", home)
	}
	var totalWeights int64
	for _, id := range g.Params() {
		totalWeights += g.Node(id).Output.Bytes()
	}
	budget := homeAcc.Spec.MemBytes - cs.ResidentBytes(home)
	if totalWeights <= budget {
		return nil, nil // fits: no sharding
	}

	// Module units (e.g. "gpt.blocks.3" or "cnn.stages.1") in
	// topological order, each carrying the weights it first consumes.
	units := Units(g)
	if len(units) < 2 {
		return nil, fmt.Errorf("scheduler: weights (%d B) exceed device memory (%d B) and the graph has no module boundaries to shard across", totalWeights, budget)
	}

	// Greedy packing of consecutive units onto remote devices.
	remote := cs.Remote()
	place := map[srg.NodeID]cluster.AcceleratorID{}
	devIdx := 0
	var used int64
	devBudget := func(i int) int64 {
		a := remote[i]
		return a.Spec.MemBytes - cs.ResidentBytes(a.ID)
	}
	for _, u := range units {
		need := u.WeightBytes
		for devIdx < len(remote) && used+need > devBudget(devIdx) && used > 0 {
			devIdx++
			used = 0
		}
		if devIdx >= len(remote) || need > devBudget(devIdx) {
			return nil, fmt.Errorf("scheduler: model does not fit across the pool (group %q needs %d B)", u.Name, need)
		}
		used += need
		dev := remote[devIdx].ID
		for _, id := range u.Nodes {
			place[id] = dev
		}
	}
	return place, nil
}

// moduleGroups buckets compute nodes by their top-level repeating module
// unit in topological order. The unit is the module path truncated after
// a numeric segment ("gpt.blocks.3.attention.wq" → "gpt.blocks.3"), or
// the first two segments otherwise.
func moduleGroups(g *srg.Graph) (map[string][]srg.NodeID, []string) {
	groups := map[string][]srg.NodeID{}
	var order []string
	seen := map[string]bool{}
	last := ""
	for _, n := range g.Nodes() {
		if n.Op == "param" || n.Op == "input" {
			continue
		}
		name := groupName(n.Module)
		if name == "" {
			if last == "" {
				name = "_head"
			} else {
				name = last
			}
		}
		if !seen[name] {
			seen[name] = true
			order = append(order, name)
		}
		groups[name] = append(groups[name], n.ID)
		last = name
	}
	return groups, order
}

func groupName(module string) string {
	if module == "" {
		return ""
	}
	parts := strings.Split(module, ".")
	for i, p := range parts {
		if isDigits(p) {
			return strings.Join(parts[:i+1], ".")
		}
	}
	if len(parts) > 2 {
		return strings.Join(parts[:2], ".")
	}
	return module
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// Unit is one module-level shard unit: a top-level repeating module
// (transformer block, CNN stage) with the placement-relevant accounting
// the pool layer's cost model consumes — weight footprint, roofline
// inputs, and the boundary activation it ships when the next unit lands
// on a different device.
type Unit struct {
	// Name is the module-group name ("gpt.blocks.3").
	Name string
	// Nodes are the group's compute nodes in topological order.
	Nodes []srg.NodeID
	// WeightBytes is the footprint of params first consumed here.
	WeightBytes int64
	// FLOPs and Bytes aggregate the group's kernel cost (roofline
	// inputs for device.Spec.KernelTime).
	FLOPs float64
	Bytes int64
	// OutBytes is the size of the group's final activation — the
	// cross-shard transfer when a boundary is cut here.
	OutBytes int64
}

// Units decomposes a graph into module-level shard units in topological
// order — the grouping both shardByMemory and pool.ShardPlan place.
// Ungrouped nodes attach to the previous unit so boundaries stay clean,
// and each param's weight counts toward the first unit that consumes it.
func Units(g *srg.Graph) []Unit {
	groups, order := moduleGroups(g)
	paramOwner := map[srg.NodeID]string{}
	for _, gname := range order {
		for _, id := range groups[gname] {
			for _, in := range g.Node(id).Inputs {
				if g.Node(in).Op == "param" {
					if _, claimed := paramOwner[in]; !claimed {
						paramOwner[in] = gname
					}
				}
			}
		}
	}
	weightOf := map[string]int64{}
	for pid, gname := range paramOwner {
		weightOf[gname] += g.Node(pid).Output.Bytes()
	}
	units := make([]Unit, 0, len(order))
	for _, gname := range order {
		u := Unit{Name: gname, Nodes: groups[gname], WeightBytes: weightOf[gname]}
		for _, id := range u.Nodes {
			n := g.Node(id)
			u.FLOPs += n.Cost.FLOPs
			u.Bytes += n.Cost.Bytes
		}
		if len(u.Nodes) > 0 {
			u.OutBytes = g.Node(u.Nodes[len(u.Nodes)-1]).Output.Bytes()
		}
		units = append(units, u)
	}
	return units
}

// ShardStat is one device's share of a sharded placement.
type ShardStat struct {
	// Ops counts compute nodes placed on the device.
	Ops int
	// WeightBytes is the weight footprint placed on the device.
	WeightBytes int64
}

// ShardSummary reports a sharded placement: the per-device footprint
// plus the cut edges — compute→compute graph edges whose endpoints land
// on different devices, each a cross-shard activation transfer.
type ShardSummary struct {
	PerDevice map[cluster.AcceleratorID]ShardStat
	// CutEdges counts cross-device compute edges; CutBytes sums the
	// activation bytes they move per evaluation.
	CutEdges int
	CutBytes int64
}

// ShardReport summarizes a sharded placement for logs and tests.
func ShardReport(plan *Plan) ShardSummary {
	sum := ShardSummary{PerDevice: map[cluster.AcceleratorID]ShardStat{}}
	g := plan.Graph
	seenParam := map[srg.NodeID]bool{}
	for _, n := range g.Nodes() {
		if n.Op == "param" || n.Op == "input" {
			continue
		}
		dev := plan.DeviceOf(n.ID)
		st := sum.PerDevice[dev]
		st.Ops++
		for _, in := range n.Inputs {
			dep := g.Node(in)
			switch dep.Op {
			case "param":
				if !seenParam[in] {
					seenParam[in] = true
					st.WeightBytes += dep.Output.Bytes()
				}
			case "input":
			default:
				if plan.DeviceOf(in) != dev {
					sum.CutEdges++
					sum.CutBytes += dep.Output.Bytes()
				}
			}
		}
		sum.PerDevice[dev] = st
	}
	return sum
}
