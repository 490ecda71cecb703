// Package scheduler implements Genie's pluggable policy engine (§3.3):
// plan = Schedule(srg, clusterState, policy). It consumes a fully
// annotated SRG as a declarative requirement spec and produces a Plan —
// the SRG augmented with device assignments, transfer decisions, caching
// directives, and recompute choices.
//
// Policies are data-driven: semantic optimizations (stateful co-location,
// CNN pipelining, dynamic recomputation) read only SRG annotations, never
// model-specific code — the generality claim at the heart of the paper.
package scheduler

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"genie/internal/cluster"
	"genie/internal/srg"
)

// Plan is the scheduler's output: an execution recipe over an SRG.
type Plan struct {
	Graph *srg.Graph
	// Place assigns every compute node a device. Leaf nodes inherit the
	// placement of their first consumer.
	Place map[srg.NodeID]cluster.AcceleratorID
	// KeepRemote marks nodes whose outputs must stay materialized on
	// their device (persistent weights, stateful caches) addressed by
	// the given key — the caching directives of §3.3.
	KeepRemote map[srg.NodeID]string
	// Recompute marks nodes whose outputs should be re-executed at the
	// consumer's device instead of transferred (dynamic recomputation
	// under congestion).
	Recompute map[srg.NodeID]bool
	// PipelineStages, when non-nil, groups nodes into ordered stages
	// that may overlap across devices (pipelined CNN inference).
	PipelineStages [][]srg.NodeID
	// Estimate is the cost model's end-to-end latency prediction.
	Estimate time.Duration
	// Policy records which policy produced the plan.
	Policy string
}

// DeviceOf returns a node's assigned device, resolving leaves through
// their consumers.
func (p *Plan) DeviceOf(id srg.NodeID) cluster.AcceleratorID {
	if d, ok := p.Place[id]; ok {
		return d
	}
	return ""
}

// CrossDeviceEdges returns the edges whose producer and consumer are
// placed on different devices — each implies a transfer.
func (p *Plan) CrossDeviceEdges() []srg.Edge {
	var out []srg.Edge
	for _, e := range p.Graph.Edges() {
		from, to := p.DeviceOf(e.From), p.DeviceOf(e.To)
		if from != "" && to != "" && from != to {
			out = append(out, e)
		}
	}
	return out
}

// Validate checks plan invariants: every node placed on a registered
// device, keep-remote keys non-empty, pipeline stages topologically
// consistent.
func (p *Plan) Validate(cs *cluster.State) error {
	for _, n := range p.Graph.Nodes() {
		d, ok := p.Place[n.ID]
		if !ok {
			return fmt.Errorf("scheduler: node %d (%s) unplaced", n.ID, n.Op)
		}
		if cs.Accelerator(d) == nil {
			return fmt.Errorf("scheduler: node %d on unknown device %q", n.ID, d)
		}
	}
	for id, key := range p.KeepRemote {
		if key == "" {
			return fmt.Errorf("scheduler: node %d kept under empty key", id)
		}
		if p.Graph.Node(id) == nil {
			return fmt.Errorf("scheduler: keep of unknown node %d", id)
		}
	}
	if p.PipelineStages != nil {
		stageOf := map[srg.NodeID]int{}
		for si, stage := range p.PipelineStages {
			for _, id := range stage {
				stageOf[id] = si
			}
		}
		for _, n := range p.Graph.Nodes() {
			si, ok := stageOf[n.ID]
			if !ok {
				continue
			}
			for _, in := range n.Inputs {
				if pi, ok := stageOf[in]; ok && pi > si {
					return fmt.Errorf("scheduler: node %d in stage %d consumes stage %d", n.ID, si, pi)
				}
			}
		}
	}
	return nil
}

// Policy turns an annotated SRG and cluster state into a Plan.
type Policy interface {
	// Name identifies the policy in plans and reports.
	Name() string
	// Place computes assignments; Schedule fills in the cost estimate.
	Place(g *srg.Graph, cs *cluster.State) (*Plan, error)
}

// Schedule is the paper's scheduler interface: a pure function from
// (SRG, cluster state, policy) to an annotated plan.
func Schedule(g *srg.Graph, cs *cluster.State, policy Policy, model *CostModel) (*Plan, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("scheduler: invalid srg: %w", err)
	}
	plan, err := policy.Place(g, cs)
	if err != nil {
		return nil, err
	}
	plan.Policy = policy.Name()
	if err := plan.Validate(cs); err != nil {
		return nil, err
	}
	if model != nil {
		plan.Estimate = model.PlanLatency(plan, cs)
	}
	return plan, nil
}

// placeLeaves assigns leaf nodes to the device of their first consumer
// (data should be born where it is used).
func placeLeaves(g *srg.Graph, place map[srg.NodeID]cluster.AcceleratorID) {
	consumers := g.Consumers()
	for _, n := range g.Nodes() {
		if n.Op != "param" && n.Op != "input" {
			continue
		}
		if _, done := place[n.ID]; done {
			continue
		}
		if cs := consumers[n.ID]; len(cs) > 0 {
			place[n.ID] = place[cs[0]]
		}
	}
}

// computeNodes returns non-leaf node IDs in topological order.
func computeNodes(g *srg.Graph) []srg.NodeID {
	var out []srg.NodeID
	for _, n := range g.Nodes() {
		if n.Op != "param" && n.Op != "input" {
			out = append(out, n.ID)
		}
	}
	return out
}

// RoundRobin is the semantics-blind naive baseline from §2.2: every
// operation is treated as independent and identical, spread across
// remote accelerators cyclically. It ignores residency entirely, which
// is what forces the repeated bulk transfers the evaluation measures.
//
//lint:ignore deadexport facade only: baseline placement policy of the §4 comparison
type RoundRobin struct{}

// Name implements Policy.
func (RoundRobin) Name() string { return "round_robin" }

// Place implements Policy.
func (RoundRobin) Place(g *srg.Graph, cs *cluster.State) (*Plan, error) {
	remote := cs.Remote()
	if len(remote) == 0 {
		return nil, fmt.Errorf("scheduler: no remote accelerators")
	}
	plan := &Plan{Graph: g, Place: map[srg.NodeID]cluster.AcceleratorID{}}
	i := 0
	for _, id := range computeNodes(g) {
		plan.Place[id] = remote[i%len(remote)].ID
		i++
	}
	placeLeaves(g, plan.Place)
	return plan, nil
}

// LeastLoaded places the whole graph on the remote device with the
// smallest queue depth — load-aware but still semantics-blind.
//
//lint:ignore deadexport facade only: baseline placement policy of the §4 comparison
type LeastLoaded struct{}

// Name implements Policy.
func (LeastLoaded) Name() string { return "least_loaded" }

// Place implements Policy.
func (LeastLoaded) Place(g *srg.Graph, cs *cluster.State) (*Plan, error) {
	acc := cs.LeastLoaded()
	if acc == nil {
		return nil, fmt.Errorf("scheduler: no remote accelerators")
	}
	plan := &Plan{Graph: g, Place: map[srg.NodeID]cluster.AcceleratorID{}}
	for _, id := range computeNodes(g) {
		plan.Place[id] = acc.ID
	}
	placeLeaves(g, plan.Place)
	return plan, nil
}

// DataAware considers per-edge data-movement costs (operations
// independent but not identical, §2.2's "slightly better" strawman): each
// node goes where the most input bytes already are. It discovers weight
// reuse bottom-up but cannot see phases, caches, or pipelines.
//
//lint:ignore deadexport facade only: baseline placement policy of the §4 comparison
type DataAware struct{}

// Name implements Policy.
func (DataAware) Name() string { return "data_aware" }

// Place implements Policy.
func (DataAware) Place(g *srg.Graph, cs *cluster.State) (*Plan, error) {
	remote := cs.Remote()
	if len(remote) == 0 {
		return nil, fmt.Errorf("scheduler: no remote accelerators")
	}
	plan := &Plan{Graph: g, Place: map[srg.NodeID]cluster.AcceleratorID{}}
	// Leaf residency: where is each leaf's data now?
	leafHome := map[srg.NodeID]cluster.AcceleratorID{}
	for _, n := range g.Nodes() {
		if n.Op == "param" || n.Op == "input" {
			if acc, ok := cs.ResidentOn(n.Ref); ok {
				leafHome[n.ID] = acc
			}
		}
	}
	for _, id := range computeNodes(g) {
		n := g.Node(id)
		bytesAt := map[cluster.AcceleratorID]int64{}
		for _, in := range n.Inputs {
			var home cluster.AcceleratorID
			if d, ok := plan.Place[in]; ok {
				home = d
			} else if d, ok := leafHome[in]; ok {
				home = d
			}
			if home != "" {
				bytesAt[home] += g.Node(in).Output.Bytes()
			}
		}
		best := remote[0].ID
		var bestBytes int64 = -1
		// Deterministic: consider devices in registration order.
		for _, a := range remote {
			if b := bytesAt[a.ID]; b > bestBytes {
				best, bestBytes = a.ID, b
			}
		}
		plan.Place[id] = best
	}
	placeLeaves(g, plan.Place)
	return plan, nil
}

// SemanticsAware is Genie's policy: it reads the SRG's semantic
// annotations and applies the three context-aware optimizations of §3.3.
type SemanticsAware struct {
	// RecomputeThresholdFLOPs bounds how expensive a producer may be to
	// qualify for congestion-driven recomputation (default 1e7).
	RecomputeThresholdFLOPs float64
	// CongestionThreshold is the link-congestion level beyond which
	// recomputation is preferred (default 0.5).
	CongestionThreshold float64
	// DisableColocation/DisablePipeline/DisableRecompute switch off
	// individual optimizations for the ablation benches.
	DisableColocation bool
	DisablePipeline   bool
	DisableRecompute  bool
}

// Name implements Policy.
func (p SemanticsAware) Name() string { return "semantics_aware" }

// Place implements Policy.
func (p SemanticsAware) Place(g *srg.Graph, cs *cluster.State) (*Plan, error) {
	remote := cs.Remote()
	if len(remote) == 0 {
		return nil, fmt.Errorf("scheduler: no remote accelerators")
	}
	if p.RecomputeThresholdFLOPs == 0 {
		p.RecomputeThresholdFLOPs = 1e7
	}
	if p.CongestionThreshold == 0 {
		p.CongestionThreshold = 0.5
	}
	plan := &Plan{
		Graph:      g,
		Place:      map[srg.NodeID]cluster.AcceleratorID{},
		KeepRemote: map[srg.NodeID]string{},
		Recompute:  map[srg.NodeID]bool{},
	}

	// 1. Stateful co-location: if any stateful cache leaf is already
	// resident somewhere, the whole decode phase is pinned there; the
	// cache-append outputs are kept remote under their leaf refs.
	home := remote[0].ID
	if !p.DisableColocation {
		for _, n := range g.Nodes() {
			if n.Op == "input" && n.Residency == srg.ResidencyStatefulKVCache {
				if acc, ok := cs.ResidentOn(n.Ref); ok {
					home = acc
					break
				}
			}
		}
	}

	// Persistent weights: prefer the device already holding them.
	if acc, ok := anyWeightHome(g, cs); ok && !p.DisableColocation {
		home = acc
	}

	for _, id := range computeNodes(g) {
		plan.Place[id] = home
	}

	// Memory-driven sharding: when the model's weights exceed the home
	// device's capacity, split module groups (transformer blocks, CNN
	// stages) across the pool so every weight fits exactly one device.
	if shard, err := shardByMemory(g, cs, home); err != nil {
		return nil, err
	} else if shard != nil {
		for id, dev := range shard {
			plan.Place[id] = dev
		}
	}

	// 2. Pipelined CNN inference: consecutive cv_stage groups spread
	// across accelerators, overlapping communication and computation.
	if !p.DisablePipeline && len(remote) > 1 {
		stages := cvStages(g)
		if len(stages) > 1 {
			plan.PipelineStages = stages
			for si, stage := range stages {
				dev := remote[si%len(remote)].ID
				for _, id := range stage {
					plan.Place[id] = dev
				}
			}
			// Non-staged nodes (head) follow the last stage's device.
			last := remote[(len(stages)-1)%len(remote)].ID
			for _, id := range computeNodes(g) {
				if _, staged := stageOf(stages, id); !staged {
					plan.Place[id] = last
				}
			}
		}
	}

	placeLeaves(g, plan.Place)

	// Caching directives: stateful cache products and weights stay
	// remote under stable keys.
	for _, n := range g.Nodes() {
		switch {
		case n.Residency == srg.ResidencyStatefulKVCache && n.Op != "input":
			// The stateful product's handle: an explicit state_key
			// annotation if the frontend provided one, else the cache
			// leaf this product extends.
			if key := n.Attrs["state_key"]; key != "" {
				plan.KeepRemote[n.ID] = key
			} else if ref := cacheLeafRef(g, n.ID); ref != "" {
				plan.KeepRemote[n.ID] = ref
			}
		case n.Op == "param":
			plan.KeepRemote[n.ID] = n.Ref
		}
	}

	// 3. Dynamic recomputation: a cross-device edge under congestion
	// whose producer is cheap is re-executed at the consumer.
	if !p.DisableRecompute {
		for _, e := range plan.CrossDeviceEdges() {
			prod := g.Node(e.From)
			toDev := cs.Accelerator(plan.DeviceOf(e.To))
			if toDev == nil || prod.Op == "param" || prod.Op == "input" {
				continue
			}
			if toDev.Link.Congestion >= p.CongestionThreshold &&
				prod.Cost.FLOPs <= p.RecomputeThresholdFLOPs &&
				prod.Output.Bytes() > 0 {
				plan.Recompute[e.From] = true
			}
		}
	}
	return plan, nil
}

// anyWeightHome returns the device holding the plurality of this graph's
// persistent weights, if any are resident.
func anyWeightHome(g *srg.Graph, cs *cluster.State) (cluster.AcceleratorID, bool) {
	counts := map[cluster.AcceleratorID]int{}
	for _, id := range g.Params() {
		if acc, ok := cs.ResidentOn(g.Node(id).Ref); ok {
			counts[acc]++
		}
	}
	var best cluster.AcceleratorID
	bestN := 0
	keys := make([]cluster.AcceleratorID, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if counts[k] > bestN {
			best, bestN = k, counts[k]
		}
	}
	return best, bestN > 0
}

// cvStages groups compute nodes by their cv_stage attribute.
func cvStages(g *srg.Graph) [][]srg.NodeID {
	byStage := map[int][]srg.NodeID{}
	maxStage := -1
	for _, n := range g.Nodes() {
		if n.Phase != srg.PhaseCVStage {
			continue
		}
		s, err := strconv.Atoi(n.Attrs["cv_stage"])
		if err != nil {
			continue
		}
		byStage[s] = append(byStage[s], n.ID)
		if s > maxStage {
			maxStage = s
		}
	}
	var out [][]srg.NodeID
	for s := 0; s <= maxStage; s++ {
		if ids := byStage[s]; len(ids) > 0 {
			out = append(out, ids)
		}
	}
	return out
}

func stageOf(stages [][]srg.NodeID, id srg.NodeID) (int, bool) {
	for si, stage := range stages {
		for _, sid := range stage {
			if sid == id {
				return si, true
			}
		}
	}
	return 0, false
}

// cacheLeafRef walks a stateful product's ancestry to the cache leaf it
// extends and returns its ref.
func cacheLeafRef(g *srg.Graph, id srg.NodeID) string {
	for aid := range g.AncestorsOf(id) {
		n := g.Node(aid)
		if n.Op == "input" && n.Residency == srg.ResidencyStatefulKVCache {
			return n.Ref
		}
	}
	return ""
}
