package runtime

import (
	"fmt"
	"time"

	"genie/internal/cluster"
	"genie/internal/lazy"
	"genie/internal/scheduler"
	"genie/internal/srg"
	"genie/internal/tensor"
	"genie/internal/transport"
)

// PlanExecutor realizes a scheduler.Plan across multiple backends: it
// partitions the SRG into per-device segments along placement
// boundaries, ships each segment as one Exec to its device, carries
// boundary activations between devices through the client, honors the
// plan's KeepRemote directives, and duplicates recompute-marked
// producers into their consumers' segments instead of transferring their
// outputs (§3.3 "dynamic recomputation").
//
// This is the multi-accelerator generalization of the single-endpoint
// LLM modes: the same machinery drives pipelined CNN plans and
// heterogeneous multi-tenant placements.
type PlanExecutor struct {
	// EPs maps plan device IDs to live endpoints.
	EPs map[cluster.AcceleratorID]Endpoint
	// Metrics accumulates per-execution accounting.
	Metrics Metrics
}

// segment is a maximal run of same-device compute nodes in topo order.
type segment struct {
	device cluster.AcceleratorID
	nodes  []srg.NodeID
}

// Execute runs the plan and returns the values of the requested nodes.
// Leaf data binds from the builder; remote-resident leaves (weights
// already installed under their refs) bind by key automatically when the
// builder has no data for them.
func (pe *PlanExecutor) Execute(plan *scheduler.Plan, b *lazy.Builder, want []srg.NodeID) (map[srg.NodeID]*tensor.Tensor, error) {
	g := plan.Graph
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("runtime: plan graph invalid: %w", err)
	}

	segments := pe.segments(plan)
	wantSet := map[srg.NodeID]bool{}
	for _, id := range want {
		wantSet[id] = true
	}

	// Compute each segment's body (its nodes plus recompute-marked
	// producers inlined transitively), then the boundary set: any value
	// produced in one segment and consumed as a non-inlined input in
	// another must return to the client.
	bodies := make([]map[srg.NodeID]bool, len(segments))
	producedIn := map[srg.NodeID]int{}
	for si, seg := range segments {
		body := map[srg.NodeID]bool{}
		var add func(id srg.NodeID)
		add = func(id srg.NodeID) {
			if body[id] {
				return
			}
			n := g.Node(id)
			if n.Op == "param" || n.Op == "input" {
				return
			}
			body[id] = true
			for _, in := range n.Inputs {
				if plan.Recompute[in] {
					add(in)
				}
			}
		}
		for _, id := range seg.nodes {
			add(id)
		}
		bodies[si] = body
		for _, id := range seg.nodes {
			producedIn[id] = si
		}
	}
	needAtClient := map[srg.NodeID]bool{}
	for id := range wantSet {
		needAtClient[id] = true
	}
	for si, body := range bodies {
		for id := range body {
			for _, in := range g.Node(id).Inputs {
				if body[in] {
					continue
				}
				dep := g.Node(in)
				if dep.Op == "param" || dep.Op == "input" {
					continue
				}
				if producedIn[in] != si {
					needAtClient[in] = true
				}
			}
		}
	}

	vals := map[srg.NodeID]*tensor.Tensor{}
	for si, seg := range segments {
		ep, ok := pe.EPs[seg.device]
		if !ok {
			return nil, fmt.Errorf("runtime: no endpoint for device %q", seg.device)
		}
		if err := pe.runSegment(plan, b, seg, bodies[si], ep, vals, needAtClient); err != nil {
			return nil, err
		}
	}

	out := map[srg.NodeID]*tensor.Tensor{}
	for id := range wantSet {
		t, ok := vals[id]
		if !ok {
			return nil, fmt.Errorf("runtime: wanted node %d was not produced", id)
		}
		out[id] = t
	}
	pe.Metrics.RPCCalls += int64(len(segments))
	return out, nil
}

// segments splits compute nodes into maximal same-device runs in topo
// order. Recompute-marked nodes are excluded — they are inlined into
// consumer segments on demand.
func (pe *PlanExecutor) segments(plan *scheduler.Plan) []segment {
	var segs []segment
	var cur *segment
	for _, n := range plan.Graph.Nodes() {
		if n.Op == "param" || n.Op == "input" {
			continue
		}
		dev := plan.DeviceOf(n.ID)
		if cur == nil || cur.device != dev {
			segs = append(segs, segment{device: dev})
			cur = &segs[len(segs)-1]
		}
		cur.nodes = append(cur.nodes, n.ID)
	}
	return segs
}

// runSegment builds and executes one per-device subgraph over the given
// body (segment nodes plus inlined recomputes).
func (pe *PlanExecutor) runSegment(plan *scheduler.Plan, b *lazy.Builder, seg segment,
	body map[srg.NodeID]bool, ep Endpoint, vals map[srg.NodeID]*tensor.Tensor,
	needAtClient map[srg.NodeID]bool) error {
	g := plan.Graph

	// Build the subgraph: leaves for (a) original graph leaves consumed
	// by the body, (b) boundary values produced outside the body.
	sub := srg.New(g.Name + "@" + string(seg.device))
	remap := map[srg.NodeID]srg.NodeID{}
	ex := &transport.Exec{Graph: sub}
	boundLeaf := map[srg.NodeID]bool{}

	bindLeaf := func(orig *srg.Node) (srg.NodeID, error) {
		leaf := &srg.Node{
			Op: orig.Op, Ref: orig.Ref, Output: orig.Output,
			Residency: orig.Residency, Phase: orig.Phase, Modality: orig.Modality,
		}
		id, err := sub.Add(leaf)
		if err != nil {
			return srg.Invalid, err
		}
		if !boundLeaf[orig.ID] {
			boundLeaf[orig.ID] = true
			var data *tensor.Tensor
			var ok bool
			if orig.Op == "param" {
				data, ok = b.ParamData(orig.Ref)
			} else {
				data, ok = b.InputData(orig.Ref)
			}
			if ok && data != nil {
				ex.Binds = append(ex.Binds, transport.Binding{Ref: orig.Ref, Inline: data})
			} else {
				// Remote-resident under its ref (installed weights or
				// kept stateful objects).
				ex.Binds = append(ex.Binds, transport.Binding{Ref: orig.Ref, Key: orig.Ref})
			}
		}
		return id, nil
	}

	boundaryIdx := 0
	bindBoundary := func(orig *srg.Node) (srg.NodeID, error) {
		ref := fmt.Sprintf("__boundary.%d", boundaryIdx)
		boundaryIdx++
		leaf := &srg.Node{Op: "input", Ref: ref, Output: orig.Output,
			Residency: srg.ResidencyExternalInput}
		id, err := sub.Add(leaf)
		if err != nil {
			return srg.Invalid, err
		}
		t, ok := vals[orig.ID]
		if !ok {
			return srg.Invalid, fmt.Errorf("runtime: boundary value %d not materialized", orig.ID)
		}
		ex.Binds = append(ex.Binds, transport.Binding{Ref: ref, Inline: t})
		return id, nil
	}

	// Topological walk over the body in original ID order.
	for _, n := range g.Nodes() {
		if !body[n.ID] {
			continue
		}
		inputs := make([]srg.NodeID, len(n.Inputs))
		for i, in := range n.Inputs {
			if mapped, ok := remap[in]; ok {
				inputs[i] = mapped
				continue
			}
			dep := g.Node(in)
			var id srg.NodeID
			var err error
			if dep.Op == "param" || dep.Op == "input" {
				id, err = bindLeaf(dep)
			} else {
				id, err = bindBoundary(dep)
			}
			if err != nil {
				return err
			}
			remap[in] = id
			inputs[i] = id
		}
		clone := &srg.Node{
			Op: n.Op, Attrs: n.Attrs, Inputs: inputs, Output: n.Output,
			Module: n.Module, Phase: n.Phase, Residency: n.Residency,
			Modality: n.Modality, Cost: n.Cost,
		}
		id, err := sub.Add(clone)
		if err != nil {
			return err
		}
		remap[n.ID] = id
	}

	// Keeps and wants for this segment.
	for origID, key := range plan.KeepRemote {
		if mapped, ok := remap[origID]; ok && body[origID] {
			if ex.Keep == nil {
				ex.Keep = map[srg.NodeID]string{}
			}
			ex.Keep[mapped] = key
		}
	}
	backMap := map[srg.NodeID]srg.NodeID{} // sub ID -> orig ID
	for _, id := range seg.nodes {
		if needAtClient[id] {
			mapped := remap[id]
			ex.Want = append(ex.Want, mapped)
			backMap[mapped] = id
		}
	}

	ok, err := ep.Exec(ex)
	if err != nil {
		return fmt.Errorf("runtime: segment on %q: %w", seg.device, err)
	}
	pe.Metrics.GPUBusy += time.Duration(ok.GPUTimeNs)
	for mapped, t := range ok.Results {
		if orig, found := backMap[mapped]; found {
			vals[orig] = t
		}
	}
	return nil
}
