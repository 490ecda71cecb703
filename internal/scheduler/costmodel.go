package scheduler

import (
	"time"

	"genie/internal/cluster"
	"genie/internal/srg"
)

// RPCProfile models the software overhead of the transport stack. The
// paper's evaluation uses PyTorch's TensorPipe RPC; its §3.4 design point
// is a DPDK/RDMA zero-copy path. Both are expressible here, and bench A7
// sweeps between them.
type RPCProfile struct {
	Name string
	// SetupTime is paid once per session (remote module installation,
	// connection establishment). Dominant for the Python stack in §4.
	SetupTime time.Duration
	// PerCall is fixed software overhead per synchronous RPC.
	PerCall time.Duration
	// SerializeBandwidth is the endpoint copy/serialize rate in bytes/s
	// (pickling for the Python stack; line rate for true zero-copy).
	SerializeBandwidth float64
}

// TensorPipeProfile is calibrated against the paper's measured RPC-bound
// regime (§4: CPU-only client, PyTorch 2.1 TensorPipe, no RDMA).
var TensorPipeProfile = RPCProfile{
	Name:               "tensorpipe-python",
	SetupTime:          109 * time.Second,
	PerCall:            15 * time.Millisecond,
	SerializeBandwidth: 140e6,
}

// RDMAProfile is the projected zero-copy datapath of §3.4: negligible
// per-call software cost, serialization at line rate (no copies).
var RDMAProfile = RPCProfile{
	Name:               "rdma-zerocopy",
	SetupTime:          50 * time.Millisecond,
	PerCall:            5 * time.Microsecond,
	SerializeBandwidth: 12.5e9,
}

// CallTime returns the end-to-end cost of one RPC moving n payload bytes
// over the link.
func (p RPCProfile) CallTime(link cluster.Link, n int64) time.Duration {
	d := p.PerCall + link.RTT
	if n > 0 {
		if p.SerializeBandwidth > 0 {
			d += time.Duration(float64(n) / p.SerializeBandwidth * float64(time.Second))
		}
		d += time.Duration(float64(n) / link.EffectiveBandwidth() * float64(time.Second))
	}
	return d
}

// CostModel estimates end-to-end plan latency as compute + transfers +
// queueing (§3.3's "pluggable cost model").
type CostModel struct {
	RPC RPCProfile
	// QueuePenalty per outstanding request on a device (head-of-line
	// estimate).
	QueuePenalty time.Duration
}

// NewCostModel builds a model with the given transport profile.
func NewCostModel(rpc RPCProfile) *CostModel {
	return &CostModel{RPC: rpc, QueuePenalty: 2 * time.Millisecond}
}

// NodeCompute returns a node's kernel time on its assigned device.
func (m *CostModel) NodeCompute(plan *Plan, cs *cluster.State, id srg.NodeID) time.Duration {
	n := plan.Graph.Node(id)
	if n.Op == "param" || n.Op == "input" {
		return 0
	}
	acc := cs.Accelerator(plan.DeviceOf(id))
	if acc == nil {
		return 0
	}
	return acc.Spec.KernelTime(n.Cost.FLOPs, n.Cost.Bytes)
}

// PlanLatency estimates the critical-path latency of a plan: the longest
// chain of compute plus cross-device transfer times, plus queueing on the
// busiest device. Pipeline stages overlap: the pipeline's latency is the
// max stage time plus one fill.
func (m *CostModel) PlanLatency(plan *Plan, cs *cluster.State) time.Duration {
	g := plan.Graph
	// Transfers by consumer edge.
	xferIn := map[srg.NodeID]time.Duration{}
	for _, e := range plan.CrossDeviceEdges() {
		if plan.Recompute[e.From] {
			// Recomputed at the consumer: cost is the producer's compute
			// on the consumer device instead of the wire.
			n := g.Node(e.From)
			acc := cs.Accelerator(plan.DeviceOf(e.To))
			if acc != nil {
				xferIn[e.To] += acc.Spec.KernelTime(n.Cost.FLOPs, n.Cost.Bytes)
			}
			continue
		}
		acc := cs.Accelerator(plan.DeviceOf(e.To))
		if acc == nil {
			continue
		}
		bytes := int64(float64(e.Meta.Bytes()) * rateOr1(e.Rate))
		xferIn[e.To] += m.RPC.CallTime(acc.Link, bytes)
	}

	// Longest path over compute + incoming transfer.
	dist := make(map[srg.NodeID]time.Duration, g.Len())
	var maxDist time.Duration
	for _, id := range g.TopoOrder() {
		n := g.Node(id)
		var best time.Duration
		for _, in := range n.Inputs {
			if d := dist[in]; d > best {
				best = d
			}
		}
		d := best + m.NodeCompute(plan, cs, id) + xferIn[id]
		dist[id] = d
		if d > maxDist {
			maxDist = d
		}
	}

	// Pipeline overlap credit: if stages exist, steady-state latency is
	// bounded by the slowest stage; approximate total as max stage + the
	// inter-stage transfers once.
	if len(plan.PipelineStages) > 1 {
		var maxStage time.Duration
		for _, stage := range plan.PipelineStages {
			var st time.Duration
			for _, id := range stage {
				st += m.NodeCompute(plan, cs, id) + xferIn[id]
			}
			if st > maxStage {
				maxStage = st
			}
		}
		overlapped := maxStage * time.Duration(len(plan.PipelineStages))
		if overlapped < maxDist {
			maxDist = overlapped
		}
	}

	// Queueing on the busiest device.
	var maxQueue int
	seen := map[cluster.AcceleratorID]bool{}
	for _, dev := range plan.Place {
		if !seen[dev] {
			seen[dev] = true
			if q := cs.QueueDepth(dev); q > maxQueue {
				maxQueue = q
			}
		}
	}
	return maxDist + time.Duration(maxQueue)*m.QueuePenalty
}

func rateOr1(r float64) float64 {
	if r <= 0 {
		return 1
	}
	return r
}
