// Package global implements the semantics-aware global scheduler of
// §3.6: Genie instances submit SRGs as first-class workload descriptions,
// and the coordinator decides *where* (heterogeneous placement), *when*
// (elastic phase-driven scaling), and *how* (cross-tenant orchestration:
// decode batching and SLO priority) each should execute — decisions that
// are impossible for systems blind to application intent.
package global

import (
	"fmt"
	"sort"
	"time"

	"genie/internal/cluster"
	"genie/internal/device"
	"genie/internal/scheduler"
	"genie/internal/srg"
)

// SLO classifies a submission's latency expectation.
type SLO int

// SLO classes (on-demand vs batch, §2.2).
const (
	SLOInteractive SLO = iota
	SLOBatch
)

// String implements fmt.Stringer.
func (s SLO) String() string {
	if s == SLOInteractive {
		return "interactive"
	}
	return "batch"
}

// WorkloadClass is the coordinator's coarse classification of an SRG —
// Table 1's rows, derived from annotations alone.
type WorkloadClass string

// Classes recognized from SRG phase/modality annotations.
const (
	ClassLLM            WorkloadClass = "llm"
	ClassVision         WorkloadClass = "vision"
	ClassRecommendation WorkloadClass = "recommendation"
	ClassMultiModal     WorkloadClass = "multimodal"
	ClassGeneric        WorkloadClass = "generic"
)

// Classify derives the workload class from SRG annotations.
func Classify(g *srg.Graph) WorkloadClass {
	phases := map[srg.Phase]bool{}
	for _, n := range g.Nodes() {
		phases[n.Phase] = true
	}
	switch {
	case phases[srg.PhaseFusion]:
		return ClassMultiModal
	case phases[srg.PhaseLLMPrefill] || phases[srg.PhaseLLMDecode]:
		return ClassLLM
	case phases[srg.PhaseCVStage]:
		return ClassVision
	case phases[srg.PhaseSparse]:
		return ClassRecommendation
	}
	return ClassGeneric
}

// Submission is one tenant's request: an annotated SRG plus scheduling
// metadata.
type Submission struct {
	Tenant string
	Graph  *srg.Graph
	SLO    SLO
	// Arrival orders submissions in simulated streams.
	Arrival time.Duration
}

// Coordinator is the fleet-wide scheduler.
type Coordinator struct {
	cs    *cluster.State
	model *scheduler.CostModel
}

// NewCoordinator builds a coordinator over the given pool.
//
//lint:ignore deadexport facade only: examples/multitenant reaches it through genie.go; ROADMAP item 2 keeps one admission owner
func NewCoordinator(cs *cluster.State, model *scheduler.CostModel) *Coordinator {
	return &Coordinator{cs: cs, model: model}
}

// --- Where: heterogeneous placement ---

// deviceAffinity scores how well a device suits a workload class; lower
// is better (expected latency proxy × relative cost).
func deviceAffinity(class WorkloadClass, g *srg.Graph, spec device.Spec) float64 {
	total := g.TotalCost()
	// Latency proxy from the roofline.
	lat := spec.KernelTime(total.FLOPs, total.Bytes).Seconds()
	if lat <= 0 {
		lat = 1e-9
	}
	score := lat * spec.CostPerHour
	// Class-specific adjustments the paper sketches: memory-bandwidth
	// workloads (decode-heavy LLM, vision transformers) prefer high-BW
	// parts; sparse recommendation prefers capacity per dollar.
	switch class {
	case ClassRecommendation:
		score *= 1 / (float64(spec.MemBytes) / 1e9 / spec.CostPerHour) // favor GB/$
	case ClassVision, ClassLLM:
		score *= 1e12 / spec.MemBandwidth // favor bandwidth
	}
	return score
}

// PlaceTenant selects the best device class for a submission and returns
// a placement plan from the semantics-aware policy constrained to that
// device.
func (c *Coordinator) PlaceTenant(sub Submission) (*scheduler.Plan, cluster.AcceleratorID, error) {
	class := Classify(sub.Graph)
	remote := c.cs.Remote()
	if len(remote) == 0 {
		return nil, "", fmt.Errorf("global: empty pool")
	}
	best := remote[0]
	bestScore := deviceAffinity(class, sub.Graph, best.Spec)
	for _, a := range remote[1:] {
		if s := deviceAffinity(class, sub.Graph, a.Spec); s < bestScore {
			best, bestScore = a, s
		}
	}
	// Constrain the semantic policy to the chosen device by building a
	// single-device view.
	view := cluster.NewState()
	if err := view.AddAccelerator(best); err != nil {
		return nil, "", err
	}
	mirrorResidency(c.cs, view, sub.Graph, best.ID)
	plan, err := scheduler.Schedule(sub.Graph, view, scheduler.SemanticsAware{}, c.model)
	if err != nil {
		return nil, "", err
	}
	c.cs.IncQueue(best.ID)
	return plan, best.ID, nil
}

// mirrorResidency copies residency facts relevant to the graph into the
// single-device view.
func mirrorResidency(src, dst *cluster.State, g *srg.Graph, dev cluster.AcceleratorID) {
	for _, n := range g.Nodes() {
		if n.Op != "param" && n.Op != "input" {
			continue
		}
		if acc, ok := src.ResidentOn(n.Ref); ok && acc == dev {
			dst.SetResident(n.Ref, dev, n.Output.Bytes())
		}
	}
}

// --- When: elastic phase-driven scaling ---

// PhaseDemand aggregates resource demand per phase across submissions.
type PhaseDemand struct {
	Phase srg.Phase
	FLOPs float64
	Bytes int64
}

// ScalePlan recommends accelerator counts per phase for a target
// completion window: compute-bound phases scale by FLOPs, memory-bound
// by bytes (the prefill-burst / decode-steady asymmetry of §3.6).
type ScalePlan struct {
	Demands map[srg.Phase]PhaseDemand
	Devices map[srg.Phase]int
}

// ElasticScale sizes per-phase pools over the given device class and
// window.
func ElasticScale(subs []Submission, spec device.Spec, window time.Duration) ScalePlan {
	plan := ScalePlan{
		Demands: map[srg.Phase]PhaseDemand{},
		Devices: map[srg.Phase]int{},
	}
	for _, sub := range subs {
		for _, n := range sub.Graph.Nodes() {
			if n.Op == "param" || n.Op == "input" {
				continue
			}
			d := plan.Demands[n.Phase]
			d.Phase = n.Phase
			d.FLOPs += n.Cost.FLOPs
			d.Bytes += n.Cost.Bytes
			plan.Demands[n.Phase] = d
		}
	}
	w := window.Seconds()
	if w <= 0 {
		w = 1
	}
	for phase, d := range plan.Demands {
		byFLOPs := d.FLOPs / (spec.PeakFLOPS * w)
		byBytes := float64(d.Bytes) / (spec.MemBandwidth * w)
		need := byFLOPs
		if byBytes > need {
			need = byBytes
		}
		n := int(need) + 1
		if need == float64(int(need)) && n > 1 {
			n = int(need)
		}
		plan.Devices[phase] = n
	}
	return plan
}

// --- How: cross-tenant orchestration ---

// BatchGroup is a set of decode submissions against the same model that
// the coordinator fuses into one batched execution (§3.6: "identify two
// separate user requests that use the same public LLM and automatically
// batch their decode steps").
type BatchGroup struct {
	Fingerprint string
	Subs        []Submission
}

// BatchDecodes groups decode-phase submissions by SRG fingerprint. Only
// graphs containing a decode phase batch; others pass through alone.
func BatchDecodes(subs []Submission) (groups []BatchGroup, singles []Submission) {
	byFP := map[string]*BatchGroup{}
	var fps []string
	for _, sub := range subs {
		if !hasPhase(sub.Graph, srg.PhaseLLMDecode) {
			singles = append(singles, sub)
			continue
		}
		fp := sub.Graph.Fingerprint()
		g, ok := byFP[fp]
		if !ok {
			g = &BatchGroup{Fingerprint: fp}
			byFP[fp] = g
			fps = append(fps, fp)
		}
		g.Subs = append(g.Subs, sub)
	}
	for _, fp := range fps {
		groups = append(groups, *byFP[fp])
	}
	return groups, singles
}

func hasPhase(g *srg.Graph, p srg.Phase) bool {
	for _, n := range g.Nodes() {
		if n.Phase == p {
			return true
		}
	}
	return false
}

// BatchSpeedup estimates the throughput gain of batching n same-model
// decode steps on spec: the weight read amortizes across the batch while
// per-request work (KV reads, small GEMV FLOPs) does not. This is the
// quantity bench A6 sweeps.
func BatchSpeedup(spec device.Spec, weightBytes, perReqBytes int64, perReqFLOPs float64, n int) float64 {
	if n <= 1 {
		return 1
	}
	single := spec.KernelTime(perReqFLOPs, weightBytes+perReqBytes).Seconds()
	batched := spec.KernelTime(perReqFLOPs*float64(n), weightBytes+perReqBytes*int64(n)).Seconds()
	if batched <= 0 {
		return 1
	}
	return single * float64(n) / batched
}

// Less is the dispatch-priority comparator: interactive before batch,
// then arrival order. §3.6: "prioritize interactive, latency-sensitive
// VQA queries over long-running batch training jobs". Both the offline
// Prioritize pass and the online engine's admission queues order by it.
func Less(a, b Submission) bool {
	if a.SLO != b.SLO {
		return a.SLO < b.SLO
	}
	return a.Arrival < b.Arrival
}

// Prioritize orders submissions for dispatch by Less (stable).
func Prioritize(subs []Submission) []Submission {
	out := append([]Submission(nil), subs...)
	sort.SliceStable(out, func(i, j int) bool { return Less(out[i], out[j]) })
	return out
}
