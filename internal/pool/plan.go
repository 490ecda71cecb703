// Package pool implements the disaggregated backend pool: one model
// sharded across N network-attached backends with elastic membership.
// It is the layer the paper argues disaggregation needs to be judged
// at — a single backend holding the whole model never exercises the
// "accelerator pool" economics; a pool that shards by workload
// semantics (module groups, KV residency, phase costs) does.
//
// The subsystem has three parts:
//
//   - ShardPlan (this file): placement of the model's module units onto
//     members, driven by the roofline device cost model plus link
//     transfer costs — the generalization of scheduler.shardByMemory's
//     per-op seed to a pool-wide, strategy-selectable plan.
//   - Manager (pool.go): elastic membership. Backends Join and Leave at
//     runtime; the manager rebuilds the plan and installs or re-installs
//     shard weights from its own copy, never reading from a departed
//     member. Session KV never migrates: a session that lost its KV
//     rebuilds it with one prefill over its token log.
//   - placement (placement.go): end-to-end sharded execution behind the
//     runtime.Session prefill/step API — each hop runs on the member
//     owning its layers and ships the boundary activation to the next —
//     so the serving engine batches over sharded sessions unchanged.
package pool

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"genie/internal/cluster"
	"genie/internal/device"
	"genie/internal/models"
	"genie/internal/nn"
	"genie/internal/scheduler"
)

// Strategy selects how layers map onto members.
type Strategy int

const (
	// StrategyAuto evaluates every strategy's plan under the cost model
	// and keeps the cheapest feasible one.
	StrategyAuto Strategy = iota
	// StrategyMemory is the seed policy generalized: first-fit
	// consecutive bin-packing of module groups by weight footprint,
	// using as few members as fit allows.
	StrategyMemory
	// StrategyTensor interleaves module groups round-robin across
	// members — tensor-parallel-style balance at module-group
	// granularity (each member computes every M-th attention/MLP
	// group), bought with a boundary transfer per group.
	StrategyTensor
	// StrategyPipeline splits layers into contiguous, evenly sized
	// stages across all members — pipeline-parallel layer groups with
	// one boundary transfer per stage edge.
	StrategyPipeline
)

// String names the strategy as the -shard-strategy flag spells it.
func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyMemory:
		return "memory"
	case StrategyTensor:
		return "tensor"
	case StrategyPipeline:
		return "pipeline"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// ParseStrategy parses a -shard-strategy flag value.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "auto":
		return StrategyAuto, nil
	case "memory":
		return StrategyMemory, nil
	case "tensor":
		return StrategyTensor, nil
	case "pipeline":
		return StrategyPipeline, nil
	}
	return 0, fmt.Errorf("pool: unknown shard strategy %q (memory, tensor, pipeline, auto)", s)
}

// Candidate is one member offered to the planner.
type Candidate struct {
	Name string
	Spec device.Spec
	Link cluster.Link
	// HealthScore is the fail-slow scorer's composite score in (0, 1]
	// for this member (see internal/health); zero means unscored and is
	// treated as 1. The planner divides roofline kernel time by the
	// score, so a browned-out member looks proportionally slower to
	// placement and StrategyAuto routes layers away from it.
	HealthScore float64
	// Quarantined marks a member the fail-slow scorer has pulled from
	// service. It is still offered to the planner — dropping it could
	// make an otherwise-feasible model infeasible — but it sorts last
	// and its kernel time carries the worst-case penalty, so placement
	// avoids it whenever the healthy members have room.
	Quarantined bool
}

// minPlanScore floors the health divisor: a quarantined or near-dead
// member costs at most 1/minPlanScore × its roofline time, keeping
// estimates finite and comparable.
const minPlanScore = 0.05

// effectiveScore clamps a candidate's health score into [minPlanScore, 1].
func (c Candidate) effectiveScore() float64 {
	if c.Quarantined {
		return minPlanScore
	}
	s := c.HealthScore
	if s <= 0 || s > 1 {
		return 1
	}
	if s < minPlanScore {
		return minPlanScore
	}
	return s
}

// Shard is one contiguous run of layers owned by a single member. The
// first shard also runs the embeddings, the last one the head.
type Shard struct {
	Member      string
	Lo, Hi      int // layers [Lo, Hi)
	WeightBytes int64
}

// ShardPlan is a placement of the model across the pool. A plan is an
// immutable versioned snapshot: its fields are unexported, so only this
// package builds one, and a membership change builds a new plan at a
// new version rather than editing the old one. Callers elsewhere read
// it through Members, Shards and Manager.Status.
type ShardPlan struct {
	strategy Strategy
	// version is the membership epoch the plan was built at; sessions
	// carry it so concurrent repairs are detected.
	version int64
	// owners maps each layer to its member. Embeddings ride with
	// owners[0], the head with owners[len-1].
	owners []string
	// weights is the per-member weight footprint (embed/head included).
	weights map[string]int64
	// cutEdges counts shard boundaries; cutBytes is the activation
	// bytes crossing them per decode step.
	cutEdges int
	cutBytes int64
	// estimate is the modeled per-decode-step latency: per-member
	// roofline kernel time + per-segment RPC overhead + boundary
	// transfers in both directions.
	estimate time.Duration
}

// Members lists the distinct owners in pipeline order.
func (p *ShardPlan) Members() []string {
	var out []string
	seen := map[string]bool{}
	for _, o := range p.owners {
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	return out
}

// Shards lists the contiguous same-owner layer runs in pipeline order.
func (p *ShardPlan) Shards() []Shard {
	var out []Shard
	for i := 0; i < len(p.owners); {
		j := i
		for j < len(p.owners) && p.owners[j] == p.owners[i] {
			j++
		}
		out = append(out, Shard{Member: p.owners[i], Lo: i, Hi: j})
		i = j
	}
	return out
}

// shardFrom returns the contiguous run starting at layer.
func (p *ShardPlan) shardFrom(layer int) Shard {
	hi := layer
	for hi < len(p.owners) && p.owners[hi] == p.owners[layer] {
		hi++
	}
	return Shard{Member: p.owners[layer], Lo: layer, Hi: hi}
}

// unitAcct aggregates one placement unit's cost-model inputs.
type unitAcct struct {
	weight int64
	flops  float64
	bytes  int64
}

// modelUnits derives per-layer (plus embed and head) accounting from a
// captured decode-step SRG via scheduler.Units — the same module-group
// decomposition the per-op sharding seed uses, lifted to pool placement.
func modelUnits(m *models.GPT) (embed, head unitAcct, layers []unitAcct) {
	caches := make([]*nn.KVCache, m.Cfg.Layers)
	for i := range caches {
		caches[i] = &nn.KVCache{}
	}
	b, _ := m.BuildDecodeStep(0, 1, 1, caches)
	layers = make([]unitAcct, m.Cfg.Layers)
	for _, u := range scheduler.Units(b.Graph()) {
		switch {
		case layerOfUnit(u.Name) >= 0:
			i := layerOfUnit(u.Name)
			layers[i].weight += u.WeightBytes
			layers[i].flops += u.FLOPs
			layers[i].bytes += u.Bytes
		case strings.HasSuffix(u.Name, ".ln_f") || strings.HasSuffix(u.Name, ".lm_head"):
			head.weight += u.WeightBytes
			head.flops += u.FLOPs
			head.bytes += u.Bytes
		default:
			embed.weight += u.WeightBytes
			embed.flops += u.FLOPs
			embed.bytes += u.Bytes
		}
	}
	return embed, head, layers
}

// layerOfUnit extracts the block index from a module-group name
// ("gpt.blocks.3" → 3), or -1.
func layerOfUnit(name string) int {
	const pfx = ".blocks."
	i := strings.Index(name, pfx)
	if i < 0 {
		return -1
	}
	rest := name[i+len(pfx):]
	if j := strings.IndexByte(rest, '.'); j >= 0 {
		rest = rest[:j]
	}
	n, err := strconv.Atoi(rest)
	if err != nil {
		return -1
	}
	return n
}

// BuildPlan places the model across members under the given strategy.
// It errors when no feasible placement exists (the combined pool is too
// small, or a single unit exceeds every member).
func BuildPlan(m *models.GPT, members []Candidate, strat Strategy, version int64) (*ShardPlan, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("pool: no members")
	}
	// Healthiest members first (stable, so unscored pools keep their
	// offered order): first-fit packing and pipeline staging then load
	// the members most likely to sustain it, and quarantined members are
	// reached only when everything healthier is full.
	ordered := append([]Candidate(nil), members...)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Quarantined != ordered[j].Quarantined {
			return !ordered[i].Quarantined
		}
		return ordered[i].effectiveScore() > ordered[j].effectiveScore()
	})
	embed, head, layers := modelUnits(m)
	pl := &planner{model: m, members: ordered, embed: embed, head: head, layers: layers}
	switch strat {
	case StrategyMemory, StrategyTensor, StrategyPipeline:
		owners, err := pl.place(strat)
		if err != nil {
			return nil, err
		}
		return pl.finish(strat, owners, version), nil
	case StrategyAuto:
		var best *ShardPlan
		for _, s := range []Strategy{StrategyMemory, StrategyPipeline, StrategyTensor} {
			owners, err := pl.place(s)
			if err != nil {
				continue
			}
			p := pl.finish(s, owners, version)
			if best == nil || p.estimate < best.estimate {
				best = p
			}
		}
		if best == nil {
			return nil, fmt.Errorf("pool: model does not fit across %d member(s) under any strategy (weights %d B)",
				len(members), m.Cfg.WeightBytes())
		}
		best.strategy = StrategyAuto
		return best, nil
	}
	return nil, fmt.Errorf("pool: unknown strategy %v", strat)
}

type planner struct {
	model   *models.GPT
	members []Candidate
	embed   unitAcct
	head    unitAcct
	layers  []unitAcct
}

func (pl *planner) byName(name string) Candidate {
	for _, c := range pl.members {
		if c.Name == name {
			return c
		}
	}
	return Candidate{}
}

// place assigns owners per layer; it validates memory feasibility.
func (pl *planner) place(strat Strategy) ([]string, error) {
	L := len(pl.layers)
	M := len(pl.members)
	if M > L {
		// Spare members beyond one-per-layer stay unplaced: they are hot
		// spares for failover and rebalance-on-join targets.
		M = L
	}
	owners := make([]string, L)
	switch strat {
	case StrategyMemory:
		// First-fit consecutive packing by weight footprint, embed and
		// head folded into the boundary layers (they must ride with
		// them). Uses as few members as fit allows.
		need := make([]int64, L)
		for i, u := range pl.layers {
			need[i] = u.weight
		}
		need[0] += pl.embed.weight
		need[L-1] += pl.head.weight
		mi, used := 0, int64(0)
		for i := 0; i < L; i++ {
			for mi < len(pl.members) && used+need[i] > pl.members[mi].Spec.MemBytes && used > 0 {
				mi++
				used = 0
			}
			if mi >= len(pl.members) || need[i] > pl.members[mi].Spec.MemBytes {
				return nil, fmt.Errorf("pool: model does not fit across the pool (layer %d needs %d B)", i, need[i])
			}
			used += need[i]
			owners[i] = pl.members[mi].Name
		}
	case StrategyPipeline:
		// Even contiguous stages: member j owns layers [j·L/M, (j+1)·L/M).
		for i := 0; i < L; i++ {
			owners[i] = pl.members[i*M/L].Name
		}
	case StrategyTensor:
		// Round-robin module groups: member j computes every M-th group.
		for i := 0; i < L; i++ {
			owners[i] = pl.members[i%M].Name
		}
	default:
		return nil, fmt.Errorf("pool: unknown strategy %v", strat)
	}
	if err := pl.validate(owners); err != nil {
		return nil, err
	}
	return owners, nil
}

// weightOf computes the per-member weight footprint of a placement.
func (pl *planner) weightOf(owners []string) map[string]int64 {
	w := map[string]int64{}
	for i, o := range owners {
		w[o] += pl.layers[i].weight
	}
	w[owners[0]] += pl.embed.weight
	w[owners[len(owners)-1]] += pl.head.weight
	return w
}

func (pl *planner) validate(owners []string) error {
	for name, w := range pl.weightOf(owners) {
		if spec := pl.byName(name).Spec; w > spec.MemBytes {
			return fmt.Errorf("pool: member %q over budget: %d B of weights, %d B of memory",
				name, w, spec.MemBytes)
		}
	}
	return nil
}

// finish computes the placement's cut and cost summary.
func (pl *planner) finish(strat Strategy, owners []string, version int64) *ShardPlan {
	p := &ShardPlan{
		strategy: strat,
		version:  version,
		owners:   owners,
		weights:  pl.weightOf(owners),
	}
	// Decode-step activation crossing a boundary: one [1, dim] f32 row.
	actBytes := int64(pl.model.Cfg.Dim) * 4
	var est time.Duration
	// Kernel time per layer on its owner, embed/head on theirs, scaled
	// by the owner's health: a member running at score s delivers its
	// roofline throughput slowed by 1/s under the fail-slow model.
	kt := func(c Candidate, u unitAcct) time.Duration {
		t := c.Spec.KernelTime(u.flops, u.bytes)
		if s := c.effectiveScore(); s < 1 {
			t = time.Duration(float64(t) / s)
		}
		return t
	}
	est += kt(pl.byName(owners[0]), pl.embed)
	for i, u := range pl.layers {
		est += kt(pl.byName(owners[i]), u)
	}
	est += kt(pl.byName(owners[len(owners)-1]), pl.head)
	// Per segment one RPC; per boundary the activation moves down from
	// the producer and up to the consumer.
	prev := ""
	for _, o := range owners {
		if o == prev {
			continue
		}
		c := pl.byName(o)
		est += c.Link.RPCOverhead
		if prev != "" {
			p.cutEdges++
			p.cutBytes += actBytes
			est += pl.byName(prev).Link.TransferTime(actBytes) + c.Link.TransferTime(actBytes)
		}
		prev = o
	}
	p.estimate = est
	return p
}
