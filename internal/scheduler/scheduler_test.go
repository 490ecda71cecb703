package scheduler

import (
	"math/rand"
	"testing"
	"time"

	"genie/internal/cluster"
	"genie/internal/device"
	"genie/internal/frontend"
	"genie/internal/models"
	"genie/internal/nn"
	"genie/internal/srg"
	"genie/internal/tensor"
)

func pool(t *testing.T, n int) *cluster.State {
	t.Helper()
	cs := cluster.NewState()
	link := cluster.Link{Bandwidth: 25e9 / 8, RTT: 200 * time.Microsecond}
	for i := 0; i < n; i++ {
		if err := cs.AddAccelerator(&cluster.Accelerator{
			ID:   cluster.AcceleratorID(string(rune('a' + i))),
			Spec: device.A100,
			Link: link,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return cs
}

func decodeGraph(t *testing.T) *srg.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	m := models.NewGPT(rng, models.TinyGPT)
	caches := make([]*nn.KVCache, m.Cfg.Layers)
	for i := range caches {
		caches[i] = &nn.KVCache{
			K: tensor.New(tensor.F32, 4, m.Cfg.Dim),
			V: tensor.New(tensor.F32, 4, m.Cfg.Dim),
		}
	}
	b, _ := m.BuildDecodeStep(1, 4, 4, caches)
	frontend.Annotate(b.Graph())
	return b.Graph()
}

func cnnGraph(t *testing.T) *srg.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	m := models.NewCNN(rng, models.TinyCNN)
	b, _ := m.BuildForward(tensor.New(tensor.F32, 3, 32, 32))
	frontend.Annotate(b.Graph())
	return b.Graph()
}

func TestRoundRobinSpreadsNodes(t *testing.T) {
	cs := pool(t, 3)
	g := decodeGraph(t)
	plan, err := Schedule(g, cs, RoundRobin{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	used := map[cluster.AcceleratorID]bool{}
	for _, n := range g.Nodes() {
		if n.Op != "param" && n.Op != "input" {
			used[plan.Place[n.ID]] = true
		}
	}
	if len(used) != 3 {
		t.Errorf("round robin used %d devices, want 3", len(used))
	}
	if plan.Policy != "round_robin" {
		t.Errorf("policy %q", plan.Policy)
	}
}

func TestLeastLoadedPicksIdleDevice(t *testing.T) {
	cs := pool(t, 2)
	cs.IncQueue("a")
	cs.IncQueue("a")
	g := decodeGraph(t)
	plan, err := Schedule(g, cs, LeastLoaded{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes() {
		if plan.Place[n.ID] != "b" {
			t.Fatalf("node %d on %q, want b", n.ID, plan.Place[n.ID])
		}
	}
}

func TestDataAwareFollowsResidency(t *testing.T) {
	cs := pool(t, 2)
	g := decodeGraph(t)
	// Park every weight on device b.
	for _, id := range g.Params() {
		cs.SetResident(g.Node(id).Ref, "b", g.Node(id).Output.Bytes())
	}
	plan, err := Schedule(g, cs, DataAware{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	onB := 0
	total := 0
	for _, n := range g.Nodes() {
		if n.Op == "param" || n.Op == "input" {
			continue
		}
		total++
		if plan.Place[n.ID] == "b" {
			onB++
		}
	}
	if onB*2 < total {
		t.Errorf("data-aware put only %d/%d compute nodes with the weights", onB, total)
	}
}

func TestSemanticsAwareColocatesWithCache(t *testing.T) {
	cs := pool(t, 3)
	g := decodeGraph(t)
	// The KV cache lives on device c.
	cs.SetResident(models.CacheRef(0, "k"), "c", 1024)
	plan, err := Schedule(g, cs, SemanticsAware{}, NewCostModel(TensorPipeProfile))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes() {
		if n.Op == "param" || n.Op == "input" {
			continue
		}
		if plan.Place[n.ID] != "c" {
			t.Fatalf("decode node %d on %q, want co-located with cache on c", n.ID, plan.Place[n.ID])
		}
	}
	// Cache appends kept remote under their refs; weights kept too.
	keptCaches := 0
	for id, key := range plan.KeepRemote {
		n := g.Node(id)
		if n.Residency == srg.ResidencyStatefulKVCache && n.Op == "concat" {
			keptCaches++
			if key == "" {
				t.Error("cache kept under empty key")
			}
		}
	}
	if keptCaches != 2*models.TinyGPT.Layers {
		t.Errorf("kept %d cache products, want %d", keptCaches, 2*models.TinyGPT.Layers)
	}
	if plan.Estimate <= 0 {
		t.Error("cost model estimate missing")
	}
}

func TestSemanticsAwareColocationDisabled(t *testing.T) {
	cs := pool(t, 3)
	g := decodeGraph(t)
	cs.SetResident(models.CacheRef(0, "k"), "c", 1024)
	plan, err := Schedule(g, cs, SemanticsAware{DisableColocation: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Without co-location the policy defaults to the first device.
	for _, n := range g.Nodes() {
		if n.Op == "param" || n.Op == "input" {
			continue
		}
		if plan.Place[n.ID] == "c" {
			t.Fatal("ablated policy should not follow the cache")
		}
	}
}

func TestSemanticsAwarePipelinesCNN(t *testing.T) {
	cs := pool(t, 2)
	g := cnnGraph(t)
	plan, err := Schedule(g, cs, SemanticsAware{}, NewCostModel(RDMAProfile))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.PipelineStages) < 2 {
		t.Fatalf("expected pipeline stages, got %d", len(plan.PipelineStages))
	}
	// Stages must land on alternating devices.
	devs := map[cluster.AcceleratorID]bool{}
	for _, stage := range plan.PipelineStages {
		devs[plan.Place[stage[0]]] = true
	}
	if len(devs) != 2 {
		t.Errorf("pipeline used %d devices, want 2", len(devs))
	}
	if err := plan.Validate(cs); err != nil {
		t.Fatal(err)
	}
}

func TestSemanticsAwarePipelineSingleDeviceNoSplit(t *testing.T) {
	cs := pool(t, 1)
	g := cnnGraph(t)
	plan, err := Schedule(g, cs, SemanticsAware{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.PipelineStages != nil {
		t.Error("single-device pool must not pipeline")
	}
}

func TestDynamicRecomputationUnderCongestion(t *testing.T) {
	cs := pool(t, 2)
	g := cnnGraph(t)
	// Congest device b's link heavily.
	if err := cs.SetCongestion("b", 0.9); err != nil {
		t.Fatal(err)
	}
	plan, err := Schedule(g, cs, SemanticsAware{RecomputeThresholdFLOPs: 1e9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.CrossDeviceEdges()) == 0 {
		t.Skip("no cross-device edges to recompute")
	}
	if len(plan.Recompute) == 0 {
		t.Error("congested cheap producers should be recomputed")
	}
	// Ablated: no recomputation.
	plan2, err := Schedule(g, cs, SemanticsAware{DisableRecompute: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan2.Recompute) != 0 {
		t.Error("ablated policy must not recompute")
	}
}

func TestScheduleRejectsEmptyPool(t *testing.T) {
	cs := cluster.NewState()
	g := decodeGraph(t)
	for _, p := range []Policy{RoundRobin{}, LeastLoaded{}, DataAware{}, SemanticsAware{}} {
		if _, err := Schedule(g, cs, p, nil); err == nil {
			t.Errorf("%s should fail on an empty pool", p.Name())
		}
	}
}

func TestScheduleRejectsInvalidGraph(t *testing.T) {
	cs := pool(t, 1)
	g := srg.New("bad")
	g.MustAdd(&srg.Node{Op: "input", Ref: "x"})
	g.Nodes()[0].Op = "" // corrupt
	if _, err := Schedule(g, cs, RoundRobin{}, nil); err == nil {
		t.Error("invalid graph should be rejected")
	}
}

func TestPlanValidateCatchesUnplacedAndBadKeys(t *testing.T) {
	cs := pool(t, 1)
	g := decodeGraph(t)
	plan := &Plan{Graph: g, Place: map[srg.NodeID]cluster.AcceleratorID{}}
	if err := plan.Validate(cs); err == nil {
		t.Error("unplaced nodes should fail validation")
	}
	full, err := Schedule(g, cs, LeastLoaded{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	full.KeepRemote = map[srg.NodeID]string{0: ""}
	if err := full.Validate(cs); err == nil {
		t.Error("empty keep key should fail validation")
	}
}

func TestCostModelTransferVsCompute(t *testing.T) {
	cs := pool(t, 2)
	g := cnnGraph(t)
	model := NewCostModel(TensorPipeProfile)

	single, err := Schedule(g, cs, LeastLoaded{}, model)
	if err != nil {
		t.Fatal(err)
	}
	spread, err := Schedule(g, cs, RoundRobin{}, model)
	if err != nil {
		t.Fatal(err)
	}
	// Under a heavy per-call transport, spreading every op round-robin
	// must cost more than keeping the graph on one device.
	if spread.Estimate <= single.Estimate {
		t.Errorf("round-robin estimate %v should exceed single-device %v",
			spread.Estimate, single.Estimate)
	}
	if transferBytes(single) != 0 {
		t.Error("single-device plan should imply zero transfers")
	}
	if transferBytes(spread) == 0 {
		t.Error("round-robin plan should imply transfers")
	}
}

func TestCostModelRecomputeRemovesTransfer(t *testing.T) {
	cs := pool(t, 2)
	g := cnnGraph(t)
	model := NewCostModel(TensorPipeProfile)
	plan, err := Schedule(g, cs, RoundRobin{}, model)
	if err != nil {
		t.Fatal(err)
	}
	before := transferBytes(plan)
	// Recompute every producer of a cross-device edge.
	plan.Recompute = map[srg.NodeID]bool{}
	for _, e := range plan.CrossDeviceEdges() {
		if n := g.Node(e.From); n.Op != "param" && n.Op != "input" {
			plan.Recompute[e.From] = true
		}
	}
	after := transferBytes(plan)
	if after >= before {
		t.Errorf("recompute should reduce transfer bytes: %d -> %d", before, after)
	}
}

func TestRPCProfilesCallTime(t *testing.T) {
	link := cluster.Link{Bandwidth: 25e9 / 8, RTT: time.Millisecond}
	slow := TensorPipeProfile.CallTime(link, 1<<20)
	fast := RDMAProfile.CallTime(link, 1<<20)
	if fast >= slow {
		t.Errorf("RDMA call (%v) should beat TensorPipe (%v)", fast, slow)
	}
	// Zero-byte calls still pay per-call + RTT.
	if got := RDMAProfile.CallTime(link, 0); got < time.Millisecond {
		t.Errorf("zero-byte call %v should include RTT", got)
	}
}

func TestPipelineEstimateBeatsSequentialForCNN(t *testing.T) {
	cs := pool(t, 2)
	g := cnnGraph(t)
	model := NewCostModel(RDMAProfile)
	pipelined, err := Schedule(g, cs, SemanticsAware{}, model)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Schedule(g, cs, SemanticsAware{DisablePipeline: true}, model)
	if err != nil {
		t.Fatal(err)
	}
	// Per-request latency: pipelining adds inter-stage hops, so the
	// sequential plan may well be cheaper for one tiny image — the
	// pipeline's win is throughput under streams (bench A2 measures it).
	// Here we assert the model prices the added hops rather than hiding
	// them.
	if pipelined.Estimate <= seq.Estimate {
		t.Errorf("pipelined latency estimate %v should price inter-stage hops (seq %v)",
			pipelined.Estimate, seq.Estimate)
	}
	if transferBytes(pipelined) <= transferBytes(seq) {
		t.Error("pipelined plan should imply more transfer bytes than single-device")
	}
}

func TestShardByMemorySplitsOversizedModel(t *testing.T) {
	// TinyGPT weights ~100 KB; give each device 60 KB so a prefill graph
	// cannot fit on one device and must shard across blocks.
	cs := cluster.NewState()
	link := cluster.Link{Bandwidth: 25e9 / 8, RTT: time.Millisecond}
	spec := device.A100
	spec.MemBytes = 60 << 10
	for _, id := range []cluster.AcceleratorID{"a", "b", "c"} {
		if err := cs.AddAccelerator(&cluster.Accelerator{ID: id, Spec: spec, Link: link}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(14))
	m := models.NewGPT(rng, models.TinyGPT)
	b, _ := m.BuildPrefill([]int64{1, 2, 3})
	frontend.Annotate(b.Graph())

	plan, err := Schedule(b.Graph(), cs, SemanticsAware{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	report := ShardReport(plan)
	if len(report.PerDevice) < 2 {
		t.Fatalf("oversized model placed on %d device(s): %v", len(report.PerDevice), report.PerDevice)
	}
	if report.CutEdges == 0 || report.CutBytes == 0 {
		t.Fatalf("sharded plan reports no cut edges: %+v", report)
	}
	// Sharding follows topology: a block's nodes all share one device.
	byGroup := map[string]map[cluster.AcceleratorID]bool{}
	for _, n := range plan.Graph.Nodes() {
		if n.Op == "param" || n.Op == "input" || n.Module == "" {
			continue
		}
		gname := groupName(n.Module)
		if byGroup[gname] == nil {
			byGroup[gname] = map[cluster.AcceleratorID]bool{}
		}
		byGroup[gname][plan.DeviceOf(n.ID)] = true
	}
	for gname, devs := range byGroup {
		if len(devs) != 1 {
			t.Errorf("group %q split across %d devices", gname, len(devs))
		}
	}
}

func TestShardByMemoryFitsStaysHome(t *testing.T) {
	cs := pool(t, 3) // full-size A100s: TinyGPT easily fits
	rng := rand.New(rand.NewSource(15))
	m := models.NewGPT(rng, models.TinyGPT)
	b, _ := m.BuildPrefill([]int64{1, 2})
	frontend.Annotate(b.Graph())
	plan, err := Schedule(b.Graph(), cs, SemanticsAware{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ShardReport(plan).PerDevice) != 1 {
		t.Error("fitting model should not shard")
	}
}

func TestShardByMemoryPoolTooSmallErrors(t *testing.T) {
	cs := cluster.NewState()
	spec := device.A100
	spec.MemBytes = 4 << 10 // 4 KB per device: nothing fits
	for _, id := range []cluster.AcceleratorID{"a", "b"} {
		if err := cs.AddAccelerator(&cluster.Accelerator{ID: id, Spec: spec,
			Link: cluster.Link{Bandwidth: 1e9}}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(16))
	m := models.NewGPT(rng, models.TinyGPT)
	b, _ := m.BuildPrefill([]int64{1})
	frontend.Annotate(b.Graph())
	if _, err := Schedule(b.Graph(), cs, SemanticsAware{}, nil); err == nil {
		t.Error("undersized pool should fail loudly, not thrash")
	}
}

// transferBytes totals the wire bytes a plan implies: cross-device edges
// minus recomputed ones.
func transferBytes(plan *Plan) int64 {
	var total int64
	for _, e := range plan.CrossDeviceEdges() {
		if plan.Recompute[e.From] {
			continue
		}
		total += int64(float64(e.Meta.Bytes()) * rateOr1(e.Rate))
	}
	return total
}
