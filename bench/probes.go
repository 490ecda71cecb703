package main

import (
	"fmt"
	"math/rand"
	"time"

	"genie/internal/backend"
	"genie/internal/cluster"
	"genie/internal/device"
	"genie/internal/exec"
	"genie/internal/kvcache"
	"genie/internal/models"
	"genie/internal/nn"
	"genie/internal/pool"
	"genie/internal/quant"
	grt "genie/internal/runtime"
	"genie/internal/srg"
	"genie/internal/tensor"
	"genie/internal/tensor/ops"
	"genie/internal/transport"
)

// Replay probes: each layer's public entry point is timed
// single-threaded on the Execs the decorator captured. A captured
// request is replayed whole and in order on a scratch backend.Server
// straight after it was served, so every step finds the KV state its
// keys name and the probe shares the machine's speed of the moment with
// the request it explains.

const (
	maxStepSamples    = 64
	maxPrefillSamples = 8
	// stepsPerWindow decode steps of each captured request are probed,
	// spread evenly over its length (the KV append grows with history).
	stepsPerWindow = (maxStepSamples + captureRequests - 1) / captureRequests
)

// opKinds are the budget's backend rows.
var opKinds = []string{"matmul", "softmax", "layernorm", "gelu", "concat", "elementwise", "other"}

func opKind(op string) string {
	switch op {
	case "matmul", "matmul_t":
		return "matmul"
	case "softmax", "layernorm", "gelu", "concat":
		return op
	case "add", "sub", "mul", "scale":
		return "elementwise"
	}
	return "other"
}

// phaseCost is the probed cost of one decode step or one prompt phase:
// the sum over its Execs (a pool step has two).
type phaseCost struct {
	encode, decode time.Duration // EncodeExecPooled, DecodeExec
	reply          time.Duration // EncodeExecOK + DecodeExecOK
	frames         time.Duration // Conn.SendEnv + RecvEnv of both payloads on a pipe
	server         time.Duration // backend.Server.Exec
	graph          time.Duration // exec.GraphEphemeral
	nodes          time.Duration // sum of exec.Node
	ops            map[string]time.Duration
}

type phaseMedians struct {
	encode, decode, reply, frames, server, graph, nodes time.Duration
	ops                                                 map[string]time.Duration
}

func medians(costs []*phaseCost) phaseMedians {
	col := func(f func(*phaseCost) time.Duration) time.Duration {
		ds := make([]time.Duration, len(costs))
		for i, c := range costs {
			ds[i] = f(c)
		}
		return pct(ds, 0.5)
	}
	m := phaseMedians{
		encode: col(func(c *phaseCost) time.Duration { return c.encode }),
		decode: col(func(c *phaseCost) time.Duration { return c.decode }),
		reply:  col(func(c *phaseCost) time.Duration { return c.reply }),
		frames: col(func(c *phaseCost) time.Duration { return c.frames }),
		server: col(func(c *phaseCost) time.Duration { return c.server }),
		graph:  col(func(c *phaseCost) time.Duration { return c.graph }),
		nodes:  col(func(c *phaseCost) time.Duration { return c.nodes }),
		ops:    map[string]time.Duration{},
	}
	for _, k := range opKinds {
		m.ops[k] = col(func(c *phaseCost) time.Duration { return c.ops[k] })
	}
	return m
}

// installWeights puts every model parameter on a scratch server under
// its ref, as InstallModelWeights does over the wire.
func installWeights(srv *backend.Server, m *models.GPT) error {
	b, _ := m.BuildPrefill([]int64{0})
	for _, n := range b.Graph().Nodes() {
		if n.Op != "param" {
			continue
		}
		data, ok := b.ParamData(n.Ref)
		if !ok {
			return fmt.Errorf("bench: param %q has no data", n.Ref)
		}
		if _, err := srv.Upload(n.Ref, data); err != nil {
			return err
		}
	}
	return nil
}

// windowProbe collects the budget's parts in windows right after the
// captured requests of the serial pass.
type windowProbe struct {
	scratch   *backend.Server
	model     *models.GPT
	nilCaches []*nn.KVCache
	cli       *transport.Client
	frames    *framePipe
	reps      int
	consumed  int // captured Execs already replayed

	steps, prefills         []*phaseCost
	gaps, ttfts             []time.Duration // of the probed steps and prompt phases
	pings                   []time.Duration
	buildStep, buildPrefill []time.Duration
	graphNodes              int
}

func newWindowProbe(t *topology, toy bool) (*windowProbe, error) {
	p := &windowProbe{scratch: backend.NewServer(device.A100), model: t.runners[0].Model, cli: t.probe, reps: 8}
	if toy {
		p.reps = 2
	}
	p.nilCaches = make([]*nn.KVCache, p.model.Cfg.Layers)
	for i := range p.nilCaches {
		p.nilCaches[i] = &nn.KVCache{}
	}
	if err := installWeights(p.scratch, p.model); err != nil {
		return nil, err
	}
	// Decode steps run on the last backend (the split's decode side).
	p.frames = newFramePipe(t.nodes[len(t.nodes)-1].conn.Features())
	return p, nil
}

// framePipe times transport's framing — and, on a connection that
// negotiated wire features, its compression — with no socket under it:
// a payload is sent on one end of an in-process pipe carrying the same
// feature mask and received on the other.
type framePipe struct {
	client, server *transport.Conn
	got            chan error
}

func newFramePipe(features uint32) *framePipe {
	f := &framePipe{got: make(chan error)}
	f.client, f.server = transport.Pipe(nil, nil)
	f.client.SetFeatures(features)
	go func() {
		for {
			_, _, _, err := f.server.RecvEnv()
			f.got <- err
			if err != nil {
				return
			}
		}
	}()
	return f
}

// roundTrip is the time to send one payload and have it received.
func (f *framePipe) roundTrip(payload []byte) (time.Duration, error) {
	t0 := time.Now()
	if err := f.client.SendEnv(transport.MsgExec, transport.Envelope{}, payload); err != nil {
		return 0, err
	}
	err := <-f.got
	return time.Since(t0), err
}

// close ends the reader goroutine and waits for it.
func (f *framePipe) close() {
	_ = f.client.Close()
	<-f.got
	_ = f.server.Close()
}

// window replays the Execs captured for the request just served and
// times the other parts of its budget.
func (p *windowProbe) window(rec *recorder, res *result) error {
	rec.mu.Lock()
	captured := rec.captured[p.consumed:]
	p.consumed = len(rec.captured)
	rec.mu.Unlock()

	// Probe the prompt phase and an evenly spread sample of the decode
	// steps; every other Exec is only applied, to keep the KV state.
	nSteps := len(res.tokAt) - 1
	costs := map[int]*phaseCost{}
	if len(p.prefills) < maxPrefillSamples {
		costs[0] = &phaseCost{ops: map[string]time.Duration{}}
	}
	for j := 0; j < stepsPerWindow && j < nSteps && len(p.steps)+j < maxStepSamples; j++ {
		costs[1+j*nSteps/min(stepsPerWindow, nSteps)] = &phaseCost{ops: map[string]time.Duration{}}
	}
	for _, c := range captured {
		if err := probeExec(p.scratch, p.frames, c.x, costs[c.tok]); err != nil {
			return fmt.Errorf("bench: replay of %s exec (request %d, token %d): %w", c.kind, c.req, c.tok, err)
		}
	}
	for tok := 0; tok <= nSteps; tok++ {
		pc := costs[tok]
		switch {
		case pc == nil:
		case tok == 0:
			p.prefills = append(p.prefills, pc)
			p.ttfts = append(p.ttfts, res.ttft())
		default:
			p.steps = append(p.steps, pc)
			p.gaps = append(p.gaps, res.tokAt[tok].Sub(res.tokAt[tok-1]))
		}
	}

	// The pause before each ping lets the server's connection goroutine
	// park in the poller, as it does between the RPCs of a decode loop;
	// back-to-back pings find it spinning and read several times lower.
	for i := 0; i < p.reps; i++ {
		time.Sleep(250 * time.Microsecond)
		d, err := p.cli.Ping()
		if err != nil {
			return fmt.Errorf("bench: ping: %w", err)
		}
		p.pings = append(p.pings, d)
	}
	hist := len(res.req.prompt)
	for i := 0; i < p.reps; i++ {
		t0 := time.Now()
		b, _ := p.model.BuildDecodeStep(1, hist+i, hist+i, p.nilCaches)
		p.buildStep = append(p.buildStep, time.Since(t0))
		p.graphNodes = b.Graph().Len()
	}
	for i := 0; i < max(p.reps/4, 1); i++ {
		t0 := time.Now()
		p.model.BuildPrefill(res.req.prompt)
		p.buildPrefill = append(p.buildPrefill, time.Since(t0))
	}
	return nil
}

// report publishes the probed medians and ends the probe.
func (p *windowProbe) report(L *layerSet) error {
	p.frames.close()
	if len(p.steps) == 0 || len(p.prefills) == 0 {
		return fmt.Errorf("bench: no Execs captured for the replay probes")
	}
	step, pre := medians(p.steps), medians(p.prefills)
	L.set("lazy.build_step_us_p50", us(pct(p.buildStep, 0.5)), len(p.buildStep))
	L.set("lazy.build_prefill_us_p50", us(pct(p.buildPrefill, 0.5)), len(p.buildPrefill))
	L.set("lazy.step_graph_nodes", float64(p.graphNodes), 0)
	L.set("transport.ping_rtt_us_p50", us(pct(p.pings, 0.5)), len(p.pings))
	L.set("transport.encode_exec_step_us_p50", us(step.encode), len(p.steps))
	L.set("transport.decode_exec_step_us_p50", us(step.decode), len(p.steps))
	L.set("backend.exec_step_us_p50", us(step.server), len(p.steps))
	L.set("backend.exec_prefill_ms_p50", ms(pre.server), len(p.prefills))
	L.set("exec.interp_overhead_us_per_step", us(step.graph-step.nodes), len(p.steps))
	for _, k := range opKinds {
		L.set("exec.op_us_per_step."+k, us(step.ops[k]), len(p.steps))
	}
	L.set("exec.op_ms_per_prefill.matmul", ms(pre.ops["matmul"]), len(p.prefills))
	L.set("exec.op_ms_per_prefill.softmax", ms(pre.ops["softmax"]), len(p.prefills))
	return nil
}

// probeExec times one captured Exec through each layer's entry point
// and then applies it to the scratch server, advancing its KV state.
// With a nil pc it only applies it.
func probeExec(scratch *backend.Server, frames *framePipe, x *transport.Exec, pc *phaseCost) error {
	if pc == nil {
		_, err := scratch.Exec(x)
		return err
	}
	t0 := time.Now()
	payload, err := transport.EncodeExecPooled(wireForm(x, frames.client.Features()))
	if err != nil {
		return err
	}
	pc.encode += time.Since(t0)
	t0 = time.Now()
	_, err = transport.DecodeExec(payload)
	pc.decode += time.Since(t0)
	if err == nil {
		var d time.Duration
		d, err = frames.roundTrip(payload)
		pc.frames += d
	}
	transport.ReleaseEncoded(payload)
	if err != nil {
		return err
	}

	binds := make(map[string]*transport.Binding, len(x.Binds))
	for i := range x.Binds {
		binds[x.Binds[i].Ref] = &x.Binds[i]
	}
	bind := func(_, ref string) (*tensor.Tensor, error) {
		b, ok := binds[ref]
		if !ok {
			return scratch.Lookup(ref, 0)
		}
		if b.Inline != nil {
			return b.Inline, nil
		}
		return scratch.Lookup(b.Key, 0)
	}

	// Node by node: per-op-kind kernel time. The first walk is untimed:
	// it leaves its buffers in the scratch arena, so the timed one
	// recycles them as the interpreter's lifetime tracking would.
	if err := walkNodes(x.Graph, bind, nil); err != nil {
		return err
	}
	if err := walkNodes(x.Graph, bind, pc); err != nil {
		return err
	}
	g := x.Graph

	need := make(map[srg.NodeID]bool, len(x.Keep)+len(x.Want))
	for id := range x.Keep {
		need[id] = true
	}
	for _, id := range x.Want {
		need[id] = true
	}
	t0 = time.Now()
	if _, err := exec.GraphEphemeral(g, bind, need); err != nil {
		return err
	}
	pc.graph += time.Since(t0)

	t0 = time.Now()
	ok, err := scratch.Exec(x)
	if err != nil {
		return err
	}
	pc.server += time.Since(t0)
	t0 = time.Now()
	reply := transport.EncodeExecOK(ok)
	_, err = transport.DecodeExecOK(reply)
	pc.reply += time.Since(t0)
	if err != nil {
		return err
	}
	d, err := frames.roundTrip(reply)
	pc.frames += d
	return err
}

// wireForm is the Exec as a connection with the dedup feature sends it
// once the server has seen its cache-hinted tensors (the steady state of
// a shared prefix): each travels as a 32-byte content hash, which the
// client computes per call.
func wireForm(x *transport.Exec, features uint32) *transport.Exec {
	if features&transport.FeatDedup == 0 {
		return x
	}
	w := *x
	w.Binds = make([]transport.Binding, len(x.Binds))
	for i, b := range x.Binds {
		if b.Cache && b.Inline != nil {
			b.Hash, b.Inline, b.Cache = transport.ContentHash(b.Inline), nil, false
		}
		w.Binds[i] = b
	}
	return &w
}

// walkNodes evaluates g one exec.Node at a time, adding each node's
// time to pc by op kind (pc may be nil), then releases every value the
// interpreter would have released: not leaves, and nothing on either
// side of a reshape, which shares its input's backing store.
func walkNodes(g *srg.Graph, bind exec.Binder, pc *phaseCost) error {
	n := g.Len()
	vals := make([]*tensor.Tensor, n)
	pinned := make([]bool, n)
	for id := 0; id < n; id++ {
		nd := g.Node(srg.NodeID(id))
		if nd.Op == "param" || nd.Op == "input" {
			t, err := bind(nd.Op, nd.Ref)
			if err != nil {
				return err
			}
			vals[id], pinned[id] = t, true
			continue
		}
		in := make([]*tensor.Tensor, len(nd.Inputs))
		for i, dep := range nd.Inputs {
			in[i] = vals[dep]
			if nd.Op == "reshape" {
				pinned[dep] = true
			}
		}
		pinned[id] = nd.Op == "reshape"
		t0 := time.Now()
		t, err := exec.Node(nd, in)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		vals[id] = t
		if pc != nil {
			pc.nodes += d
			pc.ops[opKind(nd.Op)] += d
		}
	}
	for id, t := range vals {
		if !pinned[id] {
			t.Release()
		}
	}
	return nil
}

// timeReps is the median wall time of reps calls.
func timeReps(reps int, fn func() error) (time.Duration, error) {
	ds := make([]time.Duration, reps)
	for i := range ds {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(t0)
	}
	return pct(ds, 0.5), nil
}

func randF32(rng *rand.Rand, rows, cols int) *tensor.Tensor {
	v := make([]float32, rows*cols)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return tensor.FromF32(tensor.Shape{rows, cols}, v)
}

// staticProbes time entry points that need neither the engine nor a
// captured Exec.
func staticProbes(t *topology, served []*result, L *layerSet, sc scale) error {
	w := t.w
	model := t.runners[0].Model
	reps := func(n int) int {
		if sc.toy {
			return max(n/10, 3)
		}
		return n
	}

	// tensor/ops: the GEMM shapes a mid decode step and prefill are made
	// of. FLOPs and bytes are computed from the tensor sizes, not
	// measured, and no roofline share is claimed on a CPU run.
	const k, n = 128, 512
	rng := rand.New(rand.NewSource(weightSeed))
	b := randF32(rng, k, n)
	for _, mm := range []struct {
		m    int
		name string
		unit func(time.Duration) float64
		reps int
	}{{1, "ops.matmul_m1_us", us, 200}, {8, "ops.matmul_m8_us", us, 100}, {160, "ops.matmul_m160_ms", ms, 10}} {
		a := randF32(rng, mm.m, k)
		d, err := timeReps(reps(mm.reps), func() error {
			out, err := ops.MatMul(a, b)
			if err == nil {
				out.Release()
			}
			return err
		})
		if err != nil {
			return err
		}
		L.set(mm.name, mm.unit(d), reps(mm.reps))
	}
	L.set("ops.matmul_m1_flops", float64(2*1*k*n), 0)
	L.set("ops.matmul_m1_bytes", float64(4*(1*k+k*n+1*n)), 0)
	qb, err := quant.QuantizeLinear(b, 1)
	if err != nil {
		return err
	}
	a1 := randF32(rng, 1, k)
	d, err := timeReps(reps(200), func() error {
		out, err := ops.MatMul(a1, qb)
		if err == nil {
			out.Release()
		}
		return err
	})
	if err != nil {
		return err
	}
	L.set("quant.gemv_int8_m1_us", us(d), reps(200))

	if err := modeSweep(L); err != nil {
		return err
	}

	if t.pool != nil {
		var members []pool.Candidate
		for _, nd := range t.nodes {
			members = append(members, pool.Candidate{Name: nd.name, Spec: device.A100, Link: cluster.Link{Bandwidth: 3.125e9}})
		}
		d, err := timeReps(reps(50), func() error {
			_, err := pool.BuildPlan(model, members, pool.StrategyPipeline, 1)
			return err
		})
		if err != nil {
			return err
		}
		L.set("pool.plan_build_us_p50", us(d), reps(50))
		L.set("pool.segment_rpc_per_step", L.get("runtime.rpc_per_step"), 0)
	}

	if t.cache != nil {
		if err := cacheProbe(w, model, served, L); err != nil {
			return err
		}
	}
	return nil
}

// cacheProbe times Manager.Lookup and Insert directly on a fresh
// manager that the workload's own prompts fill: on prefix_shared the
// lookups hit and gather, on prefix_churn the inserts evict.
func cacheProbe(w *workload, model *models.GPT, served []*result, L *layerSet) error {
	mgr, err := kvcache.NewManager(kvcache.Config{Model: model, BudgetBytes: w.cacheBytes, PageTokens: w.pageTokens})
	if err != nil {
		return err
	}
	var lookups, inserts []time.Duration
	for _, r := range served {
		prompt := r.req.prompt
		t0 := time.Now()
		pin, _, release, matched, err := mgr.Lookup(prompt)
		lookups = append(lookups, time.Since(t0))
		if err != nil {
			return err
		}
		rows := len(prompt) - matched
		newK := make([]*tensor.Tensor, model.Cfg.Layers)
		newV := make([]*tensor.Tensor, model.Cfg.Layers)
		for i := range newK {
			newK[i] = tensor.New(tensor.F32, rows, model.Cfg.Dim)
			newV[i] = tensor.New(tensor.F32, rows, model.Cfg.Dim)
		}
		t0 = time.Now()
		ipin, err := mgr.Insert(prompt, matched, newK, newV)
		inserts = append(inserts, time.Since(t0))
		release()
		pin.Unpin()
		if err != nil {
			return err
		}
		ipin.Unpin()
	}
	L.set("kvcache.lookup_us_p50", us(pct(lookups, 0.5)), len(lookups))
	L.set("kvcache.insert_us_p50", us(pct(inserts, 0.5)), len(inserts))
	return nil
}

// modeSweep runs 8 fixed requests on the tiny model in the paper's
// three remote modes over loopback TCP and reports bytes and RPCs per
// output token. The paper's ordering must hold on bytes: naive > delta
// KV > semantics-aware.
func modeSweep(L *layerSet) error {
	const requests, promptLen, steps = 8, 8, 12
	rng := rand.New(rand.NewSource(weightSeed))
	prompts := make([][]int64, requests)
	for i := range prompts {
		prompts[i] = make([]int64, promptLen)
		for j := range prompts[i] {
			prompts[i][j] = rng.Int63n(int64(models.TinyGPT.Vocab))
		}
	}
	bytesPerTok := map[string]float64{}
	for _, m := range []struct {
		mode grt.Mode
		name string
	}{{grt.ModeNaive, "naive"}, {grt.ModeDeltaKV, "delta_kv"}, {grt.ModeSemAware, "sem"}} {
		n, err := startNode("sweep", nil, nil, false)
		if err != nil {
			return err
		}
		r := &grt.LLMRunner{Model: newModel(models.TinyGPT), EP: n.cli}
		if m.mode != grt.ModeNaive {
			if _, err := r.InstallModelWeights(); err != nil {
				n.stop()
				return err
			}
		}
		s0, r0, c0 := n.conn.Counters().Snapshot()
		for _, p := range prompts {
			if _, err := r.Generate(m.mode, p, steps); err != nil {
				n.stop()
				return fmt.Errorf("bench: mode sweep %s: %w", m.name, err)
			}
		}
		s1, r1, c1 := n.conn.Counters().Snapshot()
		n.stop()
		tokens := float64(requests * steps)
		bytesPerTok[m.name] = float64(s1-s0+r1-r0) / tokens
		L.set("runtime."+m.name+".bytes_per_tok", bytesPerTok[m.name], 0)
		L.set("runtime."+m.name+".rpc_per_tok", float64(c1-c0)/tokens, 0)
	}
	if !(bytesPerTok["naive"] > bytesPerTok["delta_kv"] && bytesPerTok["delta_kv"] > bytesPerTok["sem"]) {
		return fmt.Errorf("bench: mode sweep lost the paper's ordering naive > delta_kv > sem: %v", bytesPerTok)
	}
	return nil
}

// budget is one workload's token budget — this repo's Table 3: a decode
// step and a prompt phase split layer by layer, in microseconds and as
// shares of the measured whole.
type budget struct {
	StepUs             float64     `json:"step_us"`
	Step               []budgetRow `json:"step"`
	StepUnattributedUs float64     `json:"step_unattributed_us"`
	PrefillUs          float64     `json:"prefill_us"`
	Prefill            []budgetRow `json:"prefill"`
	CrossChecks        []budgetRow `json:"cross_checks"`
	Burst              *burstStats `json:"burst,omitempty"`
	// GCCPUShare is the Go collector's share of the process's CPU time
	// over the serial pass. The probes run with little garbage and
	// report medians, so most of it lands in "unattributed"; it is
	// shown beside the budget, not subtracted from it.
	GCCPUShare float64      `json:"gc_cpu_share"`
	Samples    budgetCounts `json:"samples"`
}

type budgetRow struct {
	Part  string  `json:"part"`
	Us    float64 `json:"us"`
	Share float64 `json:"share"`
}

type budgetCounts struct {
	Steps    int `json:"replayed_steps"`
	Prefills int `json:"replayed_prefills"`
}

// buildBudget assembles the rows from independently measured parts;
// what they do not explain is printed as unattributed, never hidden.
// The whole (a token gap, a TTFT) and the probed parts come from the
// same windows of the serial pass; the engine row is the difference of
// two medians taken over the whole pass on alternating requests.
func buildBudget(w *workload, L *layerSet, st *serialStats, burst *burstStats) *budget {
	p := st.probe
	step, pre := medians(p.steps), medians(p.prefills)
	b := &budget{StepUs: us(pct(p.gaps, 0.5)), PrefillUs: us(pct(p.ttfts, 0.5)), Burst: burst,
		Samples: budgetCounts{Steps: len(p.steps), Prefills: len(p.prefills)}}
	ping := L.get("transport.ping_rtt_us_p50")

	rows := func(total float64, parts []budgetRow) ([]budgetRow, float64) {
		sum := 0.0
		for i := range parts {
			sum += parts[i].Us
		}
		un := total - sum
		parts = append(parts, budgetRow{Part: "unattributed", Us: un})
		for i := range parts {
			parts[i].Share = parts[i].Us / total
		}
		return parts, un
	}
	backendRows := func(m phaseMedians) []budgetRow {
		var out []budgetRow
		for _, k := range opKinds {
			out = append(out, budgetRow{Part: "backend exec: " + k, Us: us(m.ops[k])})
		}
		return append(out,
			budgetRow{Part: "backend exec: interpreter (GraphEphemeral - sum of nodes)", Us: us(m.graph - m.nodes)},
			budgetRow{Part: "backend: bind, keep, fingerprint (Server.Exec - GraphEphemeral)", Us: us(m.server - m.graph)})
	}

	stepRows := []budgetRow{
		{Part: "serve: engine + lane (token gap - Session.Step direct)", Us: L.get("serve.engine_overhead_us_per_step")},
		{Part: "lazy/models: graph build (BuildDecodeStep)", Us: L.get("lazy.build_step_us_p50")},
		{Part: "transport/srg: encode exec", Us: us(step.encode)},
		{Part: "transport: wire floor (ping RTT x RPCs per step)", Us: ping * st.rpcPerStep},
		{Part: "transport/srg: decode exec (server side)", Us: us(step.decode)},
		{Part: "transport: encode + decode reply", Us: us(step.reply)},
		{Part: "transport: frame + compress both payloads (SendEnv/RecvEnv on a pipe)", Us: us(step.frames)},
	}
	b.Step, b.StepUnattributedUs = rows(b.StepUs, append(stepRows, backendRows(step)...))

	preRows := []budgetRow{
		{Part: "serve: queue + engine + lane (TTFT - Session.Prefill direct)", Us: 1000 * (st.ttftUntracedMs - st.directPreMs)},
		{Part: "lazy/models: graph build (BuildPrefill)", Us: L.get("lazy.build_prefill_us_p50")},
		{Part: "transport/srg: encode exec", Us: us(pre.encode)},
		{Part: "transport: wire floor (ping RTT x RPCs per prefill)", Us: ping * st.rpcPerPrefill},
		{Part: "transport/srg: decode exec (server side)", Us: us(pre.decode)},
		{Part: "transport: encode + decode reply", Us: us(pre.reply)},
		{Part: "transport: frame + compress both payloads (SendEnv/RecvEnv on a pipe)", Us: us(pre.frames)},
	}
	if w.topo == topoSplit {
		preRows = append(preRows, budgetRow{Part: "kvcache: lookup + insert", Us: L.get("kvcache.lookup_us_p50") + L.get("kvcache.insert_us_p50")})
	}
	b.Prefill, _ = rows(b.PrefillUs, append(preRows, backendRows(pre)...))

	wire := L.get("transport.wire_us_per_step")
	b.CrossChecks = []budgetRow{
		{Part: "client side of a step (gap - endpoint RPC time)", Us: st.clientStepUs},
		{Part: "endpoint RPC time of a step", Us: st.rpcStepUs},
		{Part: "wire of a step (RPC - backend.Server.Exec)", Us: wire},
		{Part: "backend.Server.Exec of a step", Us: us(step.server)},
	}
	whole := st.clientStepUs + st.rpcStepUs
	for i := range b.CrossChecks {
		b.CrossChecks[i].Share = b.CrossChecks[i].Us / whole
	}
	return b
}

func (b *budget) print() {
	table := func(title string, total float64, rows []budgetRow) {
		fmt.Printf(" %s: %.1f us\n", title, total)
		for _, r := range rows {
			fmt.Printf("   %-70s %10.1f us %6.1f %%\n", r.Part, r.Us, 100*r.Share)
		}
	}
	fmt.Printf(" token budget (serial pass; medians; %d replayed steps, %d replayed prefills)\n",
		b.Samples.Steps, b.Samples.Prefills)
	table("one decode step (token gap)", b.StepUs, b.Step)
	table("one prompt phase (TTFT)", b.PrefillUs, b.Prefill)
	fmt.Printf(" Go GC used %.1f %% of the process's CPU over the serial pass (not subtracted; the probes see little of it)\n", 100*b.GCCPUShare)
	fmt.Println(" cross-checks from the boundary spans:")
	for _, r := range b.CrossChecks {
		fmt.Printf("   %-70s %10.1f us %6.1f %%\n", r.Part, r.Us, 100*r.Share)
	}
	if b.Burst != nil {
		fmt.Printf(" occupancy-%d burst, per lane iteration (%d iterations): %.1f us = %.1f us RPC + %.1f us client side; per step %.1f us, client side %.1f us\n",
			b.Burst.Occupancy, b.Burst.Iterations, b.Burst.IterationUs, b.Burst.RPCUs, b.Burst.ClientSideUs,
			b.Burst.PerStepUs, b.Burst.ClientSidePerStep)
	}
}
