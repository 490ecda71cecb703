package main

import (
	"context"
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"time"

	"genie/internal/compute"
	"genie/internal/health"
	"genie/internal/kvcache"
	grt "genie/internal/runtime"
	"genie/internal/transport"
)

// perLayer are the metrics of single layers (this repo's packages), all
// from the traced run. "count" metrics are exact and repeat; the rest
// are timings. A metric that does not apply to a workload (kvcache.* on
// decode_rpc, say) is reported as 0 and marked n/a.
var perLayer = []metricDef{
	// serve
	{"serve.mean_occupancy", "count", "higher", 0, "Engine.Stats().MeanOccupancy after the shaped pass (cumulative since engine start)", false},
	{"serve.max_occupancy", "count", "higher", 0, "Engine.Stats().MaxOccupancy", false},
	{"serve.shed", "count", "lower", 0, "requests rejected at admission", false},
	{"serve.requeued", "count", "lower", 0, "backend-loss re-queues", false},
	{"serve.failed", "count", "lower", 0, "requests failed by the engine", false},
	{"serve.queue_depth_mean", "count", "lower", 0, "Stats().Queued polled at 20 Hz over the shaped pass", false},
	{"serve.queue_depth_max", "count", "lower", 0, "same, maximum", false},
	{"serve.http_overhead_us_p50", "us", "lower", 0, "chat_open: streamed TTFT from the send minus the ttft_ms the handler reports", false},
	{"serve.client_side_us_per_step", "us", "lower", 0, "serial pass: token gap minus endpoint-RPC time (lane loop + session + graph build + emit)", false},
	{"serve.engine_overhead_us_per_step", "us", "lower", 0, "token gap through Engine.Submit minus Session.Step driven directly", false},
	{"serve.itl_ms_p99", "ms", "lower", 0, "diagnostic: 40 % run-to-run spread on chat_open", false},
	// runtime
	{"runtime.step_us_p50", "us", "lower", 0, "Session.Step on the workload's runner, no engine", false},
	{"runtime.prefill_ms_p50", "ms", "lower", 0, "Session.Prefill on the workload's runner, no engine", false},
	{"runtime.rpc_per_step", "count", "lower", 0, "endpoint calls per decode step", false},
	{"runtime.rpc_per_prefill", "count", "lower", 0, "endpoint calls per prompt phase", false},
	{"runtime.naive.bytes_per_tok", "B/tok", "lower", 0, "mode sweep on tiny, 8 fixed requests", false},
	{"runtime.naive.rpc_per_tok", "calls/tok", "lower", 0, "", false},
	{"runtime.delta_kv.bytes_per_tok", "B/tok", "lower", 0, "", false},
	{"runtime.delta_kv.rpc_per_tok", "calls/tok", "lower", 0, "", false},
	{"runtime.sem.bytes_per_tok", "B/tok", "lower", 0, "", false},
	{"runtime.sem.rpc_per_tok", "calls/tok", "lower", 0, "", false},
	// lazy (+ models, nn)
	{"lazy.build_step_us_p50", "us", "lower", 0, "GPT.BuildDecodeStep", false},
	{"lazy.build_prefill_us_p50", "us", "lower", 0, "GPT.BuildPrefill on a workload prompt", false},
	{"lazy.step_graph_nodes", "count", "lower", 0, "nodes in one decode-step graph", false},
	// transport (+ srg encode)
	{"transport.encode_exec_step_us_p50", "us", "lower", 0, "EncodeExecPooled on the captured step Execs", false},
	{"transport.decode_exec_step_us_p50", "us", "lower", 0, "DecodeExec on their payloads", false},
	{"transport.exec_frame_bytes_step", "bytes", "lower", 0, "request frame bytes of one decode step", false},
	{"transport.exec_frame_bytes_prefill", "bytes", "lower", 0, "request frame bytes of one prompt phase", false},
	{"transport.ping_rtt_us_p50", "us", "lower", 0, "Client.Ping: the wire floor", false},
	{"transport.rpc_step_us_p50", "us", "lower", 0, "endpoint decorator: RPC time of one decode step", false},
	{"transport.rpc_prefill_ms_p50", "ms", "lower", 0, "endpoint decorator: RPC time of one prompt phase", false},
	{"transport.rpc_upload_us_p50", "us", "lower", 0, "endpoint decorator: one weight upload", false},
	{"transport.wire_us_per_step", "us", "lower", 0, "rpc_step - backend.exec_step: framing + syscalls + both encodes and decodes", false},
	{"transport.bytes_sent_per_tok", "B/tok", "lower", 0, "client-side Counters over the shaped pass", false},
	{"transport.bytes_recv_per_tok", "B/tok", "lower", 0, "", false},
	{"transport.upload_ref_share", "share", "higher", 0, "Telemetry.Calls(MsgUploadRef) / all uploads", false},
	// backend / exec
	{"backend.exec_step_us_p50", "us", "lower", 0, "captured step Execs replayed through backend.Server.Exec on a scratch server, no wire", false},
	{"backend.exec_prefill_ms_p50", "ms", "lower", 0, "same for the prompt phase", false},
	{"backend.resident_bytes_peak", "bytes", "lower", 0, "sum of Server.Stats().ResidentBytes polled at 20 Hz", false},
	{"exec.interp_overhead_us_per_step", "us", "lower", 0, "exec.GraphEphemeral total minus the sum of exec.Node", false},
	{"exec.op_us_per_step.matmul", "us", "lower", 0, "matmul + matmul_t, node-by-node walk of the captured graph", false},
	{"exec.op_us_per_step.softmax", "us", "lower", 0, "", false},
	{"exec.op_us_per_step.layernorm", "us", "lower", 0, "", false},
	{"exec.op_us_per_step.gelu", "us", "lower", 0, "", false},
	{"exec.op_us_per_step.concat", "us", "lower", 0, "the KV append copy", false},
	{"exec.op_us_per_step.elementwise", "us", "lower", 0, "add, sub, mul, scale", false},
	{"exec.op_us_per_step.other", "us", "lower", 0, "", false},
	{"exec.op_ms_per_prefill.matmul", "ms", "lower", 0, "", false},
	{"exec.op_ms_per_prefill.softmax", "ms", "lower", 0, "", false},
	// tensor/ops (+ compute, quant)
	{"ops.matmul_m1_us", "us", "lower", 0, "ops.MatMul [1x128].[128x512]", false},
	{"ops.matmul_m8_us", "us", "lower", 0, "[8x128].[128x512]", false},
	{"ops.matmul_m160_ms", "ms", "lower", 0, "[160x128].[128x512]", false},
	{"ops.matmul_m1_flops", "flops", "lower", 0, "operation count, from tensor sizes", false},
	{"ops.matmul_m1_bytes", "bytes", "lower", 0, "computed bytes moved, from tensor sizes (not measured)", false},
	{"quant.gemv_int8_m1_us", "us", "lower", 0, "ops.MatMul on a per-column int8 weight at m=1", false},
	{"compute.workers", "count", "higher", 0, "compute.Workers(), recorded", false},
	// kvcache
	{"kvcache.hit_ratio", "share", "higher", 0, "Manager.Snapshot() over the shaped pass", false},
	{"kvcache.hit_token_share", "share", "higher", 0, "BytesSaved / (prompt tokens x KVBytesPerToken)", false},
	{"kvcache.evictions_per_req", "count", "lower", 0, "", false},
	{"kvcache.resident_over_budget", "share", "lower", 0, "ResidentBytes / BudgetBytes after the shaped pass", false},
	{"kvcache.lookup_us_p50", "us", "lower", 0, "Manager.Lookup on a manager filled with the workload's prompts (includes the gather copy)", false},
	{"kvcache.insert_us_p50", "us", "lower", 0, "Manager.Insert on the same", false},
	{"kvcache.delta_bytes_per_req", "bytes", "lower", 0, "Split.DeltaBytes per request", false},
	{"kvcache.suffix_tokens_per_req", "count", "lower", 0, "Split.DeltaTokens per request", false},
	// pool
	{"pool.cross_shard_bytes_per_tok", "B/tok", "lower", 0, "Status().CrossShardBytes", false},
	{"pool.segment_rpc_per_step", "count", "lower", 0, "segment Execs per decode step", false},
	{"pool.plan_build_us_p50", "us", "lower", 0, "pool.BuildPlan", false},
	{"pool.member_busy_share_max", "share", "lower", 0, "sum of RPC time on the busiest member / wall", false},
	{"pool.member_busy_share_min", "share", "lower", 0, "", false},
	// health
	{"health.non_healthy_polls", "count", "lower", 0, "Set.Snapshot() polls at 20 Hz showing an endpoint not healthy; expected 0", false},
	// process / harness
	{"proc.allocs_per_tok", "count", "lower", 0, "MemStats.Mallocs over the shaped pass / output tokens", false},
	{"proc.gc_cycles", "count", "lower", 0, "", false},
	{"proc.gc_pause_ms_total", "ms", "lower", 0, "", false},
	{"proc.goroutines_peak", "count", "lower", 0, "", false},
	{"bench.gen_late_ms_p99", "ms", "lower", 0, "how late the open-loop dispatcher fired; flag > 5 ms", false},
	{"bench.trace_overhead_share", "share", "lower", 0, "1 - traced/untraced tok/s on alternate requests of the serial pass", false},
	{"bench.unattributed_us_per_step", "us", "lower", 0, "token gap minus the sum of attributed parts", false},
}

// layerSet collects the per-layer values of one traced run.
type layerSet struct {
	vals map[string]metric
}

func (l *layerSet) set(name string, v float64, n int) {
	unit := unitOf(name)
	if unit == "" {
		panic("bench: per-layer metric not in the catalog: " + name)
	}
	l.vals[name] = metric{Name: name, Value: v, Unit: unit, N: n}
}

func (l *layerSet) get(name string) float64 { return l.vals[name].Value }

// list renders the catalog in order; metrics never set are n/a.
func (l *layerSet) list() []metric {
	catalog := tracedCatalog()
	out := make([]metric, 0, len(catalog))
	for _, d := range catalog {
		m, ok := l.vals[d.name]
		if !ok {
			m = metric{Name: d.name, Unit: d.unit, NA: true}
		}
		out = append(out, m)
	}
	return out
}

// pollers samples gauges the program exposes at 20 Hz over a phase.
type pollers struct {
	ticker *ticker

	polls, queueSum, queueMax int
	nonHealthy                int
	residentPeak              int64
}

func startPollers(t *topology) *pollers {
	p := &pollers{}
	p.ticker = every(50*time.Millisecond, func() { p.poll(t) })
	return p
}

func (p *pollers) poll(t *topology) {
	p.polls++
	q := t.engine.Stats().Queued
	p.queueSum += q
	if q > p.queueMax {
		p.queueMax = q
	}
	if t.hs != nil {
		for _, eh := range t.hs.Snapshot() {
			if eh.State != health.Healthy.String() {
				p.nonHealthy++
				break
			}
		}
	}
	var resident int64
	for _, n := range t.nodes {
		resident += n.srv.Stats().ResidentBytes
	}
	if resident > p.residentPeak {
		p.residentPeak = resident
	}
}

// runTraced is the per-layer run. It observes the program purely from
// outside: spans around the endpoint calls (trace.go), gauges the
// program already exposes, and probes that time each layer's public
// entry point (probes.go). It has three parts:
//
//  1. a shaped pass — the workload's own load shape at a quarter of its
//     length, with the decorator and the pollers on: the counts;
//  2. a serial pass — one client, one request at a time, so every RPC
//     between a request's submit and completion belongs to it; traced,
//     untraced and engine-less requests alternate, and the Execs of a
//     tenth of the traced ones are replayed layer by layer straight
//     after the request, so the budget's parts are neighbours in time;
//  3. static probes that need neither the engine nor a captured Exec.
func runTraced(ctx context.Context, w *workload, seed int64, sc scale) (*runResult, error) {
	rec := newRecorder()
	t, warm, err := setUp(ctx, w, seed, rec)
	if err != nil {
		return nil, err
	}
	defer t.close()
	out := &runResult{Workload: w.name, Seed: seed, Trace: true, Warmup: warm}
	L := &layerSet{vals: map[string]metric{}}

	n := w.requests
	if !sc.toy {
		n /= 4
		if w.shape == shapeBatch {
			n = max(n/w.burst, 1) * w.burst
		}
	}
	out.Requests = 2 * n

	shaped := shapedPass(ctx, t, rec, genRequests(w, seed, streamTimed, n), L, sc)
	gc0, cpu0 := gcCPU()
	serial, err := serialPass(ctx, t, rec, genRequests(w, seed, streamSerial, n), sc.toy)
	if err != nil {
		return out, err
	}
	gc1, cpu1 := gcCPU()
	all := append(append([]*result(nil), shaped...), serial.results...)
	var burst *burstStats
	if w.shape == shapeBatch {
		var bres []*result
		burst, bres = burstPass(ctx, t, rec, genRequests(w, seed, streamProbe, maxBatch))
		all = append(all, bres...)
		out.Requests += len(bres)
	}
	out.Timed = tallyOf(all)
	out.FirstError = firstError(all)
	out.TokensSHA256 = tokensHash(all)
	out.ParityChecks, out.ParityFails = checkParity(w, all, sc.parity)
	if out.Timed.OK != out.Timed.Sent {
		return out, fmt.Errorf("bench: traced %s: %d of %d requests failed: %s",
			w.name, out.Timed.Sent-out.Timed.OK, out.Timed.Sent, out.FirstError)
	}
	L.set("fail_share", float64(out.failed())/float64(out.Timed.Sent), 0)

	serial.analyze(rec, L)
	if err := serial.probe.report(L); err != nil {
		return out, err
	}
	L.set("transport.wire_us_per_step", L.get("transport.rpc_step_us_p50")-L.get("backend.exec_step_us_p50"), 0)

	// The remaining probes need no engine and no captured Exec.
	t.stopEngine(ctx)
	rec.on.Store(false)
	rec.setPhase("probe")
	if err := staticProbes(t, serial.results, L, sc); err != nil {
		return out, err
	}

	out.Budget = buildBudget(w, L, serial, burst)
	if cpu1 > cpu0 {
		out.Budget.GCCPUShare = (gc1 - gc0) / (cpu1 - cpu0)
	}
	L.set("bench.unattributed_us_per_step", out.Budget.StepUnattributedUs, 0)
	out.Metrics = L.list()
	if sc.spansOut != "" {
		if err := rec.writeSpans(sc.spansOut); err != nil {
			return out, err
		}
	}
	return out, nil
}

// gcCPU reads the Go runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	samples := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/user:cpu-seconds"},
	}
	rtmetrics.Read(samples)
	if samples[0].Value.Kind() != rtmetrics.KindFloat64 || samples[1].Value.Kind() != rtmetrics.KindFloat64 {
		return 0, 0
	}
	gc = samples[0].Value.Float64()
	return gc, gc + samples[1].Value.Float64()
}

// shapedPass runs the workload's own shape with the decorator and the
// pollers on, and reads the counts each layer exposes.
func shapedPass(ctx context.Context, t *topology, rec *recorder, reqs []request, L *layerSet, sc scale) []*result {
	w := t.w
	rec.setPhase("shaped")
	st0 := t.engine.Stats()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	s0, r0, _ := t.counters()
	var c0 kvcache.Stats
	var delta0, dtok0, cross0 int64
	if t.cache != nil {
		c0 = t.cache.Snapshot()
		delta0, dtok0 = t.split.DeltaBytes(), t.split.DeltaTokens()
	}
	if t.pool != nil {
		cross0 = t.pool.Status().CrossShardBytes
	}
	poll := startPollers(t)
	sampler := startProcSampler()
	cpu0 := cpuTime()
	results, wall := t.drive(ctx, reqs)
	cpu := cpuTime() - cpu0
	sampler.ticker.finish()
	poll.ticker.finish()
	s1, r1, _ := t.counters()
	runtime.ReadMemStats(&m1)
	st1 := t.engine.Stats()

	lat := latenciesOf(results)
	tokens := float64(max(lat.tokens, 1))
	sent := float64(max(tallyOf(results).Sent, 1))

	L.set("serve.mean_occupancy", st1.MeanOccupancy, 0)
	L.set("serve.max_occupancy", float64(st1.MaxOccupancy), 0)
	L.set("serve.shed", float64(st1.Shed-st0.Shed), 0)
	L.set("serve.requeued", float64(st1.Requeued-st0.Requeued), 0)
	L.set("serve.failed", float64(st1.Failed-st0.Failed), 0)
	L.set("serve.queue_depth_mean", float64(poll.queueSum)/float64(poll.polls), poll.polls)
	L.set("serve.queue_depth_max", float64(poll.queueMax), poll.polls)
	L.set("serve.itl_ms_p99", ms(pct(lat.itl, 0.99)), len(lat.itl))
	for _, m := range timingMetrics(w, results, wall, cpu) {
		L.set(m.Name, m.Value, m.N)
	}
	if w.http {
		var over []time.Duration
		for _, r := range results {
			if r.outcome == outcomeOK {
				handler := time.Duration(r.handlerTTFTMs * float64(time.Millisecond))
				over = append(over, r.ttft()-r.late-handler)
			}
		}
		L.set("serve.http_overhead_us_p50", us(pct(over, 0.5)), len(over))
	}
	L.set("transport.bytes_sent_per_tok", float64(s1-s0)/tokens, 0)
	L.set("transport.bytes_recv_per_tok", float64(r1-r0)/tokens, 0)
	uploads := t.tel.Calls(transport.MsgUpload) + t.tel.Calls(transport.MsgUploadRef) + t.tel.Calls(transport.MsgUploadDelta)
	if uploads > 0 {
		L.set("transport.upload_ref_share", float64(t.tel.Calls(transport.MsgUploadRef))/float64(uploads), 0)
	}
	L.set("backend.resident_bytes_peak", float64(poll.residentPeak), poll.polls)
	L.set("health.non_healthy_polls", float64(poll.nonHealthy), poll.polls)
	L.set("proc.allocs_per_tok", float64(m1.Mallocs-m0.Mallocs)/tokens, 0)
	L.set("proc.gc_cycles", float64(m1.NumGC-m0.NumGC), 0)
	L.set("proc.gc_pause_ms_total", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, 0)
	L.set("proc.goroutines_peak", float64(sampler.goroutinesPeak), 0)
	L.set("compute.workers", float64(compute.Workers()), 0)
	if w.shape == shapeOpen {
		L.set("bench.gen_late_ms_p99", ms(pct(latesOf(results), 0.99)), len(results))
	}

	if t.cache != nil {
		c1 := t.cache.Snapshot()
		lookups := float64(max(c1.Hits-c0.Hits+c1.Misses-c0.Misses, 1))
		promptTokens := 0
		for _, r := range results {
			promptTokens += len(r.req.prompt)
		}
		L.set("kvcache.hit_ratio", float64(c1.Hits-c0.Hits)/lookups, 0)
		L.set("kvcache.hit_token_share", float64(c1.BytesSaved-c0.BytesSaved)/
			float64(int64(max(promptTokens, 1))*w.model.KVBytesPerToken()), 0)
		L.set("kvcache.evictions_per_req", float64(c1.Evictions-c0.Evictions)/sent, 0)
		L.set("kvcache.resident_over_budget", float64(c1.ResidentBytes)/float64(c1.BudgetBytes), 0)
		L.set("kvcache.delta_bytes_per_req", float64(t.split.DeltaBytes()-delta0)/sent, 0)
		L.set("kvcache.suffix_tokens_per_req", float64(t.split.DeltaTokens()-dtok0)/sent, 0)
	}
	if t.pool != nil {
		L.set("pool.cross_shard_bytes_per_tok", float64(t.pool.Status().CrossShardBytes-cross0)/tokens, 0)
		busy := map[string]time.Duration{}
		for _, sp := range rec.spansOf("shaped") {
			busy[sp.EP] += sp.dur()
		}
		lo, hi := 1.0, 0.0
		for _, n := range t.nodes {
			share := busy[n.name].Seconds() / wall.Seconds()
			lo, hi = min(lo, share), max(hi, share)
		}
		L.set("pool.member_busy_share_max", hi, 0)
		L.set("pool.member_busy_share_min", lo, 0)
	}
	return results
}

// passMode is how one request of the serial pass is driven.
type passMode int

const (
	modeTraced   passMode = iota // through the engine, decorator recording
	modeUntraced                 // through the engine, decorator forwarding
	modeDirect                   // Session.Prefill/Step on the lane's runner, no engine
)

// serialStats is what the serial pass measured.
type serialStats struct {
	results []*result
	modes   []passMode
	probe   *windowProbe

	// Whole-pass medians, filled by analyze.
	gapUntracedUs, directStepUs float64
	ttftUntracedMs, directPreMs float64
	rpcStepUs, clientStepUs     float64
	rpcPerStep, rpcPerPrefill   float64
}

// serialPass drives the requests one at a time, rotating three ways of
// running them so that every comparison is between neighbours in time
// (the sandbox's speed drifts by tens of percent within a minute):
// traced through the engine, untraced through the engine, and directly
// on the lane's runner with no engine. The lane is idle between
// requests, so the direct sessions and the probes may use its
// connection. A spread-out tenth of the traced requests keep their
// Execs, which the window probe replays before the next request.
func serialPass(ctx context.Context, t *topology, rec *recorder, reqs []request, toy bool) (st *serialStats, err error) {
	rec.setPhase("serial")
	st = &serialStats{results: make([]*result, len(reqs)), modes: make([]passMode, len(reqs))}
	probe, err := newWindowProbe(t, toy)
	if err != nil {
		return nil, err
	}
	st.probe = probe
	defer func() {
		if err != nil {
			probe.frames.close()
		}
	}()
	tracedTotal := (len(reqs) + 2) / 3
	captureEvery := max(tracedTotal/captureRequests, 1)
	tracedSeen, capturedSeen := 0, 0
	for i := range reqs {
		mode := passMode(i % 3)
		st.modes[i] = mode
		rec.on.Store(mode == modeTraced)
		if mode == modeDirect {
			if st.results[i], err = directSession(ctx, t, &reqs[i], i); err != nil {
				return nil, err
			}
			continue
		}
		capture := mode == modeTraced && tracedSeen%captureEvery == 0 && capturedSeen < captureRequests
		if mode == modeTraced {
			tracedSeen++
		}
		rec.capture.Store(capture)
		rec.setCur(i, 0)
		due := time.Now()
		res := t.submit(ctx, &reqs[i], due, func(idx int) { rec.setCur(i, idx+1) })
		rec.clearCur()
		rec.capture.Store(false)
		st.results[i] = res
		if res.outcome != outcomeOK {
			continue
		}
		rec.addReq(reqSpan{
			Req: i, Traced: mode == modeTraced, Due: rec.since(due),
			First: rec.since(res.tokAt[0]), Last: rec.since(res.tokAt[len(res.tokAt)-1]),
			Tokens: len(res.tokAt),
		})
		if capture {
			capturedSeen++
			rec.on.Store(false)
			if err := probe.window(rec, res); err != nil {
				return nil, err
			}
		}
	}
	rec.on.Store(true)
	return st, nil
}

// directSession runs one request as Session.Prefill + Steps on
// topology.direct: the runtime layer's own time. Each op runs under
// the lane's per-op deadline, so transport's deadline arming is paid
// here as it is under the engine.
func directSession(ctx context.Context, t *topology, rq *request, i int) (*result, error) {
	res := &result{req: rq, due: time.Now()}
	sess, err := t.direct.NewScopedSessionCtx(ctx, grt.ModeSemAware, fmt.Sprintf("direct%d/", i))
	if err != nil {
		return nil, fmt.Errorf("bench: direct session: %w", err)
	}
	for k := 0; k < rq.maxTokens; k++ {
		opctx, cancel := context.WithTimeout(ctx, opTimeout)
		var tok int64
		if k == 0 {
			tok, err = sess.PrefillCtx(opctx, rq.prompt)
		} else {
			tok, err = sess.StepCtx(opctx)
		}
		cancel()
		if err != nil {
			return nil, fmt.Errorf("bench: direct session, token %d: %w", k, err)
		}
		res.tokAt = append(res.tokAt, time.Now())
		res.tokens = append(res.tokens, tok)
	}
	if err := sess.Close(); err != nil {
		return nil, fmt.Errorf("bench: direct close: %w", err)
	}
	return res, nil
}

// analyze splits each traced request's token gaps into endpoint-RPC
// time and client-side time: a layer's self time is its span minus the
// child spans inside it.
func (st *serialStats) analyze(rec *recorder, L *layerSet) {
	type key struct{ req, tok int }
	rpcDur := map[key]time.Duration{}
	rpcN := map[key]int{}
	sent := map[key]int64{}
	for _, sp := range rec.spansOf("serial") {
		if sp.Req < 0 {
			continue
		}
		k := key{sp.Req, sp.Tok}
		rpcDur[k] += sp.dur()
		rpcN[k]++
		sent[k] += sp.Sent
	}
	var gaps, ttfts [3][]time.Duration
	var rpcStep, clientStep, rpcPre []time.Duration
	var frameStep, framePre []float64 // request frame bytes
	var stepRPCs, steps, preRPCs, prefills int
	var tok [3]int
	var busy [3]time.Duration
	for i, r := range st.results {
		if r.outcome != outcomeOK {
			continue
		}
		m := st.modes[i]
		tok[m] += len(r.tokAt)
		busy[m] += r.total()
		ttfts[m] = append(ttfts[m], r.ttft())
		for k := 1; k < len(r.tokAt); k++ {
			gap := r.tokAt[k].Sub(r.tokAt[k-1])
			gaps[m] = append(gaps[m], gap)
			if m != modeTraced {
				continue
			}
			kk := key{i, k}
			rpcStep = append(rpcStep, rpcDur[kk])
			clientStep = append(clientStep, gap-rpcDur[kk])
			frameStep = append(frameStep, float64(sent[kk]))
			stepRPCs += rpcN[kk]
			steps++
		}
		if m == modeTraced {
			k0 := key{i, 0}
			rpcPre = append(rpcPre, rpcDur[k0])
			framePre = append(framePre, float64(sent[k0]))
			preRPCs += rpcN[k0]
			prefills++
		}
	}
	st.gapUntracedUs, st.directStepUs = us(pct(gaps[modeUntraced], 0.5)), us(pct(gaps[modeDirect], 0.5))
	st.ttftUntracedMs, st.directPreMs = ms(pct(ttfts[modeUntraced], 0.5)), ms(pct(ttfts[modeDirect], 0.5))
	st.rpcStepUs, st.clientStepUs = us(pct(rpcStep, 0.5)), us(pct(clientStep, 0.5))
	st.rpcPerStep = float64(stepRPCs) / float64(max(steps, 1))
	st.rpcPerPrefill = float64(preRPCs) / float64(max(prefills, 1))

	L.set("serve.client_side_us_per_step", st.clientStepUs, len(clientStep))
	L.set("serve.engine_overhead_us_per_step", st.gapUntracedUs-st.directStepUs, len(gaps[modeUntraced]))
	L.set("runtime.step_us_p50", st.directStepUs, len(gaps[modeDirect]))
	L.set("runtime.prefill_ms_p50", st.directPreMs, len(ttfts[modeDirect]))
	L.set("transport.rpc_step_us_p50", st.rpcStepUs, len(rpcStep))
	L.set("transport.rpc_prefill_ms_p50", ms(pct(rpcPre, 0.5)), len(rpcPre))
	L.set("runtime.rpc_per_step", st.rpcPerStep, 0)
	L.set("runtime.rpc_per_prefill", st.rpcPerPrefill, 0)
	L.set("transport.exec_frame_bytes_step", median(frameStep), len(frameStep))
	L.set("transport.exec_frame_bytes_prefill", median(framePre), len(framePre))
	if busy[modeTraced] > 0 && busy[modeUntraced] > 0 {
		untraced := float64(tok[modeUntraced]) / busy[modeUntraced].Seconds()
		traced := float64(tok[modeTraced]) / busy[modeTraced].Seconds()
		L.set("bench.trace_overhead_share", 1-traced/untraced, 0)
	}
	var uploads []time.Duration
	for _, phase := range []string{"setup", "warmup"} {
		for _, sp := range rec.spansOf(phase) {
			if sp.Kind == "upload" {
				uploads = append(uploads, sp.dur())
			}
		}
	}
	if len(uploads) > 0 {
		L.set("transport.rpc_upload_us_p50", us(pct(uploads, 0.5)), len(uploads))
	}
}

// burstStats is batch_decode's occupancy-8 burst, per lane iteration.
type burstStats struct {
	Occupancy         int     `json:"occupancy"`
	IterationUs       float64 `json:"iteration_us"`
	RPCUs             float64 `json:"rpc_us_per_iteration"`
	ClientSideUs      float64 `json:"client_side_us_per_iteration"`
	Iterations        int     `json:"iterations"`
	PerStepUs         float64 `json:"per_step_us"`
	ClientSidePerStep float64 `json:"client_side_us_per_step"`
}

// burstPass submits one full batch at once with recording on. While
// every request is decoding, one request's token gap is one lane
// iteration: MaxBatch decode steps plus the loop around them.
func burstPass(ctx context.Context, t *topology, rec *recorder, reqs []request) (*burstStats, []*result) {
	rec.setPhase("burst")
	results := make([]*result, len(reqs))
	var wg sync.WaitGroup
	due := time.Now()
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = t.submit(ctx, &reqs[i], due, nil)
		}(i)
	}
	wg.Wait()
	// The steady window: from the last first-token to the first
	// completion, every request holds a batch slot.
	var lo, hi time.Time
	for _, r := range results {
		if r.outcome != outcomeOK {
			return nil, results
		}
		if first := r.tokAt[0]; first.After(lo) {
			lo = first
		}
		if last := r.tokAt[len(r.tokAt)-1]; hi.IsZero() || last.Before(hi) {
			hi = last
		}
	}
	var gaps []time.Duration
	r0 := results[0]
	for k := 1; k < len(r0.tokAt); k++ {
		if r0.tokAt[k-1].After(lo) && r0.tokAt[k].Before(hi) {
			gaps = append(gaps, r0.tokAt[k].Sub(r0.tokAt[k-1]))
		}
	}
	if len(gaps) == 0 {
		return nil, results
	}
	var rpc time.Duration
	for _, sp := range rec.spansOf("burst") {
		if sp.Kind == "step" && sp.Start >= rec.since(lo) && sp.End <= rec.since(hi) {
			rpc += sp.dur()
		}
	}
	window := hi.Sub(lo)
	iter := pct(gaps, 0.5)
	b := &burstStats{Occupancy: len(reqs), Iterations: len(gaps), IterationUs: us(iter)}
	// RPC time per iteration: the window's step-RPC share of wall time.
	b.RPCUs = b.IterationUs * rpc.Seconds() / window.Seconds()
	b.ClientSideUs = b.IterationUs - b.RPCUs
	b.PerStepUs = b.IterationUs / float64(len(reqs))
	b.ClientSidePerStep = b.ClientSideUs / float64(len(reqs))
	return b, results
}
