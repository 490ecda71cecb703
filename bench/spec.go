package main

import (
	"fmt"

	"genie/internal/kvcache"
	"genie/internal/models"
)

// weightSeed fixes the model weights of every workload. The workload
// seed (-seed) only generates prompts, lengths and arrivals: the program
// under test receives generated inputs, never the seed.
const weightSeed = 1

// maxBatch is the gateway's -batch default: the most requests that share
// one decode iteration of a lane.
const maxBatch = 8

// midGPT is the kernel-bound model: a decode step is about 1.1 ms and a
// 32-token prefill about 12 ms on the 2-core sandbox. models.TinyGPT
// (step about 0.2 ms) is the framework- and RPC-bound one.
var midGPT = models.GPTConfig{
	Layers: 4, Dim: 128, Heads: 4, Hidden: 512,
	Vocab: 512, MaxSeq: 256, WeightBytesPerParam: 4,
}

type topoKind int

const (
	// topoReplicas gives every lane a full model replica on its own
	// backend (cmd/genie-gateway -backends a,b).
	topoReplicas topoKind = iota
	// topoSplit is kvcache.NewSplit: a prefill backend, a decode backend
	// and a radix prefix cache (-split-prefill -prefix-cache-bytes
	// -wire-compress).
	topoSplit
	// topoPool is one pool.Manager lane over sharded members
	// (-pool-backends a,b -shard-strategy pipeline
	// -pool-rebalance-on-join).
	topoPool
)

type shapeKind int

const (
	shapeOpen   shapeKind = iota // Poisson arrivals, one dispatcher
	shapeClosed                  // N clients, each waits for its reply
	shapeBatch                   // rounds of `burst` requests submitted at once
)

// workload is one named traffic mix over one topology. Names are fixed:
// later issues cite them.
type workload struct {
	name string
	why  string

	model    models.GPTConfig
	topo     topoKind
	backends int  // replicas: lanes; pool: members; split: always 2
	health   bool // Config.Health with the gateway's defaults
	http     bool // requests cross serve.NewHandler on a loopback listener

	shape   shapeKind
	rate    float64 // open loop: arrivals per second
	clients int     // closed loop
	burst   int     // batch: requests per round

	promptMin, promptMax int
	decodeMin, decodeMax int
	tenants              int
	// prefixes > 0: the first prefixLen prompt tokens come from one of
	// that many system prefixes (derived from the seed, shared by the
	// warm-up and the timed stream so the cache is warm).
	prefixes, prefixLen int
	cacheBytes          int64
	pageTokens          int

	// requests is the size of the timed run: a constant, so every run of
	// a workload does the same work on every machine and commit. Sized so
	// that a run takes about BENCHMARK.json's run_seconds on the 2-core
	// sandbox at the seed commit, never under 200 (p95 keeps ten samples
	// beyond it); batch workloads run whole rounds.
	requests int
	warmup   int

	// SLO limits, frozen at 2× the seed commit's ttft_ms_p95 and 2× its
	// p95 of per-request mean ITL on this workload (medians of ten
	// seeds; see README.md for why not 2× itl_ms_p50).
	ttftLimitMs, itlLimitMs float64
}

// workloads is the benchmark. Sized for nproc = 2: closed loops use at
// most 2 clients and the open loop keeps mean in-flight under 2.
var workloads = []*workload{
	{
		name:  "chat_open",
		why:   "Flagship: open loop through the HTTP handler, admission queue and health layer on 2 mid lanes; queueing and gateway changes show only here.",
		model: midGPT, topo: topoReplicas, backends: 2,
		health: true, http: true,
		shape: shapeOpen, rate: 12,
		promptMin: 16, promptMax: 48, decodeMin: 4, decodeMax: 20, tenants: 4,
		requests: 200, warmup: 8,
		ttftLimitMs: 100, itlLimitMs: 17,
	},
	{
		name:  "decode_rpc",
		why:   "The paper's fixed per-token RPC constant: tiny model, occupancy 1; graph build, encode, framing, dispatch. Bypass for kernel changes.",
		model: models.TinyGPT, topo: topoReplicas, backends: 1,
		shape: shapeClosed, clients: 1,
		promptMin: 8, promptMax: 8, decodeMin: 48, decodeMax: 48, tenants: 1,
		requests: 442, warmup: 8,
		ttftLimitMs: 2.3, itlLimitMs: 1.4,
	},
	{
		name:  "batch_decode",
		why:   "Kernel-bound decode at lane occupancy 8, where N separate m=1 graph walks cost most and the wire least. Bypass for transport changes.",
		model: midGPT, topo: topoReplicas, backends: 1,
		shape: shapeBatch, burst: 16,
		promptMin: 16, promptMax: 16, decodeMin: 32, decodeMax: 32, tenants: 1,
		requests: 208, warmup: 16,
		ttftLimitMs: 1230, itlLimitMs: 34,
	},
	{
		name:  "prefix_shared",
		why:   "kvcache for reads: 72 of 96 prompt tokens from 4 system prefixes; lookup, gather, suffix-only prefill, dedup binds. TTFT-dominated.",
		model: midGPT, topo: topoSplit, backends: 2,
		shape: shapeClosed, clients: 2,
		promptMin: 96, promptMax: 96, decodeMin: 8, decodeMax: 8, tenants: 1,
		prefixes: 4, prefixLen: 72, cacheBytes: 32 << 20, pageTokens: kvcache.DefaultPageTokens,
		requests: 286, warmup: 8,
		ttftLimitMs: 107, itlLimitMs: 20,
	},
	{
		name:  "prefix_churn",
		why:   "kvcache for writes: unique prompts under a 3-prompt budget; every request misses, prefills in full, ships delta-KV, inserts, evicts.",
		model: midGPT, topo: topoSplit, backends: 2,
		shape: shapeClosed, clients: 2,
		promptMin: 96, promptMax: 96, decodeMin: 8, decodeMax: 8, tenants: 1,
		cacheBytes: 1200 << 10, pageTokens: kvcache.DefaultPageTokens,
		requests: 200, warmup: 8,
		ttftLimitMs: 275, itlLimitMs: 32,
	},
	{
		name:  "pool_shard2",
		why:   "Sharded session path: one lane over a 2-member pipeline pool; two segment RPCs per step and cross-shard activations.",
		model: midGPT, topo: topoPool, backends: 2,
		shape: shapeClosed, clients: 2,
		promptMin: 32, promptMax: 32, decodeMin: 24, decodeMax: 24, tenants: 1,
		requests: 208, warmup: 8,
		ttftLimitMs: 78, itlLimitMs: 10,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// toy shrinks a workload to the smoke-test scale: the tiny model and
// prompts that fit its 64-token context, everything else unchanged.
func (w *workload) toy() *workload {
	t := *w
	t.model = models.TinyGPT
	clamp := func(v, hi int) int {
		if v > hi {
			return hi
		}
		return v
	}
	t.promptMin, t.promptMax = clamp(w.promptMin, 40), clamp(w.promptMax, 40)
	t.decodeMin, t.decodeMax = clamp(w.decodeMin, 6), clamp(w.decodeMax, 6)
	if w.prefixes > 0 {
		t.prefixLen = 32
	}
	if w.topo == topoSplit {
		t.pageTokens = 8
		// Keep the shape of the budget: roomy for shared, about three
		// prompts for churn.
		perPrompt := int64(t.promptMax) * t.model.KVBytesPerToken()
		if w.prefixes > 0 {
			t.cacheBytes = 64 * perPrompt
		} else {
			t.cacheBytes = 3 * perPrompt
		}
	}
	t.requests, t.warmup = 4, 2
	if w.shape == shapeBatch {
		t.burst, t.warmup = 4, 4
	}
	if w.shape == shapeOpen {
		t.rate = 200
	}
	// Limits are for the real models; the toy run checks plumbing only.
	t.ttftLimitMs, t.itlLimitMs = 1e6, 1e6
	return &t
}

// metricDef declares one reported metric. better is "lower" or "higher";
// bound is how far an end-to-end metric may worsen before a change is a
// regression (0 for per-layer metrics, which have none): a share of the
// parent's median, or for a metric that is itself a share (slo_ok_share,
// fail_share) an absolute difference.
type metricDef struct {
	name, unit, better string
	bound              float64
	doc                string
	// gated marks the end-to-end metrics BENCHMARK.json lists as
	// end_to_end, which the driver bounds on unpaired single runs. The
	// others failed the A/A test at their bound on this sandbox (spreads
	// in README.md) and were demoted for every workload rather than given
	// a wider bound: they are still measured, printed, judged by `bench
	// -compare` and listed in BENCHMARK.json among the unbounded metrics.
	gated bool
}

// absolute reports whether the bound is an absolute difference.
func (d metricDef) absolute() bool { return d.unit == "share" }

// endToEnd are the thirteen metrics a user of the serving system sees;
// reported for every workload under the same names by the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "model build + backends + dial/negotiate + weight install + NewEngine/Start + warm-up; median of 5 set-ups", true},
	{"ttft_ms_p50", "ms", "lower", 0.10, "client-observed time to first token (open loop: from the due time)", false},
	{"ttft_ms_p95", "ms", "lower", 0.10, "same, 95th percentile", false},
	{"itl_ms_p50", "ms", "lower", 0.10, "gap between consecutive tokens of one request", false},
	{"req_ms_p50", "ms", "lower", 0.10, "submit (or due) to last token", false},
	{"tok_per_s", "tok/s", "higher", 0.10, "output tokens / timed wall (chat_open: rate-bound, a saturation alarm)", false},
	{"slo_ok_share", "share", "higher", 0.03, "share of requests sent whose TTFT and mean ITL are within the workload's limits", false},
	{"fail_share", "share", "lower", 0, "(failed + refused + token-parity mismatches) / sent; 0 at the seed commit, and any rise fails the run", false},
	{"wire_bytes_per_tok", "B/tok", "lower", 0.01, "client-side transport.Counters sent+recv over all backend conns / output tokens (a count)", true},
	{"rpc_per_tok", "calls/tok", "lower", 0.01, "transport.Counters calls / output tokens (a count)", true},
	{"cpu_s_per_ktok", "CPU-s/ktok", "lower", 0.10, "getrusage user+sys of the whole process (generator + gateway side + in-process backends) per 1000 output tokens", false},
	{"alloc_kb_per_tok", "KiB/tok", "lower", 0.10, "MemStats.TotalAlloc delta / output tokens", true},
	{"heap_peak_mb", "MiB", "lower", 0.15, "in-use heap (MemStats.HeapInuse, read through runtime/metrics) polled at 100 Hz over the timed run: the level 95 % of the polls stay under", true},
}

// gatedEndToEnd is BENCHMARK.json's end_to_end list.
func gatedEndToEnd() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.gated {
			out = append(out, d)
		}
	}
	return out
}

// tracedCatalog is what the traced run emits: the per-layer metrics,
// then the ungated end-to-end metrics as measured on its shaped pass.
func tracedCatalog() []metricDef {
	out := append([]metricDef(nil), perLayer...)
	for _, d := range endToEnd {
		if !d.gated {
			out = append(out, d)
		}
	}
	return out
}

// unitOf looks a metric's unit up in the catalogs.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}
