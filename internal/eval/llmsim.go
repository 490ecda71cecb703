// Package eval regenerates the paper's evaluation (§4): Table 2
// (end-to-end latency, network traffic, and GPU utilization of the four
// execution modes) and Table 3 (decode-latency scaling), plus the
// ablation experiments DESIGN.md calls out. Experiments run at paper
// scale (GPT-J 6B, A100, 25 Gbps) on the simnet substrate using the same
// call/transfer/kernel structure the real runtime executes at small
// scale — the runtime tests prove the structure, the simulation prices
// it.
package eval

import (
	"time"

	"genie/internal/cluster"
	"genie/internal/device"
	"genie/internal/models"
	"genie/internal/runtime"
	"genie/internal/scheduler"
	"genie/internal/simnet"
)

// A100GPTJUnbatched is the A100-80GB calibrated for single-request GPT-J
// inference: effective (not peak-datasheet) throughput at batch size 1,
// chosen so the Local row lands at the paper's measured 0.21 s prefill /
// 1.53 s 50-token decode. See EXPERIMENTS.md "Calibration".
var A100GPTJUnbatched = device.Spec{
	Name: "a100-80g-gptj-bs1", Kind: device.KindGPU,
	PeakFLOPS:      4.5e12,
	MemBandwidth:   420e9,
	MemBytes:       80 << 30,
	LaunchOverhead: 0,
	CostPerHour:    4.0,
}

// Paper25GbpsLink is the testbed link: CPU-only client to the A100 server
// over 25 Gbps (§4 Setup).
var Paper25GbpsLink = cluster.Link{
	Bandwidth: 25e9 / 8,
	RTT:       200 * time.Microsecond,
}

// LLMSimConfig parameterizes the §4 experiment.
type LLMSimConfig struct {
	Model  models.GPTConfig
	Device device.Spec
	Link   cluster.Link
	RPC    scheduler.RPCProfile

	PromptLen int
	DecodeLen int

	// NaiveReuploadPeriod is how many remote calls share one weight
	// re-upload in Naive mode. 1 is the paper's stated policy ("the
	// entire 12 GB on every remote call"); ≈6.5 reproduces the paper's
	// measured naive-decode magnitudes, which imply upload amortization
	// in their prototype (see EXPERIMENTS.md).
	NaiveReuploadPeriod float64

	// GraphShipBytes approximates the per-call SRG/op-descriptor payload
	// (every RPC stack ships operator metadata; Genie ships the SRG).
	GraphShipBytes int64
}

// PaperConfig is the §4 setup: GPT-J 6B, 72-token prompt, 50-token
// decode, TensorPipe RPC, weight re-upload on every call.
func PaperConfig() LLMSimConfig {
	return LLMSimConfig{
		Model:               models.GPTJ6B,
		Device:              A100GPTJUnbatched,
		Link:                Paper25GbpsLink,
		RPC:                 scheduler.TensorPipeProfile,
		PromptLen:           72,
		DecodeLen:           50,
		NaiveReuploadPeriod: 1,
		GraphShipBytes:      256 << 10,
	}
}

// PhaseRow is one table cell group: a mode's latency, traffic, and GPU
// utilization for one phase.
type PhaseRow struct {
	Mode     runtime.Mode
	Latency  time.Duration
	NetBytes int64
	// GPUBusy is modeled kernel time; Util = GPUBusy/Latency.
	GPUBusy time.Duration
}

// Util returns effective GPU utilization in [0,1].
func (r PhaseRow) Util() float64 {
	if r.Latency == 0 {
		return 0
	}
	return float64(r.GPUBusy) / float64(r.Latency)
}

// Result carries both phases for one mode.
type Result struct {
	Prefill PhaseRow
	Decode  PhaseRow
}

// timeline simulates the sequential client: a GPU resource, a link, and
// an RPC profile. All four modes share it.
type timeline struct {
	gpu  *simnet.Resource
	cfg  LLMSimConfig
	now  time.Duration
	net  int64
	kern time.Duration
}

func newTimeline(cfg LLMSimConfig) *timeline {
	return &timeline{gpu: simnet.NewResource("gpu"), cfg: cfg}
}

// call models one synchronous RPC: per-call software overhead, serialize
// + wire for the op descriptors (graph shipment — priced in latency but
// not counted as tensor traffic, matching the paper's RPC tensor
// counters) and the tensor payload up, kernel execution, then serialize +
// wire down.
func (t *timeline) call(bytesUp, bytesDown int64, flops float64, memBytes int64) {
	t.now += t.cfg.RPC.PerCall + t.cfg.Link.RTT
	t.now += t.xferTime(t.cfg.GraphShipBytes + bytesUp)
	if flops > 0 || memBytes > 0 {
		d := t.cfg.Device.KernelTime(flops, memBytes)
		_, end := t.gpu.ReserveAt(t.now, d)
		t.now = end
		t.kern += d
	}
	t.now += t.xferTime(bytesDown)
	t.net += bytesUp + bytesDown
}

// localKernel models on-device work with no network.
func (t *timeline) localKernel(flops float64, memBytes int64) {
	d := t.cfg.Device.KernelTime(flops, memBytes)
	_, end := t.gpu.ReserveAt(t.now, d)
	t.now = end
	t.kern += d
}

func (t *timeline) xferTime(n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	d := time.Duration(float64(n) / t.cfg.RPC.SerializeBandwidth * float64(time.Second))
	d += time.Duration(float64(n) / t.cfg.Link.EffectiveBandwidth() * float64(time.Second))
	return d
}

func (t *timeline) snapshot(mode runtime.Mode) PhaseRow {
	return PhaseRow{Mode: mode, Latency: t.now, NetBytes: t.net, GPUBusy: t.kern}
}

func (t *timeline) resetPhase() {
	t.now, t.net, t.kern = 0, 0, 0
	t.gpu.Reset()
}

// Run simulates one mode end to end and returns both phase rows.
// Each phase pays the RPC session setup separately, matching how the
// paper measured phases as separate runs (both remote phase latencies
// carry the same ~110 s Python-RPC constant).
func (cfg LLMSimConfig) Run(mode runtime.Mode) Result {
	if cfg.NaiveReuploadPeriod <= 0 {
		cfg.NaiveReuploadPeriod = 1
	}
	t := newTimeline(cfg)
	m := cfg.Model
	T, N := cfg.PromptLen, cfg.DecodeLen

	prompt := int64(T * 8)
	logitsAll := func(rows int) int64 { return int64(rows) * m.LogitsBytes() }
	lastLogits := m.LogitsBytes()
	actRow := func(rows int) int64 { return int64(rows) * int64(m.Dim) * 4 }

	var res Result
	switch mode {
	case runtime.ModeLocal:
		t.localKernel(m.PrefillFLOPs(T), m.WeightBytes()+m.KVBytes(T))
		res.Prefill = t.snapshot(mode)
		t.resetPhase()
		for s := 0; s < N; s++ {
			t.localKernel(m.DecodeFLOPs(T+s), m.DecodeBytesTouched(T+s))
		}
		res.Decode = t.snapshot(mode)

	case runtime.ModeNaive:
		// Prefill: one call re-uploading all weights; the blind library
		// returns the full logits matrix.
		t.now += cfg.RPC.SetupTime
		t.call(m.WeightBytes()+prompt, logitsAll(T),
			m.PrefillFLOPs(T), m.WeightBytes()+m.KVBytes(T))
		res.Prefill = t.snapshot(mode)
		t.resetPhase()
		// Decode: each step replays the forward over the whole history,
		// re-uploading weights every NaiveReuploadPeriod calls.
		t.now += cfg.RPC.SetupTime
		credit := 0.0
		for s := 0; s < N; s++ {
			hist := T + s + 1
			up := prompt + int64(8*(s+1))
			credit += 1
			if credit >= cfg.NaiveReuploadPeriod {
				up += m.WeightBytes()
				credit -= cfg.NaiveReuploadPeriod
			}
			// No KV cache: recompute attention over the full history.
			t.call(up, logitsAll(hist), m.PrefillFLOPs(hist), m.WeightBytes()+m.KVBytes(hist))
		}
		res.Decode = t.snapshot(mode)

	case runtime.ModeDeltaKV:
		// Weights pre-installed (storage-style provisioning, not counted
		// in phase traffic). Blind per-module dispatch: embed + L layers
		// + head per step; every call's outputs materialize home.
		layers := m.Layers
		kvRow := int64(2 * m.Dim * 4) // one layer's K+V delta rows
		t.now += cfg.RPC.SetupTime
		// Prefill: embed call, per-layer calls (activation [T,dim] up and
		// down + fresh KV rows down), head call with full logits down.
		t.call(prompt, actRow(T), float64(2*T*m.Dim), actRow(T))
		for l := 0; l < layers; l++ {
			flops := m.PrefillFLOPs(T) / float64(layers)
			t.call(actRow(T), actRow(T)+int64(T)*kvRow,
				flops, m.WeightBytes()/int64(layers))
		}
		t.call(actRow(T), logitsAll(T),
			2*float64(m.Dim)*float64(m.Vocab)*float64(T), int64(m.Dim)*int64(m.Vocab)*int64(m.WeightBytesPerParam))
		res.Prefill = t.snapshot(mode)
		t.resetPhase()
		// Decode.
		t.now += cfg.RPC.SetupTime
		for s := 0; s < N; s++ {
			hist := T + s
			t.call(int64(8), actRow(1), float64(2*m.Dim), actRow(1))
			for l := 0; l < layers; l++ {
				flops := m.DecodeFLOPs(hist) / float64(layers)
				t.call(actRow(1), actRow(1)+kvRow,
					flops, (m.WeightBytes()+m.KVBytes(hist))/int64(layers))
			}
			t.call(actRow(1), lastLogits,
				2*float64(m.Dim)*float64(m.Vocab), int64(m.Dim)*int64(m.Vocab)*int64(m.WeightBytesPerParam))
		}
		res.Decode = t.snapshot(mode)

	case runtime.ModeSemAware:
		// One fused call per phase step: prompt/token up, last logits
		// down; weights and caches stay remote by handle.
		t.now += cfg.RPC.SetupTime
		t.call(prompt, lastLogits+8,
			m.PrefillFLOPs(T), m.WeightBytes()+m.KVBytes(T))
		res.Prefill = t.snapshot(mode)
		t.resetPhase()
		t.now += cfg.RPC.SetupTime
		for s := 0; s < N; s++ {
			hist := T + s
			t.call(8, lastLogits+8,
				m.DecodeFLOPs(hist), m.DecodeBytesTouched(hist))
		}
		res.Decode = t.snapshot(mode)
	}
	return res
}

// Table2 regenerates the paper's Table 2: all four modes, both phases.
func Table2(cfg LLMSimConfig) []Result {
	modes := []runtime.Mode{runtime.ModeLocal, runtime.ModeNaive, runtime.ModeDeltaKV, runtime.ModeSemAware}
	out := make([]Result, 0, len(modes))
	for _, m := range modes {
		out = append(out, cfg.Run(m))
	}
	return out
}

// Table3Point is one cell of Table 3.
type Table3Point struct {
	N       int
	Mode    runtime.Mode
	Latency time.Duration
}

// Table3 regenerates decode-latency scaling for ΔKV vs Semantics-Aware at
// N ∈ lengths.
func Table3(cfg LLMSimConfig, lengths []int) []Table3Point {
	var out []Table3Point
	for _, mode := range []runtime.Mode{runtime.ModeDeltaKV, runtime.ModeSemAware} {
		for _, n := range lengths {
			c := cfg
			c.DecodeLen = n
			out = append(out, Table3Point{N: n, Mode: mode, Latency: c.Run(mode).Decode.Latency})
		}
	}
	return out
}
