// Package genie is a framework-layer architecture for network-attached
// AI-accelerator disaggregation, built around the Semantically Rich
// Graph (SRG) — a reproduction of "Lost in Translation: The Search for
// Meaning in Network-Attached AI Accelerator Disaggregation"
// (HotNets '25).
//
// Genie decouples *intent capture* from *execution*: applications write
// ordinary model code against lazy tensors; the frontend defers every
// operation into an SRG annotated with phases, residency, modality, and
// cost hints; a pluggable scheduler turns the SRG into a placement and
// data-movement plan; and backends execute the plan on local or
// network-attached accelerators with remote state addressed by opaque
// handles.
//
// The typical flow:
//
//	b := genie.NewBuilder("my-model")
//	x := b.Input("x", inputTensor)
//	w := b.Param("w", weightTensor)
//	y := b.Softmax(b.MatMul(x, w))
//	b.MarkOutput(y)
//
//	genie.Annotate(b.Graph())                  // infer semantics
//	plan, _ := genie.Schedule(b.Graph(), pool, // place it
//	    genie.SemanticsAware{}, genie.NewCostModel(genie.RDMAProfile))
//
// See the examples/ directory for runnable end-to-end scenarios
// (LLM serving under four disaggregation modes, pipelined CNN inference,
// recommendation-model tiering, failure recovery by resume, and
// multi-tenant global scheduling).
package genie

import (
	"math/rand"
	"net"
	"time"

	"genie/internal/backend"
	"genie/internal/cluster"
	"genie/internal/device"
	"genie/internal/exec"
	"genie/internal/frontend"
	"genie/internal/global"
	"genie/internal/lazy"
	"genie/internal/models"
	"genie/internal/runtime"
	"genie/internal/scheduler"
	"genie/internal/srg"
	"genie/internal/tensor"
	"genie/internal/transport"
)

// --- capture (frontend) ---

// Builder captures deferred tensor computation into an SRG.
type Builder = lazy.Builder

// Value is a lazy tensor proxy bound to an SRG node.
type Value = lazy.Value

// NewBuilder starts a capture session for a graph with the given name.
func NewBuilder(name string) *Builder { return lazy.NewBuilder(name) }

// Tensor is the dense tensor type used throughout Genie.
type Tensor = tensor.Tensor

// Shape describes tensor extents, outermost first.
type Shape = tensor.Shape

// DType identifies a tensor element type.
type DType = tensor.DType

// Element types.
const (
	F32 = tensor.F32
	F16 = tensor.F16
	I64 = tensor.I64
	I32 = tensor.I32
	U8  = tensor.U8
)

// NewTensor allocates a zeroed tensor.
func NewTensor(dt DType, shape ...int) *Tensor { return tensor.New(dt, shape...) }

// FromF32 builds an F32 tensor from values.
func FromF32(shape Shape, values []float32) *Tensor { return tensor.FromF32(shape, values) }

// FromI64 builds an I64 tensor from values.
func FromI64(shape Shape, values []int64) *Tensor { return tensor.FromI64(shape, values) }

// --- the SRG ---

// Graph is the Semantically Rich Graph: a declarative DAG of operations
// with the paper's annotation schema.
type Graph = srg.Graph

// Node is one SRG operation.
type Node = srg.Node

// NodeID identifies a node within a graph.
type NodeID = srg.NodeID

// Phase tags execution phases (prefill, decode, cv_stage, …).
type Phase = srg.Phase

// Well-known phases.
const (
	PhaseLLMPrefill = srg.PhaseLLMPrefill
	PhaseLLMDecode  = srg.PhaseLLMDecode
	PhaseCVStage    = srg.PhaseCVStage
	PhaseSparse     = srg.PhaseSparse
	PhaseDense      = srg.PhaseDense
	PhaseFusion     = srg.PhaseFusion
)

// Residency classes for data products.
const (
	ResidencyPersistentWeight    = srg.ResidencyPersistentWeight
	ResidencyEphemeralActivation = srg.ResidencyEphemeralActivation
	ResidencyStatefulKVCache     = srg.ResidencyStatefulKVCache
)

// Annotate runs the standard pattern-recognizer library plus edge passes
// over a captured graph, inferring phases, residency, criticality, and
// producer-consumer rates.
func Annotate(g *Graph) frontend.Report { return frontend.Annotate(g) }

// AnnotatePhase is the explicit developer hook: tag every node under a
// module path with a phase (the paper's genie.annotate_phase).
func AnnotatePhase(g *Graph, modulePrefix string, p Phase) int {
	return frontend.AnnotatePhase(g, modulePrefix, p)
}

// AnnotateResidency overrides residency for a named leaf.
func AnnotateResidency(g *Graph, ref string, r srg.Residency) error {
	return frontend.AnnotateResidency(g, ref, r)
}

// --- cluster & devices ---

// Cluster tracks the accelerator pool, link topology, residency, and
// load.
type Cluster = cluster.State

// Accelerator is one pooled device instance.
type Accelerator = cluster.Accelerator

// AcceleratorID names a pool member.
type AcceleratorID = cluster.AcceleratorID

// Link describes the network path to an accelerator.
type Link = cluster.Link

// DeviceSpec is an accelerator performance envelope.
type DeviceSpec = device.Spec

// Catalogue devices.
var (
	A100    = device.A100
	H100    = device.H100
	A10G    = device.A10G
	CPUHost = device.CPUHost
)

// NewCluster creates an empty pool.
func NewCluster() *Cluster { return cluster.NewState() }

// --- scheduling ---

// Plan is a scheduled execution recipe over an SRG.
type Plan = scheduler.Plan

// Policy maps an annotated SRG and cluster state to a Plan.
type Policy = scheduler.Policy

// Built-in policies spanning the design space of §2.2: semantically
// blind (RoundRobin), load-aware (LeastLoaded), data-movement-aware
// (DataAware), and Genie's semantics-aware policy.
type (
	// RoundRobin spreads ops cyclically (the naive baseline).
	RoundRobin = scheduler.RoundRobin
	// LeastLoaded puts the whole graph on the least-busy device.
	LeastLoaded = scheduler.LeastLoaded
	// DataAware minimizes transfers treating ops as independent.
	DataAware = scheduler.DataAware
	// SemanticsAware applies stateful co-location, CNN pipelining, and
	// dynamic recomputation from SRG annotations.
	SemanticsAware = scheduler.SemanticsAware
)

// CostModel estimates plan latency (compute + transfers + queueing).
type CostModel = scheduler.CostModel

// RPCProfile models transport-stack overhead.
type RPCProfile = scheduler.RPCProfile

// Transport profiles: the paper's measured TensorPipe stack and the
// projected zero-copy RDMA datapath.
var (
	TensorPipeProfile = scheduler.TensorPipeProfile
	RDMAProfile       = scheduler.RDMAProfile
)

// NewCostModel builds a cost model over an RPC profile.
func NewCostModel(rpc RPCProfile) *CostModel { return scheduler.NewCostModel(rpc) }

// Schedule is the paper's scheduler interface: plan = schedule(srg,
// cluster_state, policy).
func Schedule(g *Graph, cs *Cluster, policy Policy, model *CostModel) (*Plan, error) {
	return scheduler.Schedule(g, cs, policy, model)
}

// --- execution ---

// Server is a disaggregated accelerator backend.
type Server = backend.Server

// NewServer creates a backend modeling the given device.
func NewServer(spec DeviceSpec) *Server { return backend.NewServer(spec) }

// Client is the typed RPC surface to one backend.
type Client = transport.Client

// Dial connects to a Genie server.
func Dial(addr string) (*Client, error) {
	conn, err := transport.Dial(addr, nil, nil)
	if err != nil {
		return nil, err
	}
	return transport.NewClient(conn), nil
}

// DialShaped connects with traffic counting and link shaping (emulating
// e.g. the paper's 25 Gbps testbed on loopback).
func DialShaped(addr string, counters *transport.Counters, shaper *transport.Shaper) (*Client, error) {
	conn, err := transport.Dial(addr, counters, shaper)
	if err != nil {
		return nil, err
	}
	return transport.NewClient(conn), nil
}

// Serve answers the Genie protocol on a TCP listener until it closes.
func Serve(s *Server, l net.Listener) error { return s.Listen(l) }

// Counters tracks wire traffic through a connection.
type Counters = transport.Counters

// Shaper emulates link bandwidth/RTT/per-call overhead.
type Shaper = transport.Shaper

// BufferPool is the pinned, network-ready memory pool (§3.4).
type BufferPool = transport.BufferPool

// NewBufferPool creates a pool retaining maxHeldPerClass free buffers
// per size class.
func NewBufferPool(maxHeldPerClass int) *BufferPool {
	return transport.NewBufferPool(maxHeldPerClass)
}

// ExecuteLocal evaluates a captured graph in-process, binding every leaf
// from the builder's registered data, and returns all node values.
func ExecuteLocal(b *Builder) (map[NodeID]*Tensor, error) {
	return exec.Graph(b.Graph(), runtime.BindAll(b))
}

// Mode selects an LLM execution strategy (the §4 evaluation modes).
type Mode = runtime.Mode

// The four evaluation modes.
const (
	ModeLocal    = runtime.ModeLocal
	ModeNaive    = runtime.ModeNaive
	ModeDeltaKV  = runtime.ModeDeltaKV
	ModeSemAware = runtime.ModeSemAware
)

// LLMRunner generates tokens from a GPT model under a chosen mode.
type LLMRunner = runtime.LLMRunner

// GenResult carries generated tokens plus per-phase metrics.
type GenResult = runtime.GenResult

// Metrics aggregates latency, traffic, calls, and GPU busy time.
type Metrics = runtime.Metrics

// --- models ---

// GPTConfig describes a decoder-only transformer; GPTJ6B is the paper's
// model, TinyGPT a laptop-scale one.
type GPTConfig = models.GPTConfig

// Model configurations.
var (
	GPTJ6B  = models.GPTJ6B
	TinyGPT = models.TinyGPT
)

// GPT is a runnable decoder-only transformer.
type GPT = models.GPT

// NewGPTModel initializes a runnable GPT with real weights (use small
// configs; GPT-J-scale accounting works directly on GPTConfig).
func NewGPTModel(rng *rand.Rand, cfg GPTConfig) *GPT { return models.NewGPT(rng, cfg) }

// NewCNNModel initializes a runnable staged CNN.
func NewCNNModel(rng *rand.Rand, cfg models.CNNConfig) *CNN { return models.NewCNN(rng, cfg) }

// NewDLRMModel initializes a runnable recommendation model.
func NewDLRMModel(rng *rand.Rand, cfg models.DLRMConfig) *DLRM { return models.NewDLRM(rng, cfg) }

// CNN, DLRM, MultiModal are the other Table-1 workloads.
type (
	// CNN is a staged convolutional classifier.
	CNN = models.CNN
	// CNNConfig parameterizes a CNN.
	CNNConfig = models.CNNConfig
	// DLRM is a sparse+dense recommendation model.
	DLRM = models.DLRM
	// DLRMConfig parameterizes a DLRM.
	DLRMConfig = models.DLRMConfig
	// DLRMRequest is one recommendation query.
	DLRMRequest = models.DLRMRequest
	// MultiModal fuses vision and text branches.
	MultiModal = models.MultiModal
)

// Small runnable workload configurations.
var (
	TinyCNN  = models.TinyCNN
	TinyDLRM = models.TinyDLRM
)

// --- fault tolerance & global scheduling ---

// Coordinator is the semantics-aware global scheduler (§3.6).
type Coordinator = global.Coordinator

// NewCoordinator builds a coordinator over a pool.
func NewCoordinator(cs *Cluster, model *CostModel) *Coordinator {
	return global.NewCoordinator(cs, model)
}

// Submission is one tenant's SRG plus scheduling metadata.
type Submission = global.Submission

// SLO classes.
const (
	SLOInteractive = global.SLOInteractive
	SLOBatch       = global.SLOBatch
)

// --- streaming generation ---

// Token is one streamed generation event from LLMRunner.Stream.
type Token = runtime.Token

// ErrStopped reports a generation loop interrupted by cancellation or an
// OnToken stop request.
var ErrStopped = runtime.ErrStopped

// PlanExecutor realizes a scheduled Plan across multiple live backends:
// per-device segments, boundary activation carries, keep-remote
// directives, and recompute inlining.
type PlanExecutor = runtime.PlanExecutor

// --- graph rewrites (§3.3 prepass extension point) ---

// Rewrite is a semantics-preserving SRG transformation applied before
// placement.
type Rewrite = scheduler.Rewrite

// Built-in rewrites.
type (
	// DeadNodeElimination drops captured-but-unobserved nodes.
	DeadNodeElimination = scheduler.DeadNodeElimination
	// CommonSubexpression merges structurally identical compute nodes.
	CommonSubexpression = scheduler.CommonSubexpression
	// FuseElementwise collapses unary elementwise chains (including the
	// attention scale→mask→softmax epilogue) into single fused kernels.
	FuseElementwise = scheduler.FuseElementwise
)

// ApplyRewrites runs rewrite passes in order.
func ApplyRewrites(g *Graph, passes ...Rewrite) (*Graph, map[string]int) {
	return scheduler.ApplyRewrites(g, passes...)
}

// --- learned semantics (§5 "evolving semantic lexicon") ---

// LearnedRecognizer classifies novel graphs by nearest-centroid over
// structural features, learned from labeled example graphs.
type LearnedRecognizer = frontend.LearnedRecognizer

// --- runtime hint adaptation (§3.3 extension point) ---

// AdaptHints probes a live endpoint and refreshes the cluster's RTT model.
func AdaptHints(cs *Cluster, id AcceleratorID, p scheduler.Prober, samples int) error {
	return scheduler.AdaptHints(cs, id, p, samples)
}

// ObserveTransfer folds a measured transfer into the link's congestion
// estimate.
func ObserveTransfer(cs *Cluster, id AcceleratorID, n int64, elapsed time.Duration) error {
	return scheduler.ObserveTransfer(cs, id, n, elapsed)
}
