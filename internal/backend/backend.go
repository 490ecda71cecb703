// Package backend implements the disaggregated accelerator server: it
// holds remote-resident objects (weights, KV caches) addressed by opaque
// keys with epochs, executes SRG subgraphs shipped by clients, and
// accounts modeled device busy time (§3.4 "Execution Backends").
//
// The same Server runs in-process (tests, examples) or behind TCP
// (cmd/genie-server). Failure injection (Crash) drops all resident state
// and advances the epoch so recovery (§3.5: a session resumes by
// re-prefilling its token log) can be exercised.
package backend

import (
	"fmt"
	"strings"
	"sync"

	"genie/internal/device"
	"genie/internal/exec"
	"genie/internal/obs"
	"genie/internal/quant"
	"genie/internal/srg"
	"genie/internal/tensor"
	"genie/internal/transport"
)

// Object is one remote-resident tensor.
type Object struct {
	Data  *tensor.Tensor
	Epoch uint32
}

// Server is one accelerator endpoint.
type Server struct {
	spec device.Spec

	mu        sync.Mutex
	store     map[string]Object
	epoch     uint32
	busyNs    int64
	execCalls int64
	resident  int64
	// failNextExecs makes the next n Exec calls fail (fault injection for
	// tests beyond full crashes).
	failNextExecs int
	// execHook, when set, observes every Exec with its 1-based call
	// number before execution and may veto it (see SetExecHook).
	execHook func(call int64) error

	// Wire features this server grants (wirefeat.go); content is the
	// upload dedup cache: content hash -> resident tensor. Both are
	// epoch-scoped like the store — Crash wipes the cache so a hash ref
	// can never resurrect pre-crash bytes. Entries alias store tensors
	// (uploads are immutable once resident) so the cache costs no data
	// memory.
	wireFeat uint32
	content  map[[transport.HashSize]byte]*tensor.Tensor

	// quantPolicy lowers rank-2 f32 weight uploads (keys ending ".w")
	// to the configured precision tier at admission (-quant on
	// genie-server).
	quantPolicy quant.Mode

	// Connection tracking for graceful drain (see serve.go). Guarded by
	// its own mutex so RPC handling never contends with store access.
	connMu   sync.Mutex
	conns    map[*transport.Conn]bool // conn -> request in flight
	draining bool

	// Observability: tracer parents server-side spans under wire-sent
	// trace context; inst mirrors store/exec counters into a metrics
	// registry. Both optional — nil means uninstrumented.
	tracer *obs.Tracer
	inst   *instruments
}

// instruments holds the server's registered metric handles.
type instruments struct {
	execs         *obs.Counter
	uploads       *obs.Counter
	crashes       *obs.Counter
	gpuBusyNs     *obs.Counter
	residentBytes *obs.Gauge
	residentObjs  *obs.Gauge
	epoch         *obs.Gauge
}

// SetTracer attaches a tracer; server spans parent under the trace
// context clients send in the wire envelope. Nil detaches.
func (s *Server) SetTracer(tr *obs.Tracer) { s.tracer = tr }

// Instrument registers backend metric families in reg and mirrors the
// server's counters into them from then on.
func (s *Server) Instrument(reg *obs.Registry) {
	inst := &instruments{
		execs:         reg.Counter("genie_backend_exec_total", "subgraph executions"),
		uploads:       reg.Counter("genie_backend_uploads_total", "objects stored via upload or keep"),
		crashes:       reg.Counter("genie_backend_crashes_total", "injected crashes"),
		gpuBusyNs:     reg.Counter("genie_backend_gpu_busy_ns_total", "modeled device busy time"),
		residentBytes: reg.Gauge("genie_backend_resident_bytes", "bytes resident in the object store"),
		residentObjs:  reg.Gauge("genie_backend_resident_objects", "objects resident in the store"),
		epoch:         reg.Gauge("genie_backend_epoch", "current store epoch"),
	}
	s.mu.Lock()
	s.inst = inst
	inst.residentBytes.Set(s.resident)
	inst.residentObjs.Set(int64(len(s.store)))
	inst.epoch.Set(int64(s.epoch))
	s.mu.Unlock()
}

// syncResidentLocked pushes store gauges; callers hold s.mu.
func (s *Server) syncResidentLocked() {
	if s.inst == nil {
		return
	}
	s.inst.residentBytes.Set(s.resident)
	s.inst.residentObjs.Set(int64(len(s.store)))
	s.inst.epoch.Set(int64(s.epoch))
}

// NewServer creates a backend modeling the given device. All wire
// features are supported by default; they still cost nothing until a
// client negotiates them.
func NewServer(spec device.Spec) *Server {
	return &Server{spec: spec, store: make(map[string]Object), epoch: 1, wireFeat: transport.FeatAll}
}

// SetWireFeatures restricts which wire features MsgHello may grant
// (0 forces every connection to the legacy protocol).
func (s *Server) SetWireFeatures(mask uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wireFeat = mask
}

// WireFeatures returns the grantable feature mask.
func (s *Server) WireFeatures() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wireFeat
}

// SetQuantPolicy lowers future rank-2 f32 weight uploads (keys ending
// ".w") to the given precision tier as they are stored. Off restores
// full-precision admission; already-resident objects are untouched.
func (s *Server) SetQuantPolicy(m quant.Mode) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.quantPolicy = m
}

// maxContentCache bounds dedup-cache entries; a full reset past the
// cap keeps the map bounded without eviction bookkeeping (misses just
// re-upload).
const maxContentCache = 4096

// rememberContent records a resident tensor's bytes in the dedup cache.
func (s *Server) rememberContent(t *tensor.Tensor) {
	h := transport.ContentHash(t)
	s.mu.Lock()
	if s.content == nil || len(s.content) >= maxContentCache {
		s.content = make(map[[transport.HashSize]byte]*tensor.Tensor)
	}
	s.content[h] = t
	s.mu.Unlock()
}

// contentFor resolves a content hash to the tensor the server already
// holds (nil on miss). The hash was computed server-side at remember
// time, so a client can never alias a key onto bytes it did not send.
func (s *Server) contentFor(h [transport.HashSize]byte) *tensor.Tensor {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.content[h]
}

// maybeQuantize applies the admission quant policy to weight uploads.
func (s *Server) maybeQuantize(key string, t *tensor.Tensor) *tensor.Tensor {
	s.mu.Lock()
	mode := s.quantPolicy
	s.mu.Unlock()
	if mode == quant.Off || t.DType() != tensor.F32 || t.Shape().Rank() != 2 ||
		!strings.HasSuffix(key, ".w") {
		return t
	}
	switch mode {
	case quant.Int8:
		if q, err := quant.QuantizeLinear(t, 1); err == nil {
			return q
		}
	case quant.F16:
		return t.ToF16()
	}
	return t
}

// Spec returns the modeled device.
func (s *Server) Spec() device.Spec { return s.spec }

// Epoch returns the current store epoch.
func (s *Server) Epoch() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Upload stores a tensor under key in the current epoch. It fails when
// the object would not fit in device memory — disaggregated servers
// enforce capacity; clients see the refusal and can spill to another
// pool member instead of silently thrashing.
func (s *Server) Upload(key string, t *tensor.Tensor) (*transport.UploadOK, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	newBytes := int64(t.NumBytes())
	after := s.resident + newBytes
	if old, ok := s.store[key]; ok {
		after -= int64(old.Data.NumBytes())
	}
	if s.spec.MemBytes > 0 && after > s.spec.MemBytes {
		return nil, fmt.Errorf("backend: object %q (%d B) exceeds device capacity (%d of %d B resident)",
			key, newBytes, s.resident, s.spec.MemBytes)
	}
	if old, ok := s.store[key]; ok {
		s.resident -= int64(old.Data.NumBytes())
	}
	s.store[key] = Object{Data: t, Epoch: s.epoch}
	s.resident += newBytes
	if s.inst != nil {
		s.inst.uploads.Inc()
	}
	s.syncResidentLocked()
	return &transport.UploadOK{Epoch: s.epoch, Bytes: newBytes}, nil
}

// Lookup fetches a resident object, validating the epoch when epoch != 0.
func (s *Server) Lookup(key string, epoch uint32) (*tensor.Tensor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.store[key]
	if !ok {
		return nil, fmt.Errorf("backend: no resident object %q", key)
	}
	if epoch != 0 && o.Epoch != epoch {
		return nil, fmt.Errorf("backend: object %q is epoch %d, caller expected %d (stale handle)",
			key, o.Epoch, epoch)
	}
	return o.Data, nil
}

// Free drops a resident object (missing keys are a no-op).
func (s *Server) Free(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if o, ok := s.store[key]; ok {
		s.resident -= int64(o.Data.NumBytes())
		delete(s.store, key)
	}
	s.syncResidentLocked()
}

// Crash simulates a device/host failure: every resident object is lost
// and the epoch advances, so stale handles held by clients are detected
// on next use.
func (s *Server) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store = make(map[string]Object)
	s.content = nil
	s.resident = 0
	s.epoch++
	if s.inst != nil {
		s.inst.crashes.Inc()
	}
	s.syncResidentLocked()
}

// FailNextExecs arms exec-level fault injection: the next n Exec calls
// return an error without executing.
func (s *Server) FailNextExecs(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failNextExecs = n
}

// SetExecHook installs fn to run at the top of every Exec with the
// 1-based call number; a non-nil return fails the call without
// executing. The hook runs outside the server's mutex, so it may call
// back into the server (chaos plans use this to Crash at exactly call
// N, reproducing a mid-decode backend loss deterministically). Nil
// removes the hook.
func (s *Server) SetExecHook(fn func(call int64) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.execHook = fn
}

// Stats snapshots server counters.
func (s *Server) Stats() *transport.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &transport.Stats{
		Epoch:         s.epoch,
		ResidentBytes: s.resident,
		ResidentCount: int64(len(s.store)),
		GPUBusyNs:     s.busyNs,
		ExecCalls:     s.execCalls,
	}
}

// ResidentKeys lists the keys of all resident objects — diagnostics for
// tests and operators checking per-request state is released.
func (s *Server) ResidentKeys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.store))
	for k := range s.store {
		keys = append(keys, k)
	}
	return keys
}

// Exec runs a subgraph: binds leaves from inline data or the resident
// store, interprets every node, retains Keep outputs under their keys,
// and returns Want values. Device busy time is accounted from the
// roofline model over node cost hints (real wall-clock of the Go kernels
// is not the experiment's GPU — the model is).
func (s *Server) Exec(x *transport.Exec) (*transport.ExecOK, error) {
	s.mu.Lock()
	if s.failNextExecs > 0 {
		s.failNextExecs--
		s.mu.Unlock()
		return nil, fmt.Errorf("backend: injected exec failure")
	}
	s.execCalls++
	call := s.execCalls
	hook := s.execHook
	if s.inst != nil {
		s.inst.execs.Inc()
	}
	s.mu.Unlock()
	if hook != nil {
		if err := hook(call); err != nil {
			return nil, fmt.Errorf("backend: %w", err)
		}
	}

	if err := x.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("backend: invalid graph: %w", err)
	}
	binds := make(map[string]transport.Binding, len(x.Binds))
	for _, b := range x.Binds {
		binds[b.Ref] = b
	}
	bind := func(op, ref string) (*tensor.Tensor, error) {
		b, ok := binds[ref]
		if !ok {
			// Fall back to a resident object under the ref itself
			// (weights installed once under their param refs).
			return s.Lookup(ref, 0)
		}
		if b.Inline != nil {
			return b.Inline, nil
		}
		return s.Lookup(b.Key, b.Epoch)
	}

	// Ephemeral evaluation: intermediates the client never asked for go
	// back to the scratch arena as soon as their last consumer runs, so
	// per-token decode subgraphs reuse activation buffers across calls.
	need := make(map[srg.NodeID]bool, len(x.Keep)+len(x.Want))
	for id := range x.Keep {
		need[id] = true
	}
	for _, id := range x.Want {
		need[id] = true
	}
	vals, err := exec.GraphEphemeral(x.Graph, bind, need)
	if err != nil {
		return nil, err
	}

	// Account modeled device time across compute nodes.
	var busy int64
	for _, n := range x.Graph.Nodes() {
		if n.Op == "param" || n.Op == "input" {
			continue
		}
		busy += int64(s.spec.KernelTime(n.Cost.FLOPs, n.Cost.Bytes))
	}
	s.mu.Lock()
	s.busyNs += busy
	if s.inst != nil {
		s.inst.gpuBusyNs.Add(busy)
	}
	epoch := s.epoch
	s.mu.Unlock()

	out := &transport.ExecOK{Epoch: epoch, GPUTimeNs: busy}
	if !x.Repeat {
		// A resident plan's graph never crossed the wire whole, and nobody
		// who marks an exec repeatable reads the attestation.
		out.GraphFP = x.Graph.Fingerprint()
	}
	if len(x.Keep) > 0 {
		out.Kept = make(map[string]int64, len(x.Keep))
		for id, key := range x.Keep {
			t, ok := vals[id]
			if !ok {
				return nil, fmt.Errorf("backend: keep of unknown node %d", id)
			}
			if _, err := s.Upload(key, t); err != nil {
				return nil, err
			}
			out.Kept[key] = int64(t.NumBytes())
		}
	}
	if len(x.Want) > 0 {
		out.Results = make(map[srg.NodeID]*tensor.Tensor, len(x.Want))
		for _, id := range x.Want {
			t, ok := vals[id]
			if !ok {
				return nil, fmt.Errorf("backend: want of unknown node %d", id)
			}
			out.Results[id] = t
		}
	}
	return out, nil
}

// GPUBusyNs returns accumulated modeled device time.
func (s *Server) GPUBusyNs() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.busyNs
}

// ResetAccounting zeroes busy-time and call counters (between experiment
// phases) without touching resident state.
func (s *Server) ResetAccounting() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.busyNs = 0
	s.execCalls = 0
}
