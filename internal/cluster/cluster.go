// Package cluster models the disaggregated pool: accelerator instances,
// the network links that reach them, and the residency/allocation state
// the scheduler consults. It is the "cluster_state" argument of the
// paper's scheduler interface plan = schedule(srg, cluster_state, policy).
package cluster

import (
	"fmt"
	"sync"
	"time"

	"genie/internal/device"
)

// AcceleratorID names one accelerator instance in the pool.
type AcceleratorID string

// Link describes the network path from the client to an accelerator's
// host.
type Link struct {
	// Bandwidth in bytes/s (25 Gbps ≈ 3.125e9 B/s in the paper's setup).
	Bandwidth float64
	// RTT is the propagation round-trip time.
	RTT time.Duration
	// RPCOverhead is fixed per-call software overhead (serialization,
	// dispatch). The paper measures this to dominate with TensorPipe;
	// an RDMA path drives it toward zero.
	RPCOverhead time.Duration
	// Congestion is a multiplicative utilization factor in [0,1): the
	// fraction of Bandwidth currently consumed by other tenants. The
	// dynamic-recomputation policy reads this.
	Congestion float64
}

// EffectiveBandwidth returns bandwidth available after congestion.
func (l Link) EffectiveBandwidth() float64 {
	c := l.Congestion
	if c < 0 {
		c = 0
	}
	if c >= 1 {
		c = 0.99
	}
	return l.Bandwidth * (1 - c)
}

// TransferTime estimates moving n bytes over the link, excluding the
// per-call RPC overhead (callers add that once per call, not per tensor).
func (l Link) TransferTime(n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	return l.RTT/2 + time.Duration(float64(n)/l.EffectiveBandwidth()*float64(time.Second))
}

// Accelerator is one pooled device instance.
type Accelerator struct {
	ID   AcceleratorID
	Spec device.Spec
	Link Link
	// Local marks the client's own device (no network between client and
	// accelerator) — the paper's "Local (upper bound)" mode.
	Local bool
}

// State is the scheduler's view of the pool. It is safe for concurrent
// use: the runtime updates residency/allocation while the global
// scheduler reads it.
type State struct {
	mu    sync.RWMutex
	accs  map[AcceleratorID]*Accelerator
	order []AcceleratorID

	// resident tracks which named objects (weights, caches) are
	// materialized where: key -> accelerator. The "key" is a parameter
	// ref or handle label.
	resident map[string]AcceleratorID
	// residentBytes tracks per-accelerator resident footprint.
	residentBytes map[AcceleratorID]int64
	// queueDepth tracks outstanding work per accelerator for queueing
	// cost estimates and least-loaded placement.
	queueDepth map[AcceleratorID]int
}

// NewState builds an empty pool.
func NewState() *State {
	return &State{
		accs:          make(map[AcceleratorID]*Accelerator),
		resident:      make(map[string]AcceleratorID),
		residentBytes: make(map[AcceleratorID]int64),
		queueDepth:    make(map[AcceleratorID]int),
	}
}

// AddAccelerator registers a device in the pool.
func (s *State) AddAccelerator(a *Accelerator) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.accs[a.ID]; dup {
		return fmt.Errorf("cluster: duplicate accelerator %q", a.ID)
	}
	s.accs[a.ID] = a
	s.order = append(s.order, a.ID)
	return nil
}

// Accelerator returns the accelerator by ID, or nil.
func (s *State) Accelerator(id AcceleratorID) *Accelerator {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.accs[id]
}

// Accelerators returns all accelerators in registration order.
func (s *State) Accelerators() []*Accelerator {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Accelerator, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.accs[id])
	}
	return out
}

// Remote returns the non-local accelerators in registration order.
func (s *State) Remote() []*Accelerator {
	var out []*Accelerator
	for _, a := range s.Accelerators() {
		if !a.Local {
			out = append(out, a)
		}
	}
	return out
}

// SetResident records that object key is materialized on acc, occupying
// bytes of device memory. Sizes are not tracked per key, so setting a
// key again re-homes it without releasing the bytes it was first
// recorded with.
func (s *State) SetResident(key string, acc AcceleratorID, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resident[key] = acc
	s.residentBytes[acc] += bytes
}

// ResidentOn returns where key is materialized, if anywhere.
func (s *State) ResidentOn(key string) (AcceleratorID, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, ok := s.resident[key]
	return id, ok
}

// ResidentBytes returns the resident footprint on acc.
func (s *State) ResidentBytes(acc AcceleratorID) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.residentBytes[acc]
}

// IncQueue adds one unit of outstanding work on acc for least-loaded
// placement.
func (s *State) IncQueue(acc AcceleratorID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queueDepth[acc]++
}

// QueueDepth returns the outstanding-work depth on acc.
func (s *State) QueueDepth(acc AcceleratorID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.queueDepth[acc]
}

// LeastLoaded returns the remote accelerator with the smallest queue
// depth (ties broken by registration order), or nil if the pool has no
// remote devices.
func (s *State) LeastLoaded() *Accelerator {
	var best *Accelerator
	bestDepth := 0
	for _, a := range s.Remote() {
		d := s.QueueDepth(a.ID)
		if best == nil || d < bestDepth {
			best, bestDepth = a, d
		}
	}
	return best
}

// SetCongestion updates the congestion factor on an accelerator's link —
// the runtime-hint-adaptation extension point (§3.3).
func (s *State) SetCongestion(acc AcceleratorID, c float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.accs[acc]
	if !ok {
		return fmt.Errorf("cluster: unknown accelerator %q", acc)
	}
	a.Link.Congestion = c
	return nil
}
