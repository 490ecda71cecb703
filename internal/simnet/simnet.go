// Package simnet is a discrete-event simulator for paper-scale
// experiments: virtual time, serial resources (GPUs, links), and an event
// queue. The evaluation cannot move 149 GB of weights through a real
// socket per data point, so Table 2/3 regeneration executes the *same
// plan structure* (calls, transfers, kernels) against simulated resources
// with calibrated parameters — see DESIGN.md §1 for why this preserves
// the paper's ratios.
package simnet

import (
	"container/heap"
	"time"
)

// Sim is a discrete-event simulation with virtual time.
type Sim struct {
	now    time.Duration
	queue  eventHeap
	nextID int64
}

type event struct {
	at  time.Duration
	seq int64 // FIFO tie-break for determinism
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// New creates an empty simulation at t=0.
func New() *Sim { return &Sim{} }

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Schedule enqueues fn to run after delay d (>= 0).
//
//lint:ignore deadexport test reference: the discrete-event core the simulator tests pin
func (s *Sim) Schedule(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.nextID++
	heap.Push(&s.queue, event{at: s.now + d, seq: s.nextID, fn: fn})
}

// Run processes events until the queue drains, returning the final time.
//
//lint:ignore deadexport test reference: the discrete-event core the simulator tests pin
func (s *Sim) Run() time.Duration {
	for s.queue.Len() > 0 {
		e := heap.Pop(&s.queue).(event)
		s.now = e.at
		e.fn()
	}
	return s.now
}

// Resource is a serial, FIFO resource on the virtual timeline (one GPU
// queue, one link direction). It supports both the closed-form style
// (ReserveAt) used by sequential clients and event-driven use.
type Resource struct {
	// Name labels the resource in traces.
	Name string
	free time.Duration
	busy time.Duration
}

// NewResource creates an idle resource.
func NewResource(name string) *Resource { return &Resource{Name: name} }

// ReserveAt books the resource for dur starting no earlier than at;
// returns the actual [start, end) of the reservation.
func (r *Resource) ReserveAt(at, dur time.Duration) (start, end time.Duration) {
	start = at
	if r.free > start {
		start = r.free
	}
	end = start + dur
	r.free = end
	r.busy += dur
	return start, end
}

// Busy returns accumulated busy time (the GPU-utilization numerator).
//
//lint:ignore deadexport test reference: utilization numerator checked by simulator tests
func (r *Resource) Busy() time.Duration { return r.busy }

// FreeAt returns when the resource next becomes idle.
func (r *Resource) FreeAt() time.Duration { return r.free }

// Reset clears accounting and availability.
func (r *Resource) Reset() { r.free, r.busy = 0, 0 }
