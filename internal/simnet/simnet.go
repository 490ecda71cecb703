// Package simnet is the virtual timeline of paper-scale experiments:
// serial resources (GPUs, links) booked in closed form. The evaluation
// cannot move 149 GB of weights through a real socket per data point,
// so Table 2/3 regeneration executes the *same plan structure* (calls,
// transfers, kernels) against simulated resources with calibrated
// parameters — see DESIGN.md §1 for why this preserves the paper's
// ratios.
package simnet

import "time"

// Resource is a serial, FIFO resource on the virtual timeline (one GPU
// queue, one link direction), booked in closed form by ReserveAt.
type Resource struct {
	// Name labels the resource in traces.
	Name string
	free time.Duration
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
	return start, end
}

// FreeAt returns when the resource next becomes idle.
func (r *Resource) FreeAt() time.Duration { return r.free }

// Reset makes the resource idle from t=0.
func (r *Resource) Reset() { r.free = 0 }
