package scheduler

import (
	"fmt"
	"time"

	"genie/internal/cluster"
)

// Prober measures a live round trip to an accelerator's host.
type Prober interface {
	Ping() (time.Duration, error)
}

// AdaptHints is the §3.3 "runtime hint adaptation" extension point: it
// probes the live transport and refreshes the cluster's link model so
// subsequent scheduling decisions (placement, recomputation) use measured
// rather than configured conditions. The minimum of `samples` probes
// estimates propagation RTT (filtering queueing noise).
//
//lint:ignore deadexport facade only: the §3.3 runtime hint adaptation, demonstrated through the facade
func AdaptHints(cs *cluster.State, id cluster.AcceleratorID, p Prober, samples int) error {
	acc := cs.Accelerator(id)
	if acc == nil {
		return fmt.Errorf("scheduler: unknown accelerator %q", id)
	}
	if samples <= 0 {
		samples = 3
	}
	best := time.Duration(0)
	for i := 0; i < samples; i++ {
		rtt, err := p.Ping()
		if err != nil {
			return fmt.Errorf("scheduler: probe %q: %w", id, err)
		}
		if best == 0 || rtt < best {
			best = rtt
		}
	}
	acc.Link.RTT = best
	return nil
}

// ObserveTransfer folds a measured bulk transfer into the link's
// congestion estimate: if n bytes took elapsed, the achieved bandwidth
// relative to the nominal link rate implies how much of the link other
// traffic is consuming. Estimates are smoothed (EWMA, α=0.5) so one noisy
// sample does not whipsaw the recomputation policy.
//
//lint:ignore deadexport facade only: the §3.3 runtime hint adaptation, demonstrated through the facade
func ObserveTransfer(cs *cluster.State, id cluster.AcceleratorID, n int64, elapsed time.Duration) error {
	acc := cs.Accelerator(id)
	if acc == nil {
		return fmt.Errorf("scheduler: unknown accelerator %q", id)
	}
	if n <= 0 || elapsed <= 0 || acc.Link.Bandwidth <= 0 {
		return fmt.Errorf("scheduler: invalid transfer observation (%d bytes, %v)", n, elapsed)
	}
	achieved := float64(n) / elapsed.Seconds()
	frac := achieved / acc.Link.Bandwidth
	if frac > 1 {
		frac = 1
	}
	observed := 1 - frac
	prev := acc.Link.Congestion
	return cs.SetCongestion(id, 0.5*prev+0.5*observed)
}
