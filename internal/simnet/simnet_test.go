package simnet

import (
	"testing"
	"time"
)

func TestResourceSerializes(t *testing.T) {
	r := NewResource("gpu")
	s1, e1 := r.ReserveAt(0, time.Second)
	if s1 != 0 || e1 != time.Second {
		t.Errorf("first reservation [%v,%v)", s1, e1)
	}
	// Overlapping request queues behind the first.
	s2, e2 := r.ReserveAt(500*time.Millisecond, time.Second)
	if s2 != time.Second || e2 != 2*time.Second {
		t.Errorf("second reservation [%v,%v)", s2, e2)
	}
	// A later request after idle starts immediately.
	s3, _ := r.ReserveAt(5*time.Second, time.Second)
	if s3 != 5*time.Second {
		t.Errorf("third reservation at %v", s3)
	}
	if r.FreeAt() != 6*time.Second {
		t.Errorf("free at %v", r.FreeAt())
	}
	r.Reset()
	if r.FreeAt() != 0 {
		t.Error("reset failed")
	}
}

// TestPipelineOverlapOnResources demonstrates the throughput win the
// scheduler's CNN pipelining targets: two stages on two devices overlap
// across a stream, so N requests take ~N×stage instead of N×2×stage.
func TestPipelineOverlapOnResources(t *testing.T) {
	const n = 10
	stage := 100 * time.Millisecond

	// Sequential: both stages on one device.
	single := NewResource("gpu0")
	var at time.Duration
	for i := 0; i < n; i++ {
		_, end := single.ReserveAt(at, 2*stage)
		at = end
	}
	sequential := at

	// Pipelined: stage 1 on gpu0, stage 2 on gpu1.
	g0, g1 := NewResource("gpu0"), NewResource("gpu1")
	var done time.Duration
	for i := 0; i < n; i++ {
		_, e1 := g0.ReserveAt(0, stage)
		_, e2 := g1.ReserveAt(e1, stage)
		done = e2
	}
	if done >= sequential {
		t.Errorf("pipelined %v should beat sequential %v", done, sequential)
	}
	// Steady-state bound: ~ (n+1) × stage.
	if done > time.Duration(n+2)*stage {
		t.Errorf("pipelined %v worse than steady-state bound", done)
	}
}
