package cluster

import (
	"testing"
	"time"

	"genie/internal/device"
)

func newPool(t *testing.T) *State {
	t.Helper()
	s := NewState()
	for _, id := range []AcceleratorID{"local0", "gpu0", "gpu1"} {
		a := &Accelerator{ID: id, Spec: device.A100,
			Link: Link{Bandwidth: 25e9 / 8, RTT: time.Millisecond}}
		if id == "local0" {
			a.Local = true
		}
		if err := s.AddAccelerator(a); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestAddAndLookup(t *testing.T) {
	s := newPool(t)
	if s.Accelerator("gpu0") == nil {
		t.Error("gpu0 missing")
	}
	if s.Accelerator("nope") != nil {
		t.Error("unknown id should be nil")
	}
	if err := s.AddAccelerator(&Accelerator{ID: "gpu0"}); err == nil {
		t.Error("duplicate id should fail")
	}
	if got := len(s.Accelerators()); got != 3 {
		t.Errorf("%d accelerators", got)
	}
	if got := len(s.Remote()); got != 2 {
		t.Errorf("%d remote accelerators, want 2 (local excluded)", got)
	}
}

func TestResidencyLifecycle(t *testing.T) {
	s := newPool(t)
	s.SetResident("w0", "gpu0", 100)
	s.SetResident("w1", "gpu0", 50)
	if acc, ok := s.ResidentOn("w0"); !ok || acc != "gpu0" {
		t.Errorf("w0 on %q %v", acc, ok)
	}
	if got := s.ResidentBytes("gpu0"); got != 150 {
		t.Errorf("resident bytes %d", got)
	}
	if _, ok := s.ResidentOn("w2"); ok {
		t.Error("w2 was never set resident")
	}
}

func TestQueueDepthAndLeastLoaded(t *testing.T) {
	s := newPool(t)
	if s.LeastLoaded() == nil {
		t.Fatal("least loaded should exist")
	}
	s.IncQueue("gpu0")
	s.IncQueue("gpu0")
	s.IncQueue("gpu1")
	if got := s.LeastLoaded().ID; got != "gpu1" {
		t.Errorf("least loaded %q", got)
	}
	if d := s.QueueDepth("gpu0"); d != 2 {
		t.Errorf("queue depth %d", d)
	}
}

func TestLeastLoadedEmptyPool(t *testing.T) {
	s := NewState()
	if s.LeastLoaded() != nil {
		t.Error("empty pool should have no least-loaded device")
	}
}

func TestLinkTransferTime(t *testing.T) {
	l := Link{Bandwidth: 1e9, RTT: 2 * time.Millisecond}
	// 1 GB at 1 GB/s = 1 s + half RTT.
	got := l.TransferTime(1e9)
	if got < time.Second || got > time.Second+10*time.Millisecond {
		t.Errorf("transfer time %v", got)
	}
	if l.TransferTime(0) != 0 {
		t.Error("zero bytes should be free")
	}
}

func TestLinkCongestion(t *testing.T) {
	l := Link{Bandwidth: 1000}
	if l.EffectiveBandwidth() != 1000 {
		t.Error("no congestion should pass through")
	}
	l.Congestion = 0.75
	if l.EffectiveBandwidth() != 250 {
		t.Errorf("effective bw %v", l.EffectiveBandwidth())
	}
	l.Congestion = 5 // clamp
	if l.EffectiveBandwidth() <= 0 {
		t.Error("over-congestion must not zero the link")
	}
	l.Congestion = -1
	if l.EffectiveBandwidth() != 1000 {
		t.Error("negative congestion clamps to zero")
	}
}

func TestSetCongestion(t *testing.T) {
	s := newPool(t)
	if err := s.SetCongestion("gpu0", 0.5); err != nil {
		t.Fatal(err)
	}
	if got := s.Accelerator("gpu0").Link.Congestion; got != 0.5 {
		t.Errorf("congestion %v", got)
	}
	if err := s.SetCongestion("nope", 0.5); err == nil {
		t.Error("unknown accelerator should fail")
	}
}
