package device

import (
	"testing"
	"time"
)

func TestKernelTimeRoofline(t *testing.T) {
	spec := Spec{PeakFLOPS: 1e12, MemBandwidth: 1e11, LaunchOverhead: time.Microsecond}
	// Compute-bound kernel: 1e12 FLOPs, tiny bytes → ~1 s.
	got := spec.KernelTime(1e12, 1000)
	if got < time.Second || got > time.Second+time.Millisecond {
		t.Errorf("compute-bound kernel %v", got)
	}
	// Memory-bound kernel: tiny FLOPs, 1e11 bytes → ~1 s.
	got = spec.KernelTime(1000, 1e11)
	if got < time.Second || got > time.Second+time.Millisecond {
		t.Errorf("memory-bound kernel %v", got)
	}
	// Zero-cost kernel pays only launch overhead.
	if got := spec.KernelTime(0, 0); got != time.Microsecond {
		t.Errorf("empty kernel %v", got)
	}
}

// computeBound reports whether KernelTime prices the kernel by its FLOPs
// alone: doubling the bytes it moves leaves its time unchanged.
func computeBound(s Spec, flops float64, bytes int64) bool {
	return s.KernelTime(flops, bytes) == s.KernelTime(flops, 2*bytes)
}

// TestComputeBoundClassification: on either side of the machine balance
// (10 FLOPs/byte here) only one roofline term prices the kernel.
func TestComputeBoundClassification(t *testing.T) {
	spec := Spec{PeakFLOPS: 1e12, MemBandwidth: 1e11}
	if !computeBound(spec, 1e9, 1e6) { // intensity 1000
		t.Error("high-intensity kernel should be compute-bound")
	}
	if computeBound(spec, 1e6, 1e9) { // intensity 0.001
		t.Error("low-intensity kernel should be memory-bound")
	}
}

func TestCatalogueLookup(t *testing.T) {
	for _, name := range []string{"a100-80g", "h100-80g", "a10g-24g", "cpu-host"} {
		spec, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if spec.PeakFLOPS <= 0 || spec.MemBandwidth <= 0 || spec.MemBytes <= 0 {
			t.Errorf("%s has invalid envelope: %+v", name, spec)
		}
	}
	if _, err := ByName("tpu-v9"); err == nil {
		t.Error("unknown device should fail")
	}
}

func TestKindString(t *testing.T) {
	if KindGPU.String() != "gpu" || KindCPU.String() != "cpu" || KindTPU.String() != "tpu" {
		t.Error("kind strings wrong")
	}
}

// TestDecodeIsMemoryBound pins the asymmetry the paper's phase-aware
// scheduling exploits: GPT-J prefill is compute-bound while single-token
// decode is memory-bound at realized (batch-1) efficiency. The spec here
// mirrors the calibrated device the evaluation uses (machine balance
// ~10.7 FLOPs/byte; a 72-token prompt has intensity ~72, one decode
// token ~1).
func TestDecodeIsMemoryBound(t *testing.T) {
	spec := Spec{PeakFLOPS: 4.5e12, MemBandwidth: 420e9}
	const params = 6.05e9
	weightBytes := int64(2 * params)
	prefillFLOPs := 2 * params * 72
	decodeFLOPs := 2 * params
	if !computeBound(spec, prefillFLOPs, weightBytes) {
		t.Error("72-token prefill should be compute-bound")
	}
	if computeBound(spec, decodeFLOPs, weightBytes) {
		t.Error("single-token decode should be memory-bound")
	}
}
