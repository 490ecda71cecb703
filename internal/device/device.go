// Package device models AI accelerators and hosts: peak compute, memory
// bandwidth, capacity, and a roofline kernel-time model. It is the
// substitute for the paper's physical A100-80GB testbed — the evaluation's
// GPU-side numbers (kernel time, utilization) are produced by this model
// rather than real silicon, which DESIGN.md §1 argues preserves the
// paper's ratios.
package device

import (
	"fmt"
	"time"
)

// Kind distinguishes broad device classes for heterogeneous placement.
type Kind uint8

// Device classes.
const (
	KindGPU Kind = iota
	KindCPU
	KindTPU
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindGPU:
		return "gpu"
	case KindCPU:
		return "cpu"
	case KindTPU:
		return "tpu"
	}
	return "unknown"
}

// Spec describes an accelerator's performance envelope.
type Spec struct {
	Name string
	Kind Kind
	// PeakFLOPS is sustained half-precision FLOP/s (tensor-core class for
	// GPUs).
	PeakFLOPS float64
	// MemBandwidth is HBM/DRAM bandwidth in bytes/s.
	MemBandwidth float64
	// MemBytes is device memory capacity.
	MemBytes int64
	// LaunchOverhead is fixed per-kernel launch latency.
	LaunchOverhead time.Duration
	// CostPerHour is a relative rental price used by the global
	// scheduler's affinity scoring.
	CostPerHour float64
}

// Catalogue of devices used across the evaluation. Numbers are public
// datasheet values (sustained, not peak-marketing).
var (
	// A100 is the paper's server GPU (A100-80GB SXM).
	A100 = Spec{
		Name: "a100-80g", Kind: KindGPU,
		PeakFLOPS:      190e12, // ~60% of 312 TFLOPS fp16 peak, sustained
		MemBandwidth:   1.6e12, // ~80% of 2.0 TB/s
		MemBytes:       80 << 30,
		LaunchOverhead: 6 * time.Microsecond,
		CostPerHour:    4.0,
	}
	// H100 is a faster option for heterogeneous-placement experiments.
	H100 = Spec{
		Name: "h100-80g", Kind: KindGPU,
		PeakFLOPS:      600e12,
		MemBandwidth:   2.7e12,
		MemBytes:       80 << 30,
		LaunchOverhead: 5 * time.Microsecond,
		CostPerHour:    8.0,
	}
	// A10G is a memory-bandwidth-poor, cheap GPU (recommendation-friendly
	// capacity box in the global-scheduler experiments).
	A10G = Spec{
		Name: "a10g-24g", Kind: KindGPU,
		PeakFLOPS:      70e12,
		MemBandwidth:   0.5e12,
		MemBytes:       24 << 30,
		LaunchOverhead: 8 * time.Microsecond,
		CostPerHour:    1.2,
	}
	// CPUHost is the paper's CPU-only client.
	CPUHost = Spec{
		Name: "cpu-host", Kind: KindCPU,
		PeakFLOPS:      2e12,
		MemBandwidth:   100e9,
		MemBytes:       256 << 30,
		LaunchOverhead: 100 * time.Nanosecond,
		CostPerHour:    0.5,
	}
)

// ByName resolves a catalogue spec.
func ByName(name string) (Spec, error) {
	for _, s := range []Spec{A100, H100, A10G, CPUHost} {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("device: unknown spec %q", name)
}

// KernelTime estimates execution time for a kernel with the given cost
// using the roofline model: time = launch + max(compute, memory) where
// compute = flops/peak and memory = bytes/bandwidth. A kernel is
// compute-bound when its operational intensity exceeds the device's
// machine balance — exactly the prefill/decode asymmetry the paper's
// semantics exploit (§2.2).
func (s Spec) KernelTime(flops float64, bytes int64) time.Duration {
	compute := flops / s.PeakFLOPS
	memory := float64(bytes) / s.MemBandwidth
	t := compute
	if memory > t {
		t = memory
	}
	return s.LaunchOverhead + time.Duration(t*float64(time.Second))
}
