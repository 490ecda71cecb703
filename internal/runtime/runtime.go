// Package runtime is Genie's client-side execution engine: it carries
// captured SRGs to execution sites (the local device or remote backends),
// manages remote-resident objects by key+epoch, and records the metrics
// the evaluation reports (latency, network volume, modeled GPU busy
// time).
//
// The package implements the paper's four evaluation modes (§4) over
// the same model graphs, so their outputs can be compared
// token-for-token. Local — everything on the client's own device — is
// the in-process oracle. The three remote modes are configurations of
// one executor (Session.forward runs a pass as a sequence of hops), not
// three implementations:
//
//   - Naive (semantics-blind): one hop per pass; every call re-uploads
//     all weights, no state survives between calls, every output comes
//     back.
//   - ΔKV (semantics-blind + transport caching): weights and KV stay
//     resident, but the blind runtime cuts a hop at every module and
//     materializes every call's outputs back to the client.
//   - Semantics-Aware: the SRG drives one fused hop per step; weights and
//     caches are pinned remotely by handle; only the next token and its
//     logits cross the wire.
//
// kvcache's prefix-cached and prefill/decode-split runners and pool's
// sharded runner are further configurations of the same executor: they
// supply who executes a hop (Placement) and the prefix cache around
// prefill (PrefixCache), and nothing else.
package runtime

import (
	"fmt"
	"time"

	"genie/internal/device"
	"genie/internal/exec"
	"genie/internal/lazy"
	"genie/internal/srg"
	"genie/internal/tensor"
	"genie/internal/transport"
)

// localSpec models the client machine's own accelerator in Local mode
// (the paper's upper bound runs client and GPU in the same box).
var localSpec = device.A100

// Mode selects an execution strategy.
type Mode int

// The four evaluation modes of §4.
const (
	ModeLocal Mode = iota
	ModeNaive
	ModeDeltaKV
	ModeSemAware
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeLocal:
		return "local"
	case ModeNaive:
		return "naive"
	case ModeDeltaKV:
		return "delta_kv"
	case ModeSemAware:
		return "semantics_aware"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode converts the String form back to a Mode.
func ParseMode(s string) (Mode, error) {
	for _, m := range []Mode{ModeLocal, ModeNaive, ModeDeltaKV, ModeSemAware} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("runtime: unknown mode %q", s)
}

// Endpoint abstracts a remote accelerator server. *transport.Client
// satisfies it over a real socket; tests may substitute in-process fakes.
type Endpoint interface {
	Upload(key string, data *tensor.Tensor) (*transport.UploadOK, error)
	Exec(x *transport.Exec) (*transport.ExecOK, error)
	Fetch(key string, epoch uint32) (*tensor.Tensor, error)
	Free(key string) error
	Stats() (*transport.Stats, error)
}

// Metrics aggregates one phase's measurements.
type Metrics struct {
	Wall     time.Duration
	NetBytes int64
	RPCCalls int64
	// GPUBusy is the modeled device time reported by the backend.
	GPUBusy time.Duration
}

// Add accumulates.
func (m *Metrics) Add(o Metrics) {
	m.Wall += o.Wall
	m.NetBytes += o.NetBytes
	m.RPCCalls += o.RPCCalls
	m.GPUBusy += o.GPUBusy
}

// Utilization returns GPU busy time over wall time (the evaluation's
// "GPU Util" column).
func (m Metrics) Utilization() float64 {
	if m.Wall == 0 {
		return 0
	}
	return float64(m.GPUBusy) / float64(m.Wall)
}

// BindAll resolves every leaf of a builder's graph from its registered
// data — the local execution binder.
func BindAll(b *lazy.Builder) exec.Binder {
	return func(op, ref string) (*tensor.Tensor, error) {
		if op == "param" {
			if t, ok := b.ParamData(ref); ok {
				return t, nil
			}
			return nil, fmt.Errorf("runtime: no param data for %q", ref)
		}
		if t, ok := b.InputData(ref); ok {
			return t, nil
		}
		return nil, fmt.Errorf("runtime: no input data for %q", ref)
	}
}

// RunLocal evaluates a captured graph entirely in-process and returns all
// node values.
func RunLocal(b *lazy.Builder) (map[int32]*tensor.Tensor, error) {
	vals, err := exec.Graph(b.Graph(), BindAll(b))
	if err != nil {
		return nil, err
	}
	out := make(map[int32]*tensor.Tensor, len(vals))
	for id, t := range vals {
		out[int32(id)] = t
	}
	return out, nil
}

// RunLocalKeep evaluates a captured graph in-process with activation
// lifetime tracking: only the keep nodes' values are retained and
// returned; every other intermediate is released back to the tensor
// scratch arena at its last use, so steady-state decode loops recycle
// activation buffers instead of reallocating per token.
func RunLocalKeep(b *lazy.Builder, keep map[int32]bool) (map[int32]*tensor.Tensor, error) {
	need := make(map[srg.NodeID]bool, len(keep))
	for id := range keep {
		need[srg.NodeID(id)] = true
	}
	vals, err := exec.GraphEphemeral(b.Graph(), BindAll(b), need)
	if err != nil {
		return nil, err
	}
	out := make(map[int32]*tensor.Tensor, len(vals))
	for id, t := range vals {
		out[int32(id)] = t
	}
	return out, nil
}

// InstallWeights uploads every parameter of a captured graph to the
// endpoint under its ref — the one-time provisioning step of the ΔKV and
// Semantics-Aware modes ("weights remain remote"). Returns total bytes
// installed.
func InstallWeights(ep Endpoint, b *lazy.Builder) (int64, error) {
	var total int64
	for _, n := range b.Graph().Nodes() {
		if n.Op != "param" {
			continue
		}
		data, ok := b.ParamData(n.Ref)
		if !ok {
			return total, fmt.Errorf("runtime: param %q has no data", n.Ref)
		}
		ack, err := ep.Upload(n.Ref, data)
		if err != nil {
			return total, fmt.Errorf("runtime: install %q: %w", n.Ref, err)
		}
		total += ack.Bytes
	}
	return total, nil
}
