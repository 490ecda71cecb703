package transport

import (
	"genie/internal/obs"
)

// maxKind bounds the per-kind telemetry tables (MsgExecPlan is the
// highest assigned type).
const maxKind = int(MsgExecPlan) + 1

// Telemetry accounts wire traffic per RPC kind into an obs.Registry:
// exact frame bytes (header + envelope + payload) sent and received,
// and round trips initiated. A nil *Telemetry is a no-op, so conns stay
// zero-cost when the process is not instrumented. Counters are indexed
// by MsgType at call time — no map lookups on the datapath.
type Telemetry struct {
	sent  [maxKind]*obs.Counter
	recv  [maxKind]*obs.Counter
	calls [maxKind]*obs.Counter
}

// NewTelemetry registers the transport counter families in reg and
// returns the instrument. Sharing one Telemetry across conns aggregates
// their traffic into the same series.
func NewTelemetry(reg *obs.Registry) *Telemetry {
	t := &Telemetry{}
	for k := 1; k < maxKind; k++ {
		kind := KindName(MsgType(k))
		t.sent[k] = reg.Counter("genie_transport_sent_bytes_total",
			"frame bytes written per RPC kind", "kind", kind)
		t.recv[k] = reg.Counter("genie_transport_recv_bytes_total",
			"frame bytes read per RPC kind", "kind", kind)
		t.calls[k] = reg.Counter("genie_transport_calls_total",
			"RPC round trips initiated per kind", "kind", kind)
	}
	return t
}

func (t *Telemetry) onSend(mt MsgType, n int64) {
	if t == nil || int(mt) >= maxKind || mt == 0 {
		return
	}
	t.sent[mt].Add(n)
}

func (t *Telemetry) onRecv(mt MsgType, n int64) {
	if t == nil || int(mt) >= maxKind || mt == 0 {
		return
	}
	t.recv[mt].Add(n)
}

func (t *Telemetry) onCall(mt MsgType) {
	if t == nil || int(mt) >= maxKind || mt == 0 {
		return
	}
	t.calls[mt].Inc()
}

// SentBytes returns the accounted bytes written for one kind (tests,
// eval summaries).
func (t *Telemetry) SentBytes(mt MsgType) int64 {
	if t == nil || int(mt) >= maxKind || mt == 0 {
		return 0
	}
	return t.sent[mt].Value()
}

// RecvBytes returns the accounted bytes read for one kind.
func (t *Telemetry) RecvBytes(mt MsgType) int64 {
	if t == nil || int(mt) >= maxKind || mt == 0 {
		return 0
	}
	return t.recv[mt].Value()
}

// Calls returns the round trips initiated for one kind.
func (t *Telemetry) Calls(mt MsgType) int64 {
	if t == nil || int(mt) >= maxKind || mt == 0 {
		return 0
	}
	return t.calls[mt].Value()
}
