// Package transport implements Genie's network datapath: a length-prefixed
// binary RPC protocol carrying tensors, SRG subgraphs, and remote-object
// handles between clients and disaggregated accelerator servers (§3.4).
//
// Real bytes move over real sockets; the package also provides a pinned
// buffer pool (the DPDK-managed-memory analogue) and a link shaper that
// emulates the paper's 25 Gbps testbed at laptop scale. Per-conn traffic
// counters feed the evaluation's network-volume metrics.
//
// A Conn carries one round trip at a time. On top of the legacy frames
// sit three negotiated features (wirefeat.go; DESIGN.md §11): payload
// compression, content-hash dedup for tensors, and resident step plans
// for graphs (plan.go) — a decode loop's SRG crosses a connection once
// and later steps send only the node fields that changed. All are dark
// until a MsgHello grants them; a connection that never says Hello
// speaks the legacy protocol to the byte.
package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"genie/internal/codec"
	"genie/internal/srg"
	"genie/internal/tensor"
)

// MsgType identifies a frame's payload.
type MsgType uint8

// Protocol messages.
const (
	// MsgPing / MsgPong measure RTT and probe liveness.
	MsgPing MsgType = iota + 1
	MsgPong
	// MsgUpload stores a tensor server-side under a key.
	MsgUpload
	// MsgUploadOK acknowledges with the object's epoch.
	MsgUploadOK
	// MsgExec runs an SRG subgraph with bindings.
	MsgExec
	// MsgExecOK returns requested results.
	MsgExecOK
	// MsgFetch retrieves a resident object by key.
	MsgFetch
	// MsgTensor is a fetched tensor.
	MsgTensor
	// MsgFree releases a resident object.
	MsgFree
	// MsgFreeOK acknowledges a free.
	MsgFreeOK
	// MsgErr carries a server-side error string.
	MsgErr
	// MsgCrash injects a failure: the server drops all resident state and
	// advances its epoch (fault-tolerance testing, §3.5).
	MsgCrash
	// MsgCrashOK acknowledges injected failure.
	MsgCrashOK
	// MsgStats requests server metrics.
	MsgStats
	// MsgStatsOK returns them.
	MsgStatsOK
	// MsgHello negotiates optional wire features (compression, dedup,
	// resident plans); the payload is a u32 feature mask.
	MsgHello
	// MsgHelloOK grants the intersection of requested and supported
	// features back to the client.
	MsgHelloOK
	// MsgUploadRef stores a tensor the server has already seen, by
	// content hash alone — the dedup fast path (DESIGN.md §11).
	MsgUploadRef
	// MsgUploadDelta is retired: it carried same-key XOR/run-length
	// re-uploads (feature bit 1<<2), which no workload ever sent. The
	// number stays reserved so MsgExecPlan keeps its value; a server
	// answers the type with MsgErr, like any message it does not handle.
	MsgUploadDelta
	// MsgExecPlan is MsgExec against a graph resident in one of the
	// connection's plan slots (FeatPlan, plan.go): the payload installs a
	// full graph in the slot or patches the one there. The reply is
	// MsgExecOK.
	MsgExecPlan
)

// maxFrame bounds a frame payload (1 GiB) against malformed peers.
const maxFrame = 1 << 30

// FrameError marks a malformed wire frame or payload: an oversize
// length prefix, a truncated buffer, or a field that fails validation.
// Frame errors are fatal for the stream — after one, the reader can no
// longer trust frame boundaries — so Conn closes itself on receipt
// (see Conn.RecvEnv) and Classify reports them as ClassFatal.
type FrameError struct{ msg string }

// Error implements the error interface.
func (e *FrameError) Error() string { return e.msg }

// frameErrorf builds a FrameError with fmt-style formatting.
func frameErrorf(format string, args ...any) *FrameError {
	return &FrameError{msg: fmt.Sprintf(format, args...)}
}

// IsFrameError reports whether err (or anything it wraps) is a
// malformed-frame error.
func IsFrameError(err error) bool {
	var fe *FrameError
	return errors.As(err, &fe)
}

// envFlag marks a frame whose header carries a trace envelope. MsgType
// values stay well below 0x80, so the bit is free in the type byte and
// untraced frames keep the original 5-byte wire format — tracing
// disabled costs zero bytes on the wire.
const envFlag = 0x80

// frameHeader is the untraced header size: u32 len | u8 type.
const frameHeader = 5

// envSize is the extra header carried by traced frames: u64 trace |
// u64 span.
const envSize = 16

// Envelope carries trace context across the wire so a request's span
// tree survives the process boundary: the server parents its spans
// under the client-side span that issued the RPC. The zero Envelope
// means "not traced" and adds no bytes to the frame.
type Envelope struct {
	Trace uint64
	Span  uint64
}

// Zero reports whether the envelope carries no trace context.
func (e Envelope) Zero() bool { return e.Trace == 0 }

// wireSize returns the total frame size for a payload under env.
func (e Envelope) wireSize(payload int) int64 {
	if e.Zero() {
		return int64(payload) + frameHeader
	}
	return int64(payload) + frameHeader + envSize
}

// WriteFrameEnv writes one length-prefixed frame: u32 len | u8 type |
// payload untraced, or, when the envelope is non-zero, u32 len |
// u8 type|envFlag | u64 trace | u64 span | payload.
func WriteFrameEnv(w io.Writer, t MsgType, env Envelope, payload []byte) error {
	return writeFrame(w, byte(t), env, payload)
}

// writeFrame writes one frame under type byte tb, a MsgType that may
// carry compFlag, setting envFlag itself when env is non-zero.
func writeFrame(w io.Writer, tb byte, env Envelope, payload []byte) error {
	if len(payload) > maxFrame {
		return frameErrorf("transport: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [frameHeader + envSize]byte
	h := codec.Writer{B: hdr[:0]}
	h.U32(uint32(len(payload)))
	if env.Zero() {
		h.U8(tb)
	} else {
		h.U8(tb | envFlag)
		h.U64(env.Trace)
		h.U64(env.Span)
	}
	if _, err := w.Write(h.B); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// validType reports whether t is a message this protocol defines.
func validType(t MsgType) bool { return t >= MsgPing && t <= MsgExecPlan }

// KindName returns the stable lowercase label for a message type, used
// for per-kind telemetry series.
func KindName(t MsgType) string {
	switch t {
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	case MsgUpload:
		return "upload"
	case MsgUploadOK:
		return "upload_ok"
	case MsgExec:
		return "exec"
	case MsgExecOK:
		return "exec_ok"
	case MsgFetch:
		return "fetch"
	case MsgTensor:
		return "tensor"
	case MsgFree:
		return "free"
	case MsgFreeOK:
		return "free_ok"
	case MsgErr:
		return "err"
	case MsgCrash:
		return "crash"
	case MsgCrashOK:
		return "crash_ok"
	case MsgStats:
		return "stats"
	case MsgStatsOK:
		return "stats_ok"
	case MsgHello:
		return "hello"
	case MsgHelloOK:
		return "hello_ok"
	case MsgUploadRef:
		return "upload_ref"
	case MsgUploadDelta:
		return "upload_delta"
	case MsgExecPlan:
		return "exec_plan"
	}
	return "unknown"
}

// --- codec helpers ---

// Message payloads are written and read through the one binary codec
// (internal/codec) that the SRG encoding shares. Every failure a payload
// decoder meets is typed as a FrameError by frameErr, except what srg
// reports about a graph section, which stays srg's plain error.

// frameErr types a payload decoder's codec failure (nil stays nil).
func frameErr(err error) error {
	if err == nil {
		return nil
	}
	return &FrameError{msg: "transport: " + err.Error()}
}

// putStr appends a u16-length-prefixed string. Strings beyond the 64 KiB
// prefix limit are truncated consistently (prefix and bytes together) so
// the stream can never desynchronize; object keys and refs are far below
// the limit in practice.
func putStr(w *codec.Writer, s string) { w.Str(s[:min(len(s), codec.MaxStr)]) }

func putTensor(w *codec.Writer, t *tensor.Tensor) {
	w.U8(uint8(t.DType()))
	w.U8(uint8(t.Shape().Rank()))
	for _, d := range t.Shape() {
		w.U32(uint32(d))
	}
	w.U32(uint32(len(t.Bytes())))
	w.Raw(t.Bytes())
	// Quantized tensors carry their scale section inline: u8 axis,
	// u32 count, count×f32. Only the I8 dtype — which predates nothing
	// on this wire — has the section, so every legacy encoding is
	// byte-identical.
	if t.DType() == tensor.I8 {
		sc := t.Scales()
		w.U8(uint8(t.QuantAxis()))
		w.U32(uint32(len(sc)))
		for _, s := range sc {
			w.U32(math.Float32bits(s))
		}
	}
}

func readTensor(r *codec.Reader) *tensor.Tensor {
	dt := tensor.DType(r.U8())
	if dt > tensor.I8 {
		r.Fail("invalid dtype byte")
		return nil
	}
	rank := int(r.U8())
	if rank > 16 {
		r.Fail("rank too large")
		return nil
	}
	shape := make(tensor.Shape, rank)
	for i := range shape {
		shape[i] = int(r.U32())
	}
	data := r.Take(int(r.U32()))
	if r.Err() != nil {
		return nil
	}
	// Copy: the frame buffer is reused by callers.
	t, err := tensor.FromBytes(dt, shape, bytes.Clone(data))
	if err != nil {
		r.Fail("%v", err)
		return nil
	}
	if dt == tensor.I8 {
		axis := int(r.U8())
		ns := int(r.U32())
		if r.Err() != nil {
			return nil
		}
		if ns > 0 {
			if axis >= len(shape) || ns != shape[axis] {
				r.Fail("scale count does not match quant axis")
				return nil
			}
			scales := make([]float32, ns)
			for i := range scales {
				scales[i] = math.Float32frombits(r.U32())
			}
			if r.Err() != nil {
				return nil
			}
			if err := t.AttachScales(axis, scales); err != nil {
				r.Fail("%v", err)
				return nil
			}
		}
	}
	return t
}

// --- message payloads ---

// Upload stores a tensor under Key on the server.
type Upload struct {
	Key  string
	Data *tensor.Tensor
}

// EncodeUpload serializes an Upload payload.
//
//lint:ignore deadexport test reference: codec round-trip and fuzz tests encode uploads
func EncodeUpload(u *Upload) []byte {
	var w codec.Writer
	putStr(&w, u.Key)
	putTensor(&w, u.Data)
	return w.B
}

// DecodeUpload parses an Upload payload.
func DecodeUpload(b []byte) (*Upload, error) {
	r := codec.NewReader(b)
	u := &Upload{Key: r.Str(), Data: readTensor(&r)}
	return u, frameErr(r.Err())
}

// UploadOK acknowledges an upload with the store epoch it landed in.
type UploadOK struct {
	Epoch uint32
	Bytes int64
}

// EncodeUploadOK serializes an UploadOK payload.
func EncodeUploadOK(a *UploadOK) []byte {
	var w codec.Writer
	w.U32(a.Epoch)
	w.U64(uint64(a.Bytes))
	return w.B
}

// DecodeUploadOK parses an UploadOK payload.
func DecodeUploadOK(b []byte) (*UploadOK, error) {
	r := codec.NewReader(b)
	a := &UploadOK{Epoch: r.U32(), Bytes: int64(r.U64())}
	return a, frameErr(r.Err())
}

// Binding supplies data for one SRG leaf ref: either an inline tensor or
// a reference to a server-resident object.
type Binding struct {
	Ref string
	// Inline carries the data in the call (nil when Key is set).
	Inline *tensor.Tensor
	// Key names a server-resident object (empty when Inline is set).
	Key string
	// Epoch the client believes the object is from; the server rejects
	// stale epochs, so a session learns its state was lost.
	Epoch uint32

	// Hash replaces Inline with a 32-byte content hash of bytes the
	// server has already seen (dedup, negotiated via FeatDedup). Zero
	// when unused.
	Hash [HashSize]byte
	// Cache asks the server to remember this inline tensor's content
	// hash so later calls can bind it by Hash. Only honored — and only
	// encoded — on feature-negotiated connections; with Cache false the
	// encoding is byte-identical to the legacy format.
	Cache bool
}

// Exec runs a subgraph server-side.
type Exec struct {
	Graph *srg.Graph
	Binds []Binding
	// Keep maps node IDs to keys: those outputs stay resident
	// server-side under the key (returned by handle, not by value).
	Keep map[srg.NodeID]string
	// Want lists node IDs whose values return inline in ExecOK.
	Want []srg.NodeID
	// Repeat hints that the caller issues this graph call after call with
	// the same structure (a decode loop), so a connection may keep it
	// resident and send only the node fields that changed (plan.go). It
	// is never encoded; a server sees it set on execs that arrived as
	// plan frames, which carry no attestation (ExecOK.GraphFP is empty:
	// the graph as a whole was not on the wire, and ExecVerified, the
	// attestation's reader, always ships it whole).
	Repeat bool
}

// EncodeExec serializes an Exec payload: u32 len | graph | tail.
//
//lint:ignore deadexport test reference: codec round-trip and fuzz tests encode execs
func EncodeExec(x *Exec) ([]byte, error) {
	w := codec.Writer{B: make([]byte, 0, graphFrameSize(x))}
	if err := putGraphFrame(&w, x); err != nil {
		return nil, err
	}
	return w.B, nil
}

// putGraphFrame appends u32 len | graph | tail: a MsgExec payload, or
// what follows the header of a plan frame that installs the graph.
func putGraphFrame(w *codec.Writer, x *Exec) error {
	at := len(w.B)
	w.U32(0)
	var err error
	if w.B, err = x.Graph.AppendBinary(w.B); err != nil {
		return err
	}
	w.SetU32(at, uint32(len(w.B)-at-4))
	putExecTail(w, x)
	return nil
}

// graphFrameSize is the encoded size of putGraphFrame's output.
func graphFrameSize(x *Exec) int { return 4 + x.Graph.BinarySize() + execTailSize(x) }

// putExecTail writes what follows the graph in every exec frame, full or
// plan: the bindings, the keep map and the want list.
func putExecTail(w *codec.Writer, x *Exec) {
	w.U32(uint32(len(x.Binds)))
	for _, bd := range x.Binds {
		putStr(w, bd.Ref)
		switch {
		case bd.Inline != nil && bd.Cache:
			w.U8(3)
			putTensor(w, bd.Inline)
		case bd.Inline != nil:
			w.U8(1)
			putTensor(w, bd.Inline)
		case bd.Hash != [HashSize]byte{}:
			w.U8(2)
			w.Raw(bd.Hash[:])
		default:
			w.U8(0)
			putStr(w, bd.Key)
			w.U32(bd.Epoch)
		}
	}
	w.U32(uint32(len(x.Keep)))
	for _, id := range keepOrder(x.Keep) {
		w.U32(uint32(id))
		putStr(w, x.Keep[id])
	}
	w.U32(uint32(len(x.Want)))
	for _, id := range x.Want {
		w.U32(uint32(id))
	}
}

// execTailSize is the encoded size of putExecTail's output.
func execTailSize(x *Exec) int {
	n := 4
	for i := range x.Binds {
		bd := &x.Binds[i]
		n += strWireSize(bd.Ref) + 1
		switch {
		case bd.Inline != nil:
			n += tensorWireSize(bd.Inline)
		case bd.Hash != [HashSize]byte{}:
			n += HashSize
		default:
			n += strWireSize(bd.Key) + 4
		}
	}
	n += 4
	for _, k := range x.Keep {
		n += 4 + strWireSize(k)
	}
	return n + 4 + 4*len(x.Want)
}

// keepOrder returns a Keep map's IDs ascending — deterministic encode
// order, so identical Execs serialize to identical bytes.
func keepOrder(keep map[srg.NodeID]string) []srg.NodeID {
	ids := make([]srg.NodeID, 0, len(keep))
	for id := range keep {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// DecodeExec parses an Exec payload.
func DecodeExec(b []byte) (*Exec, error) {
	r := codec.NewReader(b)
	gBytes := r.Take(int(r.U32()))
	if r.Err() != nil {
		return nil, frameErr(r.Err())
	}
	g, err := srg.Decode(gBytes)
	if err != nil {
		return nil, err
	}
	x := &Exec{Graph: g}
	readExecTail(&r, x)
	return x, frameErr(r.Err())
}

// readExecTail reads what putExecTail wrote into x.
func readExecTail(r *codec.Reader, x *Exec) {
	nBind := int(r.U32())
	if nBind > 1<<20 {
		r.Fail("%d bindings", nBind)
	}
	for i := 0; i < nBind && r.Err() == nil; i++ {
		bd := Binding{Ref: r.Str()}
		switch kind := r.U8(); kind {
		case 0:
			bd.Key = r.Str()
			bd.Epoch = r.U32()
		case 1:
			bd.Inline = readTensor(r)
		case 2:
			copy(bd.Hash[:], r.Take(HashSize))
		case 3:
			bd.Inline = readTensor(r)
			bd.Cache = true
		default:
			r.Fail("invalid binding kind %d", kind)
		}
		x.Binds = append(x.Binds, bd)
	}
	nKeep := int(r.U32())
	if nKeep > 1<<20 {
		r.Fail("%d keeps", nKeep)
	}
	if r.Err() == nil && nKeep > 0 {
		x.Keep = make(map[srg.NodeID]string, nKeep)
	}
	for i := 0; i < nKeep && r.Err() == nil; i++ {
		id := srg.NodeID(r.U32())
		x.Keep[id] = r.Str()
	}
	nWant := int(r.U32())
	if nWant > 1<<20 {
		r.Fail("%d wants", nWant)
	}
	for i := 0; i < nWant && r.Err() == nil; i++ {
		x.Want = append(x.Want, srg.NodeID(r.U32()))
	}
}

// ExecOK returns an execution's requested results.
type ExecOK struct {
	// Results holds the Want values by node ID, in request order.
	Results map[srg.NodeID]*tensor.Tensor
	// Kept echoes the keys materialized server-side with their sizes.
	Kept map[string]int64
	// Epoch is the server store epoch the kept objects live in.
	Epoch uint32
	// GPUTimeNs is the modeled device busy time for this execution.
	GPUTimeNs int64
	// GraphFP attests which graph the server actually executed: the
	// fingerprint of the received SRG. Clients compare it against their
	// own plan's fingerprint to detect tampering or misrouting — the
	// verifiable-computation hook of the paper's §5 "trust and
	// verifiability" challenge.
	GraphFP string
}

// EncodeExecOK serializes an ExecOK payload.
func EncodeExecOK(a *ExecOK) []byte {
	var w codec.Writer
	w.U32(uint32(len(a.Results)))
	ids := make([]srg.NodeID, 0, len(a.Results))
	for id := range a.Results {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		w.U32(uint32(id))
		putTensor(&w, a.Results[id])
	}
	w.U32(uint32(len(a.Kept)))
	keys := make([]string, 0, len(a.Kept))
	for k := range a.Kept {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		putStr(&w, k)
		w.U64(uint64(a.Kept[k]))
	}
	w.U32(a.Epoch)
	w.U64(uint64(a.GPUTimeNs))
	putStr(&w, a.GraphFP)
	return w.B
}

// DecodeExecOK parses an ExecOK payload.
func DecodeExecOK(b []byte) (*ExecOK, error) {
	r := codec.NewReader(b)
	a := &ExecOK{}
	nRes := int(r.U32())
	if nRes > 1<<20 {
		return nil, frameErrorf("transport: %d results", nRes)
	}
	if nRes > 0 {
		a.Results = make(map[srg.NodeID]*tensor.Tensor, nRes)
	}
	for i := 0; i < nRes && r.Err() == nil; i++ {
		id := srg.NodeID(r.U32())
		a.Results[id] = readTensor(&r)
	}
	nKept := int(r.U32())
	if nKept > 1<<20 {
		return nil, frameErrorf("transport: %d kepts", nKept)
	}
	if nKept > 0 {
		a.Kept = make(map[string]int64, nKept)
	}
	for i := 0; i < nKept && r.Err() == nil; i++ {
		k := r.Str()
		a.Kept[k] = int64(r.U64())
	}
	a.Epoch = r.U32()
	a.GPUTimeNs = int64(r.U64())
	a.GraphFP = r.Str()
	return a, frameErr(r.Err())
}

// Fetch retrieves a resident object.
type Fetch struct {
	Key   string
	Epoch uint32
}

// EncodeFetch serializes a Fetch payload.
func EncodeFetch(f *Fetch) []byte {
	var w codec.Writer
	putStr(&w, f.Key)
	w.U32(f.Epoch)
	return w.B
}

// DecodeFetch parses a Fetch payload.
func DecodeFetch(b []byte) (*Fetch, error) {
	r := codec.NewReader(b)
	f := &Fetch{Key: r.Str(), Epoch: r.U32()}
	return f, frameErr(r.Err())
}

// EncodeTensorMsg serializes a MsgTensor payload.
func EncodeTensorMsg(t *tensor.Tensor) []byte {
	var w codec.Writer
	putTensor(&w, t)
	return w.B
}

// DecodeTensorMsg parses a MsgTensor payload.
func DecodeTensorMsg(b []byte) (*tensor.Tensor, error) {
	r := codec.NewReader(b)
	t := readTensor(&r)
	return t, frameErr(r.Err())
}

// Stats reports server-side counters.
type Stats struct {
	Epoch         uint32
	ResidentBytes int64
	ResidentCount int64
	GPUBusyNs     int64
	ExecCalls     int64
}

// EncodeStats serializes a Stats payload.
func EncodeStats(s *Stats) []byte {
	var w codec.Writer
	w.U32(s.Epoch)
	w.U64(uint64(s.ResidentBytes))
	w.U64(uint64(s.ResidentCount))
	w.U64(uint64(s.GPUBusyNs))
	w.U64(uint64(s.ExecCalls))
	return w.B
}

// DecodeStats parses a Stats payload.
func DecodeStats(b []byte) (*Stats, error) {
	r := codec.NewReader(b)
	s := &Stats{
		Epoch:         r.U32(),
		ResidentBytes: int64(r.U64()),
		ResidentCount: int64(r.U64()),
		GPUBusyNs:     int64(r.U64()),
		ExecCalls:     int64(r.U64()),
	}
	return s, frameErr(r.Err())
}

// EncodeErr serializes an error message payload.
func EncodeErr(err error) []byte {
	var w codec.Writer
	putStr(&w, err.Error())
	return w.B
}

// DecodeErr parses an error payload into an error value.
func DecodeErr(b []byte) error {
	r := codec.NewReader(b)
	msg := r.Str()
	if r.Err() != nil {
		return frameErr(r.Err())
	}
	return &RemoteError{Msg: msg}
}

// RemoteError is an error reported by the server.
type RemoteError struct{ Msg string }

// Error implements the error interface.
func (e *RemoteError) Error() string { return "remote: " + e.Msg }
