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
	"encoding/binary"
	"errors"
	"fmt"
	"io"

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
	if len(payload) > maxFrame {
		return frameErrorf("transport: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [frameHeader + envSize]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	n := frameHeader
	if env.Zero() {
		hdr[4] = byte(t)
	} else {
		hdr[4] = byte(t) | envFlag
		binary.LittleEndian.PutUint64(hdr[5:13], env.Trace)
		binary.LittleEndian.PutUint64(hdr[13:21], env.Span)
		n += envSize
	}
	if _, err := w.Write(hdr[:n]); err != nil {
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

// --- primitive codec helpers ---

type buf struct{ b []byte }

// str writes a u16-length-prefixed string. Strings beyond the 64 KiB
// prefix limit are truncated consistently (prefix and bytes together) so
// the stream can never desynchronize; object keys and refs are far below
// the limit in practice.
func (e *buf) str(s string) {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(len(s)))
	e.b = append(e.b, l[:]...)
	e.b = append(e.b, s...)
}

func (e *buf) u8(v uint8)   { e.b = append(e.b, v) }
func (e *buf) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *buf) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

func (e *buf) tensor(t *tensor.Tensor) {
	e.u8(uint8(t.DType()))
	e.u8(uint8(t.Shape().Rank()))
	for _, d := range t.Shape() {
		e.u32(uint32(d))
	}
	e.u32(uint32(len(t.Bytes())))
	e.b = append(e.b, t.Bytes()...)
	// Quantized tensors carry their scale section inline: u8 axis,
	// u32 count, count×f32. Only the I8 dtype — which predates nothing
	// on this wire — has the section, so every legacy encoding is
	// byte-identical.
	if t.DType() == tensor.I8 {
		sc := t.Scales()
		e.u8(uint8(t.QuantAxis()))
		e.u32(uint32(len(sc)))
		for _, s := range sc {
			e.u32(f32ToBits(s))
		}
	}
}

type rdr struct {
	b   []byte
	off int
	err error
}

func (r *rdr) fail(msg string) {
	if r.err == nil {
		r.err = frameErrorf("transport: %s at offset %d", msg, r.off)
	}
}

func (r *rdr) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.fail("short buffer")
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *rdr) str() string {
	b := r.take(2)
	if b == nil {
		return ""
	}
	n := int(binary.LittleEndian.Uint16(b))
	s := r.take(n)
	return string(s)
}

func (r *rdr) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *rdr) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *rdr) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *rdr) tensor() *tensor.Tensor {
	dt := tensor.DType(r.u8())
	if dt > tensor.I8 {
		r.fail("invalid dtype byte")
		return nil
	}
	rank := int(r.u8())
	if rank > 16 {
		r.fail("rank too large")
		return nil
	}
	shape := make(tensor.Shape, rank)
	for i := range shape {
		shape[i] = int(r.u32())
	}
	n := int(r.u32())
	data := r.take(n)
	if r.err != nil {
		return nil
	}
	// Copy: the frame buffer is reused by callers.
	cp := make([]byte, n)
	copy(cp, data)
	t, err := tensor.FromBytes(dt, shape, cp)
	if err != nil {
		r.fail(err.Error())
		return nil
	}
	if dt == tensor.I8 {
		axis := int(r.u8())
		ns := int(r.u32())
		if r.err != nil {
			return nil
		}
		if ns > 0 {
			if axis >= len(shape) || ns != shape[axis] {
				r.fail("scale count does not match quant axis")
				return nil
			}
			scales := make([]float32, ns)
			for i := range scales {
				scales[i] = f32FromBits(r.u32())
			}
			if r.err != nil {
				return nil
			}
			if err := t.AttachScales(axis, scales); err != nil {
				r.fail(err.Error())
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
	var e buf
	e.str(u.Key)
	e.tensor(u.Data)
	return e.b
}

// DecodeUpload parses an Upload payload.
func DecodeUpload(b []byte) (*Upload, error) {
	r := rdr{b: b}
	u := &Upload{Key: r.str(), Data: r.tensor()}
	return u, r.err
}

// UploadOK acknowledges an upload with the store epoch it landed in.
type UploadOK struct {
	Epoch uint32
	Bytes int64
}

// EncodeUploadOK serializes an UploadOK payload.
func EncodeUploadOK(a *UploadOK) []byte {
	var e buf
	e.u32(a.Epoch)
	e.u64(uint64(a.Bytes))
	return e.b
}

// DecodeUploadOK parses an UploadOK payload.
func DecodeUploadOK(b []byte) (*UploadOK, error) {
	r := rdr{b: b}
	a := &UploadOK{Epoch: r.u32(), Bytes: int64(r.u64())}
	return a, r.err
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
	w := &sliceWriter{}
	if err := x.Graph.Encode(w); err != nil {
		return nil, err
	}
	var e buf
	e.u32(uint32(len(w.b)))
	e.b = append(e.b, w.b...)
	e.execTail(x)
	return e.b, nil
}

// execTail writes what follows the graph in every exec frame, full or
// plan: the bindings, the keep map and the want list.
func (e *buf) execTail(x *Exec) {
	e.u32(uint32(len(x.Binds)))
	for _, bd := range x.Binds {
		e.str(bd.Ref)
		switch {
		case bd.Inline != nil && bd.Cache:
			e.u8(3)
			e.tensor(bd.Inline)
		case bd.Inline != nil:
			e.u8(1)
			e.tensor(bd.Inline)
		case bd.Hash != [HashSize]byte{}:
			e.u8(2)
			e.b = append(e.b, bd.Hash[:]...)
		default:
			e.u8(0)
			e.str(bd.Key)
			e.u32(bd.Epoch)
		}
	}
	e.u32(uint32(len(x.Keep)))
	for _, id := range keepOrder(x.Keep) {
		e.u32(uint32(id))
		e.str(x.Keep[id])
	}
	e.u32(uint32(len(x.Want)))
	for _, id := range x.Want {
		e.u32(uint32(id))
	}
}

// execTailSize is the encoded size of execTail's output.
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
	sortNodeIDs(ids)
	return ids
}

func sortNodeIDs(ids []srg.NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// DecodeExec parses an Exec payload.
func DecodeExec(b []byte) (*Exec, error) {
	r := rdr{b: b}
	gBytes := r.take(int(r.u32()))
	if r.err != nil {
		return nil, r.err
	}
	g, err := srg.Decode(bytesReader(gBytes))
	if err != nil {
		return nil, err
	}
	x := &Exec{Graph: g}
	r.execTail(x)
	return x, r.err
}

// execTail reads what execTail wrote into x.
func (r *rdr) execTail(x *Exec) {
	nBind := int(r.u32())
	if r.err == nil && nBind > 1<<20 {
		r.fail(fmt.Sprintf("%d bindings", nBind))
	}
	for i := 0; i < nBind && r.err == nil; i++ {
		bd := Binding{Ref: r.str()}
		switch kind := r.u8(); kind {
		case 0:
			bd.Key = r.str()
			bd.Epoch = r.u32()
		case 1:
			bd.Inline = r.tensor()
		case 2:
			copy(bd.Hash[:], r.take(HashSize))
		case 3:
			bd.Inline = r.tensor()
			bd.Cache = true
		default:
			r.fail(fmt.Sprintf("invalid binding kind %d", kind))
		}
		x.Binds = append(x.Binds, bd)
	}
	nKeep := int(r.u32())
	if r.err == nil && nKeep > 1<<20 {
		r.fail(fmt.Sprintf("%d keeps", nKeep))
	}
	if r.err == nil && nKeep > 0 {
		x.Keep = make(map[srg.NodeID]string, nKeep)
	}
	for i := 0; i < nKeep && r.err == nil; i++ {
		id := srg.NodeID(r.u32())
		x.Keep[id] = r.str()
	}
	nWant := int(r.u32())
	if r.err == nil && nWant > 1<<20 {
		r.fail(fmt.Sprintf("%d wants", nWant))
	}
	for i := 0; i < nWant && r.err == nil; i++ {
		x.Want = append(x.Want, srg.NodeID(r.u32()))
	}
}

func bytesReader(b []byte) io.Reader { return &byteRdr{b: b} }

type byteRdr struct {
	b   []byte
	off int
}

func (r *byteRdr) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
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
	var e buf
	e.u32(uint32(len(a.Results)))
	ids := make([]srg.NodeID, 0, len(a.Results))
	for id := range a.Results {
		ids = append(ids, id)
	}
	sortNodeIDs(ids)
	for _, id := range ids {
		e.u32(uint32(id))
		e.tensor(a.Results[id])
	}
	e.u32(uint32(len(a.Kept)))
	keys := make([]string, 0, len(a.Kept))
	for k := range a.Kept {
		keys = append(keys, k)
	}
	sortStrings(keys)
	for _, k := range keys {
		e.str(k)
		e.u64(uint64(a.Kept[k]))
	}
	e.u32(a.Epoch)
	e.u64(uint64(a.GPUTimeNs))
	e.str(a.GraphFP)
	return e.b
}

func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// DecodeExecOK parses an ExecOK payload.
func DecodeExecOK(b []byte) (*ExecOK, error) {
	r := rdr{b: b}
	a := &ExecOK{}
	nRes := int(r.u32())
	if r.err == nil && nRes > 1<<20 {
		return nil, frameErrorf("transport: %d results", nRes)
	}
	if nRes > 0 {
		a.Results = make(map[srg.NodeID]*tensor.Tensor, nRes)
	}
	for i := 0; i < nRes && r.err == nil; i++ {
		id := srg.NodeID(r.u32())
		a.Results[id] = r.tensor()
	}
	nKept := int(r.u32())
	if r.err == nil && nKept > 1<<20 {
		return nil, frameErrorf("transport: %d kepts", nKept)
	}
	if nKept > 0 {
		a.Kept = make(map[string]int64, nKept)
	}
	for i := 0; i < nKept && r.err == nil; i++ {
		k := r.str()
		a.Kept[k] = int64(r.u64())
	}
	a.Epoch = r.u32()
	a.GPUTimeNs = int64(r.u64())
	a.GraphFP = r.str()
	return a, r.err
}

// Fetch retrieves a resident object.
type Fetch struct {
	Key   string
	Epoch uint32
}

// EncodeFetch serializes a Fetch payload.
func EncodeFetch(f *Fetch) []byte {
	var e buf
	e.str(f.Key)
	e.u32(f.Epoch)
	return e.b
}

// DecodeFetch parses a Fetch payload.
func DecodeFetch(b []byte) (*Fetch, error) {
	r := rdr{b: b}
	f := &Fetch{Key: r.str(), Epoch: r.u32()}
	return f, r.err
}

// EncodeTensorMsg serializes a MsgTensor payload.
func EncodeTensorMsg(t *tensor.Tensor) []byte {
	var e buf
	e.tensor(t)
	return e.b
}

// DecodeTensorMsg parses a MsgTensor payload.
func DecodeTensorMsg(b []byte) (*tensor.Tensor, error) {
	r := rdr{b: b}
	t := r.tensor()
	return t, r.err
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
	var e buf
	e.u32(s.Epoch)
	e.u64(uint64(s.ResidentBytes))
	e.u64(uint64(s.ResidentCount))
	e.u64(uint64(s.GPUBusyNs))
	e.u64(uint64(s.ExecCalls))
	return e.b
}

// DecodeStats parses a Stats payload.
func DecodeStats(b []byte) (*Stats, error) {
	r := rdr{b: b}
	s := &Stats{
		Epoch:         r.u32(),
		ResidentBytes: int64(r.u64()),
		ResidentCount: int64(r.u64()),
		GPUBusyNs:     int64(r.u64()),
		ExecCalls:     int64(r.u64()),
	}
	return s, r.err
}

// EncodeErr serializes an error message payload.
func EncodeErr(err error) []byte {
	var e buf
	e.str(err.Error())
	return e.b
}

// DecodeErr parses an error payload into an error value.
func DecodeErr(b []byte) error {
	r := rdr{b: b}
	msg := r.str()
	if r.err != nil {
		return r.err
	}
	return &RemoteError{Msg: msg}
}

// RemoteError is an error reported by the server.
type RemoteError struct{ Msg string }

// Error implements the error interface.
func (e *RemoteError) Error() string { return "remote: " + e.Msg }
