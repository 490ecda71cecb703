package transport

import (
	"genie/internal/codec"
	"genie/internal/tensor"
)

// Pooled encode scratch for the hot request paths (upload, exec). The
// non-pooled Encode* functions allocate a fresh slice per call, which is
// fine for replies and tests but puts the per-token client datapath —
// one exec encode per decode step, plus weight uploads at provisioning —
// at the mercy of the allocator. The pooled variants size the buffer
// exactly, borrow it from a BufferPool (the same pinned-memory analogue
// the tensors use, §3.4), and hand it back once the frame is on the
// wire. Encoded bytes are identical to the non-pooled forms.

// encPool recycles encode scratch buffers. Separate from any tensor
// pool: encode buffers live for exactly one call and stay small in
// count, so a modest per-class cap suffices.
var encPool = NewBufferPool(32)

// EncPoolStats exposes the encode scratch pool's counters (benchmarks
// and tests assert reuse on the steady-state path).
//
//lint:ignore deadexport test observation: encode-pool reuse tests read its counters
func EncPoolStats() PoolStats { return encPool.Stats() }

// ReleaseEncoded returns a buffer obtained from EncodeUploadPooled or
// EncodeExecPooled. Safe to call with any byte slice: buffers that did
// not come from the pool (or grew past their size class) are dropped.
func ReleaseEncoded(b []byte) {
	if cap(b) == 0 {
		return
	}
	encPool.Put(b[:len(b):cap(b)])
}

// strWireSize is the encoded size of putStr's output, honoring its
// truncation at 64 KiB.
func strWireSize(s string) int { return 2 + min(len(s), codec.MaxStr) }

// tensorWireSize is the encoded size of putTensor's output.
func tensorWireSize(t *tensor.Tensor) int {
	n := 2 + 4*t.Shape().Rank() + 4 + len(t.Bytes())
	if t.DType() == tensor.I8 {
		n += 5 + 4*len(t.Scales())
	}
	return n
}

// EncodeUploadPooled is EncodeUpload into pooled scratch. Pass the
// payload back via ReleaseEncoded once the frame has been written.
func EncodeUploadPooled(u *Upload) []byte {
	w := codec.Writer{B: encPool.Get(strWireSize(u.Key) + tensorWireSize(u.Data))[:0]}
	putStr(&w, u.Key)
	putTensor(&w, u.Data)
	return w.B
}

// EncodeExecPooled is EncodeExec into pooled scratch. Pass the payload
// back via ReleaseEncoded once the frame has been written.
func EncodeExecPooled(x *Exec) ([]byte, error) { return encodeGraphFrame(nil, x) }

// encodeGraphFrame encodes hdr | u32 len | graph | tail into pooled
// scratch sized to fit: a MsgExec payload when hdr is empty, a plan
// frame that installs the graph when hdr is a plan header. The graph is
// appended straight into the frame.
func encodeGraphFrame(hdr []byte, x *Exec) ([]byte, error) {
	w := codec.Writer{B: encPool.Get(len(hdr) + graphFrameSize(x))[:0]}
	w.Raw(hdr)
	if err := putGraphFrame(&w, x); err != nil {
		ReleaseEncoded(w.B)
		return nil, err
	}
	return w.B, nil
}
