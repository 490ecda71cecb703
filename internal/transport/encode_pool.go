package transport

import "genie/internal/tensor"

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

// strWireSize is the encoded size of a u16-length-prefixed string,
// honoring the codec's truncation at 64 KiB.
func strWireSize(s string) int {
	if len(s) > 0xffff {
		return 2 + 0xffff
	}
	return 2 + len(s)
}

// tensorWireSize is the encoded size of buf.tensor's output.
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
	e := buf{b: encPool.Get(strWireSize(u.Key) + tensorWireSize(u.Data))[:0]}
	e.str(u.Key)
	e.tensor(u.Data)
	return e.b
}

// EncodeExecPooled is EncodeExec into pooled scratch. Pass the payload
// back via ReleaseEncoded once the frame has been written.
func EncodeExecPooled(x *Exec) ([]byte, error) { return encodeGraphFrame(nil, x) }

// encodeGraphFrame encodes hdr | u32 len | graph | tail into pooled
// scratch: a MsgExec payload when hdr is empty, a plan frame that
// installs the graph when hdr is a plan header.
func encodeGraphFrame(hdr []byte, x *Exec) ([]byte, error) {
	// The graph serializes through its own writer; borrow scratch for it
	// too, seeded at its last-seen class so steady-state encodes of the
	// same step graph never grow it.
	gw := &sliceWriter{b: encPool.Get(4096)[:0]}
	defer ReleaseEncoded(gw.b)
	if err := x.Graph.Encode(gw); err != nil {
		return nil, err
	}
	e := buf{b: encPool.Get(len(hdr) + 4 + len(gw.b) + execTailSize(x))[:0]}
	e.b = append(e.b, hdr...)
	e.u32(uint32(len(gw.b)))
	e.b = append(e.b, gw.b...)
	e.execTail(x)
	return e.b, nil
}
