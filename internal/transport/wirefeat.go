package transport

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"sync"

	"genie/internal/codec"
	"genie/internal/tensor"
)

// Wire features (DESIGN.md §11): optional byte-saving behaviors that
// ship zero bytes until a client negotiates them with MsgHello. The
// server grants the intersection of the requested mask and its own
// support; every granted feature changes only what a *sender that
// opted in* emits, so legacy peers and feature-off connections keep
// byte-identical frames.
const (
	// FeatCompress deflates frame payloads above a threshold, marked by
	// compFlag in the type byte.
	FeatCompress uint32 = 1 << iota
	// FeatDedup lets re-sent tensor payloads travel as 32-byte content
	// hashes (MsgUploadRef, binding kind 2) once the server has seen
	// the bytes.
	FeatDedup
	// 1<<2 is retired (same-key XOR/run-length re-uploads, MsgUploadDelta):
	// no workload ever sent one. The bit stays unassigned and out of
	// FeatAll, so a server with the default grant never grants it.
	_
	// FeatPlan lets a repeatable exec (Exec.Repeat) travel as MsgExecPlan:
	// the graph stays resident in a per-connection slot and later calls
	// send only the node fields that changed (plan.go). A client asks for
	// it on its own, once, before the first such exec on a connection
	// nobody negotiated.
	FeatPlan

	// FeatAll is every feature this build implements.
	FeatAll = FeatCompress | FeatDedup | FeatPlan
)

// compFlag marks a frame whose payload is deflate-compressed, prefixed
// with the uvarint raw length. Like envFlag, the bit is only honored
// when the remaining bits form a valid message type, so garbage bytes
// still surface as unknown types rather than bogus decompression.
const compFlag = 0x40

// compressMin is the smallest payload worth deflating: below this the
// flate header overhead and CPU beat any savings.
const compressMin = 512

// HashSize is the content-hash width (SHA-256).
const HashSize = sha256.Size

// ContentHash fingerprints a tensor's full identity — dtype, shape,
// raw bytes, and quantization scales — for upload dedup. Keying dedup
// on content rather than key name is what makes the cache safe: two
// keys with equal bytes share one upload, and a key whose bytes
// changed never false-hits (DESIGN.md §11).
func ContentHash(t *tensor.Tensor) [HashSize]byte {
	h := sha256.New()
	var hdr [8]byte
	hdr[0] = uint8(t.DType())
	hdr[1] = uint8(t.Shape().Rank())
	_, _ = h.Write(hdr[:2])
	for _, d := range t.Shape() {
		binary.LittleEndian.PutUint32(hdr[:4], uint32(d))
		_, _ = h.Write(hdr[:4])
	}
	_, _ = h.Write(t.Bytes())
	if sc := t.Scales(); sc != nil {
		hdr[0] = uint8(t.QuantAxis())
		_, _ = h.Write(hdr[:1])
		for _, s := range sc {
			binary.LittleEndian.PutUint32(hdr[:4], math.Float32bits(s))
			_, _ = h.Write(hdr[:4])
		}
	}
	var out [HashSize]byte
	h.Sum(out[:0])
	return out
}

// --- Hello: feature negotiation ---

// EncodeHello serializes a feature request/grant mask (both directions
// use the same 4-byte payload).
func EncodeHello(features uint32) []byte {
	var w codec.Writer
	w.U32(features)
	return w.B
}

// DecodeHello parses a feature mask payload.
func DecodeHello(b []byte) (uint32, error) {
	r := codec.NewReader(b)
	f := r.U32()
	return f, frameErr(r.Err())
}

// --- UploadRef: dedup by content hash ---

// UploadRef stores a tensor the server has already seen under a new
// (or the same) key, transferring only its content hash.
type UploadRef struct {
	Key  string
	Hash [HashSize]byte
}

// EncodeUploadRef serializes an UploadRef payload.
func EncodeUploadRef(u *UploadRef) []byte {
	var w codec.Writer
	putStr(&w, u.Key)
	w.Raw(u.Hash[:])
	return w.B
}

// DecodeUploadRef parses an UploadRef payload.
func DecodeUploadRef(b []byte) (*UploadRef, error) {
	r := codec.NewReader(b)
	u := &UploadRef{Key: r.Str()}
	copy(u.Hash[:], r.Take(HashSize))
	return u, frameErr(r.Err())
}

// --- frame payload compression ---

// Compression state is reused across frames (DESIGN.md §11.3): a
// BestSpeed flate.Writer is about 1.2 MB and an inflater about 40 KB,
// too much to allocate per frame. Reset returns either to its initial
// state, so reuse changes no byte on the wire.

// wireBufCap bounds the scratch buffers kept for reuse: a buffer that
// grew past it to carry an unusually large frame (a weight upload) is
// left to the GC instead of pinning that much memory in the pool.
// Steady-state frames are at most about 400 KB (a full prefill's
// delta-KV reply).
const wireBufCap = 512 << 10

// deflaters is a free list of BestSpeed writers, bounded by
// GOMAXPROCS: no more writers can be compressing at once, and each
// retained one costs 1.2 MB, so an unbounded sync.Pool would hold (and
// the GC roughly double at peak) far more than the path needs.
var deflaters struct {
	mu   sync.Mutex
	free []*flate.Writer
}

// getDeflater returns a BestSpeed writer reset to write into w.
func getDeflater(w io.Writer) *flate.Writer {
	deflaters.mu.Lock()
	if n := len(deflaters.free); n > 0 {
		fw := deflaters.free[n-1]
		deflaters.free = deflaters.free[:n-1]
		deflaters.mu.Unlock()
		fw.Reset(w)
		return fw
	}
	deflaters.mu.Unlock()
	// BestSpeed: the wire wins come from tensor-byte redundancy, and
	// level 1 captures most of it at a fraction of the CPU of higher
	// levels — this sits on the decode critical path. NewWriter only
	// fails on an invalid level.
	fw, _ := flate.NewWriter(w, flate.BestSpeed)
	return fw
}

// putDeflater returns fw to the free list, or drops it when the list
// already holds one writer per P. The writer is detached from its
// output first so a pooled writer never pins a frame buffer.
func putDeflater(fw *flate.Writer) {
	fw.Reset(io.Discard)
	deflaters.mu.Lock()
	if len(deflaters.free) < runtime.GOMAXPROCS(0) {
		deflaters.free = append(deflaters.free, fw)
	}
	deflaters.mu.Unlock()
}

// inflater is a reusable flate reader together with the byte reader it
// inflates from, so a pooled decode allocates neither.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser
}

var inflaters = sync.Pool{New: func() any {
	z := new(inflater)
	z.fr = flate.NewReader(&z.src)
	return z
}}

// sendBufs and recvBufs recycle the scratch buffers of compressed
// frames: the deflate output on send and the compressed body on
// receive, both garbage once the frame is written or inflated. Two
// pools, because the two roles settle at different sizes (the send
// side reserves the whole raw length up front): a buffer sized by one
// role would be regrown by the other.
var sendBufs, recvBufs = bufPool(), bufPool()

func bufPool() *sync.Pool {
	return &sync.Pool{New: func() any { return new(bytes.Buffer) }}
}

func getBuf(p *sync.Pool) *bytes.Buffer {
	b := p.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBuf(p *sync.Pool, b *bytes.Buffer) {
	if b != nil && b.Cap() <= wireBufCap {
		p.Put(b)
	}
}

// compressPayload deflates raw into uvarint(len(raw)) + flate bytes,
// held in a pooled buffer the caller hands back with releaseCompressed
// once the frame is written. It returns nil when compression does not
// pay (too small, or the deflated form is not smaller) — the caller
// then sends raw without compFlag, so incompressible payloads cost
// zero extra bytes.
func compressPayload(raw []byte) *bytes.Buffer {
	if len(raw) < compressMin {
		return nil
	}
	b := getBuf(sendBufs)
	// Reserve the raw length: tensor bytes deflate by about a tenth, so
	// the output fits and a buffer is never regrown mid-frame. Only an
	// incompressible payload outgrows it, and that one is sent raw.
	b.Grow(len(raw))
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(raw)))])
	fw := getDeflater(b)
	_, err := fw.Write(raw)
	if err == nil {
		err = fw.Close()
	}
	putDeflater(fw)
	if err != nil || b.Len() >= len(raw) {
		putBuf(sendBufs, b)
		return nil
	}
	return b
}

// releaseCompressed returns a compressPayload result (nil is a no-op).
// Its bytes must not be used afterwards.
func releaseCompressed(b *bytes.Buffer) { putBuf(sendBufs, b) }

// maxInflate is deflate's largest expansion (RFC 1951): a 258-byte
// match coded in 2 bits.
const maxInflate = 1032

// decompressPayload reverses compressPayload. Every malformed input —
// bad varint, oversized claim, corrupt deflate stream, length
// mismatch — is a FrameError, never a panic: this is attacker-facing
// surface (see fuzz_test.go). A raw length the compressed bytes could
// not inflate to is refused before the output is allocated, so a peer
// cannot make the receiver allocate more than maxInflate times what it
// sent. The inflated payload is a fresh slice the caller owns; p is not
// retained.
func decompressPayload(p []byte) ([]byte, error) {
	rawLen, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, frameErrorf("transport: corrupt compressed frame header")
	}
	if rawLen > maxFrame || rawLen > maxInflate*uint64(len(p)-n) {
		return nil, frameErrorf("transport: %d compressed bytes claim %d", len(p)-n, rawLen)
	}
	z := inflaters.Get().(*inflater)
	defer func() {
		z.src.Reset(nil) // a pooled inflater must not pin p
		inflaters.Put(z)
	}()
	z.src.Reset(p[n:])
	// Reset discards whatever state the previous frame — valid or
	// corrupt — left behind; it cannot fail without a preset dictionary.
	_ = z.fr.(flate.Resetter).Reset(&z.src, nil)
	raw := make([]byte, int(rawLen))
	if _, err := io.ReadFull(z.fr, raw); err != nil {
		return nil, frameErrorf("transport: corrupt compressed frame: %v", err)
	}
	// One extra read distinguishes "exactly rawLen bytes" from a stream
	// that kept going — a length lie either way.
	var scratch [1]byte
	if m, _ := z.fr.Read(scratch[:]); m != 0 {
		return nil, frameErrorf("transport: compressed frame longer than declared")
	}
	return raw, nil
}

// writeFrameCompressed writes one frame whose payload cp was already
// produced by compressPayload, setting compFlag in the type byte.
func writeFrameCompressed(w io.Writer, t MsgType, env Envelope, cp []byte) error {
	return writeFrame(w, byte(t)|compFlag, env, cp)
}

// ReadFrameEnv reads one frame plus its trace envelope (zero when the
// peer sent an untraced frame), transparently inflating compressed
// payloads. wireLen is the payload length as it crossed the wire
// (compressed size for compressed frames), for counter accounting.
// Decompression capability is unconditional — only *sending* is
// negotiated — so a reply can be compressed the moment the HelloOK
// grant is issued.
//
// Flag bits in the type byte are only meaningful on frames this
// protocol emits, which always carry a valid message type under them.
// A stripped type outside the protocol (e.g. a peer probing with 0xfa)
// is NOT a traced or compressed frame: the byte passes through
// untouched — no envelope read, no inflation — so the dispatch layer
// rejects it instead of the reader stalling on bytes that were never
// sent.
func ReadFrameEnv(r io.Reader) (_ MsgType, _ Envelope, _ []byte, wireLen int, _ error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, Envelope{}, nil, 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxFrame {
		return 0, Envelope{}, nil, 0, frameErrorf("transport: frame of %d bytes exceeds limit", n)
	}
	var env Envelope
	t := hdr[4]
	compressed := false
	// Flag bits are only meaningful over a valid message type (see
	// above): anything else passes through raw so dispatch rejects the
	// byte instead of the reader misparsing it.
	if t&(envFlag|compFlag) != 0 && validType(MsgType(t&^(envFlag|compFlag))) {
		if t&envFlag != 0 {
			var eb [envSize]byte
			if _, err := io.ReadFull(r, eb[:]); err != nil {
				return 0, Envelope{}, nil, 0, err
			}
			env.Trace = binary.LittleEndian.Uint64(eb[:8])
			env.Span = binary.LittleEndian.Uint64(eb[8:])
		}
		compressed = t&compFlag != 0
		t &^= envFlag | compFlag
	}
	wireLen = int(n)
	if compressed {
		// The compressed body is garbage once inflated: read it into
		// pooled scratch. The inflated payload is the caller's own.
		b := getBuf(recvBufs)
		defer putBuf(recvBufs, b)
		b.Grow(int(n))
		body := b.AvailableBuffer()[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			return 0, Envelope{}, nil, 0, err
		}
		raw, err := decompressPayload(body)
		if err != nil {
			return 0, Envelope{}, nil, 0, err
		}
		return MsgType(t), env, raw, wireLen, nil
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, Envelope{}, nil, 0, err
	}
	return MsgType(t), env, payload, wireLen, nil
}
