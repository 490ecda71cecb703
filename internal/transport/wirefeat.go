package transport

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math"

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
	// FeatDelta lets a same-key re-upload travel as an XOR/run-length
	// delta against the previous version (MsgUploadDelta).
	FeatDelta
	// FeatPlan lets a repeatable exec (Exec.Repeat) travel as MsgExecPlan:
	// the graph stays resident in a per-connection slot and later calls
	// send only the node fields that changed (plan.go). A client asks for
	// it on its own, once, before the first such exec on a connection
	// nobody negotiated.
	FeatPlan

	// FeatAll is every feature this build implements.
	FeatAll = FeatCompress | FeatDedup | FeatDelta | FeatPlan
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

func f32ToBits(f float32) uint32   { return math.Float32bits(f) }
func f32FromBits(b uint32) float32 { return math.Float32frombits(b) }

// --- Hello: feature negotiation ---

// EncodeHello serializes a feature request/grant mask (both directions
// use the same 4-byte payload).
func EncodeHello(features uint32) []byte {
	var e buf
	e.u32(features)
	return e.b
}

// DecodeHello parses a feature mask payload.
func DecodeHello(b []byte) (uint32, error) {
	r := rdr{b: b}
	f := r.u32()
	return f, r.err
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
	var e buf
	e.str(u.Key)
	e.b = append(e.b, u.Hash[:]...)
	return e.b
}

// DecodeUploadRef parses an UploadRef payload.
func DecodeUploadRef(b []byte) (*UploadRef, error) {
	r := rdr{b: b}
	u := &UploadRef{Key: r.str()}
	copy(u.Hash[:], r.take(HashSize))
	return u, r.err
}

// --- UploadDelta: same-key re-upload as XOR/run-length delta ---

// UploadDelta replaces key's resident bytes with prev XOR delta. The
// dtype/shape must match the resident version (the client falls back
// to a full upload otherwise); Hash authenticates the reconstruction.
type UploadDelta struct {
	Key   string
	DType tensor.DType
	Shape tensor.Shape
	// Delta is the run-length-encoded XOR against the previous bytes.
	Delta []byte
	// Hash is the content hash of the NEW tensor; the server verifies
	// the reconstruction against it so a lost frame or stale base never
	// silently corrupts a weight.
	Hash [HashSize]byte
}

// EncodeUploadDelta serializes an UploadDelta payload.
func EncodeUploadDelta(u *UploadDelta) []byte {
	var e buf
	e.str(u.Key)
	e.u8(uint8(u.DType))
	e.u8(uint8(len(u.Shape)))
	for _, d := range u.Shape {
		e.u32(uint32(d))
	}
	e.b = append(e.b, u.Hash[:]...)
	e.u32(uint32(len(u.Delta)))
	e.b = append(e.b, u.Delta...)
	return e.b
}

// DecodeUploadDelta parses an UploadDelta payload.
func DecodeUploadDelta(b []byte) (*UploadDelta, error) {
	r := rdr{b: b}
	u := &UploadDelta{Key: r.str(), DType: tensor.DType(r.u8())}
	if r.err == nil && u.DType > tensor.I8 {
		return nil, frameErrorf("transport: invalid dtype byte in delta")
	}
	rank := int(r.u8())
	if r.err == nil && rank > 16 {
		return nil, frameErrorf("transport: delta rank too large")
	}
	u.Shape = make(tensor.Shape, rank)
	for i := range u.Shape {
		u.Shape[i] = int(r.u32())
	}
	copy(u.Hash[:], r.take(HashSize))
	n := int(r.u32())
	d := r.take(n)
	if r.err != nil {
		return nil, r.err
	}
	u.Delta = make([]byte, n)
	copy(u.Delta, d)
	return u, nil
}

// EncodeDelta run-length-encodes next XOR prev as repeated
// (uvarint zeroRun, uvarint litLen, litBytes) pairs. Equal-length
// inputs only; KV appends and weight updates touch a fraction of the
// bytes, so the zero runs dominate and the delta collapses.
func EncodeDelta(prev, next []byte) []byte {
	out := make([]byte, 0, len(next)/8+16)
	var tmp [binary.MaxVarintLen64]byte
	i := 0
	for i < len(next) {
		run := i
		for run < len(next) && next[run] == prev[run] {
			run++
		}
		lit := run
		// A literal ends once a zero run long enough to pay for its own
		// two varint headers appears (or the buffer ends).
		for lit < len(next) {
			z := lit
			for z < len(next) && next[z] == prev[z] {
				z++
			}
			if z-lit >= 4 || z == len(next) {
				break
			}
			lit = z + 1
		}
		out = append(out, tmp[:binary.PutUvarint(tmp[:], uint64(run-i))]...)
		out = append(out, tmp[:binary.PutUvarint(tmp[:], uint64(lit-run))]...)
		for j := run; j < lit; j++ {
			out = append(out, next[j]^prev[j])
		}
		i = lit
	}
	return out
}

// ApplyDelta reconstructs next from prev and an EncodeDelta stream.
// Malformed deltas (overrun, trailing garbage) return FrameErrors.
func ApplyDelta(prev, delta []byte) ([]byte, error) {
	next := make([]byte, len(prev))
	copy(next, prev)
	i, off := 0, 0
	for off < len(delta) {
		zero, n := binary.Uvarint(delta[off:])
		if n <= 0 {
			return nil, frameErrorf("transport: corrupt delta varint at %d", off)
		}
		off += n
		lit, n := binary.Uvarint(delta[off:])
		if n <= 0 {
			return nil, frameErrorf("transport: corrupt delta varint at %d", off)
		}
		off += n
		if zero > uint64(len(prev)-i) || lit > uint64(len(prev)-i)-zero {
			return nil, frameErrorf("transport: delta overruns %d-byte base", len(prev))
		}
		i += int(zero)
		if off+int(lit) > len(delta) {
			return nil, frameErrorf("transport: truncated delta literal at %d", off)
		}
		for j := 0; j < int(lit); j++ {
			next[i+j] ^= delta[off+j]
		}
		i += int(lit)
		off += int(lit)
	}
	return next, nil
}

// --- frame payload compression ---

// compressPayload deflates raw into uvarint(len(raw)) + flate bytes.
// It returns nil when compression does not pay (too small, or the
// deflated form is not smaller) — the caller then sends raw without
// compFlag, so incompressible payloads cost zero extra bytes.
func compressPayload(raw []byte) []byte {
	if len(raw) < compressMin {
		return nil
	}
	var b bytes.Buffer
	b.Grow(len(raw) / 2)
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(raw)))])
	// BestSpeed: the wire wins come from tensor-byte redundancy, and
	// level 1 captures most of it at a fraction of the CPU of higher
	// levels — this sits on the decode critical path.
	fw, err := flate.NewWriter(&b, flate.BestSpeed)
	if err != nil {
		return nil
	}
	if _, err := fw.Write(raw); err != nil {
		return nil
	}
	if err := fw.Close(); err != nil {
		return nil
	}
	if b.Len() >= len(raw) {
		return nil
	}
	return b.Bytes()
}

// decompressPayload reverses compressPayload. Every malformed input —
// bad varint, oversized claim, corrupt deflate stream, length
// mismatch — is a FrameError, never a panic: this is attacker-facing
// surface (see fuzz_test.go).
func decompressPayload(p []byte) ([]byte, error) {
	rawLen, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, frameErrorf("transport: corrupt compressed frame header")
	}
	if rawLen > maxFrame {
		return nil, frameErrorf("transport: compressed frame claims %d bytes", rawLen)
	}
	fr := flate.NewReader(bytes.NewReader(p[n:]))
	raw := make([]byte, int(rawLen))
	if _, err := io.ReadFull(fr, raw); err != nil {
		return nil, frameErrorf("transport: corrupt compressed frame: %v", err)
	}
	// One extra read distinguishes "exactly rawLen bytes" from a stream
	// that kept going — a length lie either way.
	var scratch [1]byte
	if m, _ := fr.Read(scratch[:]); m != 0 {
		return nil, frameErrorf("transport: compressed frame longer than declared")
	}
	return raw, nil
}

// writeFrameCompressed writes one frame whose payload cp was already
// produced by compressPayload, setting compFlag in the type byte.
func writeFrameCompressed(w io.Writer, t MsgType, env Envelope, cp []byte) error {
	if len(cp) > maxFrame {
		return frameErrorf("transport: frame of %d bytes exceeds limit", len(cp))
	}
	var hdr [frameHeader + envSize]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(cp)))
	n := frameHeader
	tb := byte(t) | compFlag
	if !env.Zero() {
		tb |= envFlag
		binary.LittleEndian.PutUint64(hdr[5:13], env.Trace)
		binary.LittleEndian.PutUint64(hdr[13:21], env.Span)
		n += envSize
	}
	hdr[4] = tb
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := w.Write(cp)
	return err
}

// readFrameEnvFeat reads one frame, transparently inflating compressed
// payloads. wireLen is the payload length as it crossed the wire
// (compressed size for compressed frames), for counter accounting.
// Decompression capability is unconditional — only *sending* is
// negotiated — so a reply can be compressed the moment the HelloOK
// grant is issued.
func readFrameEnvFeat(r io.Reader) (_ MsgType, _ Envelope, _ []byte, wireLen int, _ error) {
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
	// Flag bits are only meaningful over a valid message type (see the
	// envFlag note in ReadFrameEnv): anything else passes through raw so
	// dispatch rejects the byte instead of the reader misparsing it.
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
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, Envelope{}, nil, 0, err
	}
	wireLen = int(n)
	if compressed {
		raw, err := decompressPayload(payload)
		if err != nil {
			return 0, Envelope{}, nil, 0, err
		}
		payload = raw
	}
	return MsgType(t), env, payload, wireLen, nil
}
