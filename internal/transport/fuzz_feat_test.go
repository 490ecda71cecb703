package transport

import (
	"bytes"
	"testing"
)

// Fuzz targets for the negotiated wire features (DESIGN.md §11): the
// dedup payload decoder and compressed frames.
// Same contract as fuzz_test.go — arbitrary bytes must produce typed
// FrameErrors, never panics or runaway allocation.

func FuzzDecodeUploadRef(f *testing.F) {
	f.Add(EncodeUploadRef(&UploadRef{Key: "w", Hash: [HashSize]byte{1, 2, 3}}))
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := DecodeUploadRef(data)
		if err != nil {
			if !IsFrameError(err) {
				t.Fatalf("untyped decode error %T: %v", err, err)
			}
			return
		}
		back, err := DecodeUploadRef(EncodeUploadRef(u))
		if err != nil || back.Key != u.Key || back.Hash != u.Hash {
			t.Fatal("upload_ref round trip not stable")
		}
	})
}

// compressedCopy deflates raw and returns a copy of the compressed
// bytes: seeds and expectations must outlive the pooled buffer they
// were built in.
func compressedCopy(raw []byte) []byte {
	cb := compressPayload(raw)
	if cb == nil {
		return nil
	}
	defer releaseCompressed(cb)
	return bytes.Clone(cb.Bytes())
}

// FuzzDecompressPayload hits the inflate path directly: arbitrary bytes
// must yield a FrameError, and a valid compressed payload must round
// trip. Inflaters are pooled, so after every input a known-valid seed
// must still inflate to its original bytes: no state a malformed
// stream leaves in a reader may reach the next frame.
func FuzzDecompressPayload(f *testing.F) {
	raw := bytes.Repeat([]byte("genie wire compression seed "), 64)
	known := compressedCopy(raw)
	if known == nil {
		f.Fatal("seed payload does not compress")
	}
	f.Add(known)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x80}) // truncated uvarint
	f.Add(known[:len(known)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		defer func() {
			back, err := decompressPayload(known)
			if err != nil || !bytes.Equal(back, raw) {
				t.Fatalf("known-valid seed no longer inflates after this input: %v", err)
			}
		}()
		out, err := decompressPayload(data)
		if err != nil {
			if !IsFrameError(err) {
				t.Fatalf("untyped decompress error %T: %v", err, err)
			}
			return
		}
		if cp := compressedCopy(out); cp != nil {
			back, err := decompressPayload(cp)
			if err != nil || !bytes.Equal(back, out) {
				t.Fatal("compress round trip unstable")
			}
		}
	})
}

// FuzzReadFrameCompressed extends the frame fuzz surface with compFlag
// frames: valid ones inflate transparently, corrupt ones are typed
// FrameErrors that never panic the reader.
func FuzzReadFrameCompressed(f *testing.F) {
	raw := bytes.Repeat([]byte("decode step payload "), 64)
	if cp := compressedCopy(raw); cp != nil {
		var buf bytes.Buffer
		_ = writeFrameCompressed(&buf, MsgExec, Envelope{}, cp)
		f.Add(buf.Bytes())
		var tb bytes.Buffer
		_ = writeFrameCompressed(&tb, MsgExec, Envelope{Trace: 3, Span: 4}, cp)
		f.Add(tb.Bytes())
		// Truncated compressed body.
		f.Add(buf.Bytes()[:buf.Len()-5])
	}
	// compFlag over garbage payload bytes.
	f.Add([]byte{4, 0, 0, 0, byte(MsgExec) | compFlag, 0xde, 0xad, 0xbe, 0xef})
	// compFlag over an invalid base type: must pass through untouched.
	f.Add([]byte{1, 0, 0, 0, 0x40 | 0x3f, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		mt, env, payload, wireLen, err := ReadFrameEnv(bytes.NewReader(data))
		if err != nil {
			return
		}
		if wireLen < 0 || wireLen > len(data) {
			t.Fatalf("wireLen %d out of range for %d input bytes", wireLen, len(data))
		}
		// Inflated frames re-serialize through the plain writer.
		var out bytes.Buffer
		if err := WriteFrameEnv(&out, mt, env, payload); err != nil {
			t.Fatalf("re-write failed: %v", err)
		}
		mt2, env2, p2, _, err := ReadFrameEnv(&out)
		if err != nil || mt2 != mt || env2 != env || !bytes.Equal(p2, payload) {
			t.Fatal("inflated frame round trip unstable")
		}
	})
}
