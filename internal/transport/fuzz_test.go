package transport

import (
	"bytes"
	"testing"

	"genie/internal/srg"
	"genie/internal/tensor"
)

// Fuzz targets: decoders must never panic or over-allocate on arbitrary
// bytes — they are the server's exposure surface. Run with
// `go test -fuzz=FuzzDecodeExec ./internal/transport` for deep fuzzing;
// the seed corpus runs as part of the normal test suite.

func execSeed(t testing.TB) []byte {
	g := srg.New("seed")
	in := g.MustAdd(&srg.Node{Op: "input", Ref: "x",
		Output: srg.TensorMeta{Shape: []int{2}}})
	out := g.MustAdd(&srg.Node{Op: "relu", Inputs: []srg.NodeID{in},
		Output: srg.TensorMeta{Shape: []int{2}}})
	payload, err := EncodeExec(&Exec{
		Graph: g,
		Binds: []Binding{
			{Ref: "x", Inline: tensor.FromF32(tensor.Shape{2}, []float32{1, 2})},
			{Ref: "w", Key: "k", Epoch: 3},
		},
		Keep: map[srg.NodeID]string{out: "y"},
		Want: []srg.NodeID{out},
	})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

func FuzzDecodeExec(f *testing.F) {
	f.Add(execSeed(f))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		x, err := DecodeExec(data)
		if err != nil {
			return
		}
		// A successfully decoded Exec must re-encode.
		if _, err := EncodeExec(x); err != nil {
			t.Fatalf("decoded Exec fails to re-encode: %v", err)
		}
	})
}

func FuzzDecodeUpload(f *testing.F) {
	f.Add(EncodeUpload(&Upload{Key: "k", Data: tensor.FromF32(tensor.Shape{1}, []float32{1})}))
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := DecodeUpload(data)
		if err != nil {
			return
		}
		back, err := DecodeUpload(EncodeUpload(u))
		if err != nil {
			t.Fatalf("re-encode round trip failed: %v", err)
		}
		if back.Key != u.Key || !bytes.Equal(back.Data.Bytes(), u.Data.Bytes()) {
			t.Fatal("upload round trip not stable")
		}
	})
}

func FuzzDecodeExecOK(f *testing.F) {
	f.Add(EncodeExecOK(&ExecOK{
		Results: map[srg.NodeID]*tensor.Tensor{1: tensor.New(tensor.F32, 2)},
		Kept:    map[string]int64{"k": 8},
		Epoch:   2, GPUTimeNs: 5, GraphFP: "ab",
	}))
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeExecOK(data)
		if err != nil {
			return
		}
		if _, err := DecodeExecOK(EncodeExecOK(a)); err != nil {
			t.Fatalf("re-encode round trip failed: %v", err)
		}
	})
}

func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteFrameEnv(&buf, MsgPing, Envelope{}, []byte("hello"))
	f.Add(buf.Bytes())
	f.Add([]byte{5, 0, 0, 0, 1, 'a', 'b', 'c', 'd', 'e'})
	// Oversize length prefixes: just past maxFrame, and the maximum u32.
	f.Add([]byte{0x01, 0x00, 0x00, 0x40, byte(MsgExec)})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, byte(MsgExec), 0, 0})
	// Traced frame with a corrupt (truncated) envelope: the type byte
	// carries envFlag but fewer than 16 envelope bytes follow.
	f.Add([]byte{0, 0, 0, 0, byte(MsgPing) | envFlag, 1, 2, 3})
	// Traced frame whose envelope is intact but whose payload is short.
	{
		var env bytes.Buffer
		_ = WriteFrameEnv(&env, MsgExec, Envelope{Trace: 7, Span: 9}, []byte("payload"))
		full := env.Bytes()
		f.Add(full)
		f.Add(full[:len(full)-3])
	}
	// envFlag over an invalid base type: must pass through as an unknown
	// type, not stall reading an envelope that was never sent.
	f.Add([]byte{0, 0, 0, 0, 0xfa})
	f.Fuzz(func(t *testing.T, data []byte) {
		mt, _, payload, _, err := ReadFrameEnv(bytes.NewReader(data))
		if err != nil {
			// Errors are fine; what matters is that malformed frames are
			// typed correctly so conns know to close. An oversize length
			// prefix must be a FrameError, not a silent allocation.
			if len(data) >= 4 && bytes.Equal(data[:4], []byte{0xff, 0xff, 0xff, 0xff}) && !IsFrameError(err) {
				t.Fatalf("oversize frame returned untyped error %T: %v", err, err)
			}
			return
		}
		// A read frame re-serializes to a readable frame.
		var out bytes.Buffer
		if err := WriteFrameEnv(&out, mt, Envelope{}, payload); err != nil {
			t.Fatalf("re-write failed: %v", err)
		}
		mt2, _, p2, _, err := ReadFrameEnv(&out)
		if err != nil || mt2 != mt || !bytes.Equal(p2, payload) {
			t.Fatal("frame round trip unstable")
		}
	})
}
