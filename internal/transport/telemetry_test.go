package transport

import (
	"bytes"
	"context"
	"testing"

	"genie/internal/obs"
	"genie/internal/tensor"
)

func TestFrameEnvelopeRoundTrip(t *testing.T) {
	var b bytes.Buffer
	env := Envelope{Trace: 0xdeadbeef, Span: 42}
	if err := WriteFrameEnv(&b, MsgExec, env, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// Traced frame = 5-byte header + 16-byte envelope + payload.
	if b.Len() != frameHeader+envSize+7 {
		t.Fatalf("traced frame is %d bytes", b.Len())
	}
	mt, got, p, _, err := ReadFrameEnv(&b)
	if err != nil {
		t.Fatal(err)
	}
	if mt != MsgExec || got != env || string(p) != "payload" {
		t.Fatalf("round trip: type=%d env=%+v payload=%q", mt, got, p)
	}
}

func TestUntracedFrameKeepsLegacyFormat(t *testing.T) {
	var b bytes.Buffer
	if err := WriteFrameEnv(&b, MsgPing, Envelope{}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Zero envelope must not change the wire format: 5-byte header only.
	if b.Len() != frameHeader+1 {
		t.Fatalf("untraced frame is %d bytes, want %d", b.Len(), frameHeader+1)
	}
	mt, env, p, _, err := ReadFrameEnv(&b)
	if err != nil {
		t.Fatal(err)
	}
	if mt != MsgPing || !env.Zero() || string(p) != "x" {
		t.Fatalf("round trip: type=%d env=%+v payload=%q", mt, env, p)
	}
}

// echoServer answers Upload and Exec-shaped traffic well enough for
// accounting tests, echoing the request envelope back on replies.
func echoServer(t *testing.T, conn *Conn, replies map[MsgType][]byte) {
	t.Helper()
	go func() {
		for {
			mt, env, _, err := conn.RecvEnv()
			if err != nil {
				return
			}
			rt := mt + 1 // every request type is followed by its OK type...
			if mt == MsgUploadRef {
				rt = MsgUploadOK // ...except a ref, which is an upload
			}
			if err := conn.SendEnv(rt, env, replies[mt]); err != nil {
				return
			}
		}
	}()
}

// TestTelemetryMatchesEncoderOutput pins the byte-accounting contract:
// the per-kind counters must equal the wire-format encoder output size
// plus the exact frame header for every RPC.
func TestTelemetryMatchesEncoderOutput(t *testing.T) {
	reg := obs.NewRegistry()
	tel := NewTelemetry(reg)
	cconn, sconn := Pipe(nil, nil)
	defer cconn.Close()
	defer sconn.Close()
	cconn.SetTelemetry(tel)

	upReply := EncodeUploadOK(&UploadOK{Epoch: 3, Bytes: 16})
	echoServer(t, sconn, map[MsgType][]byte{MsgUpload: upReply})

	client := NewClient(cconn)
	data := tensor.FromF32(tensor.Shape{2, 2}, []float32{1, 2, 3, 4})
	if _, err := client.Upload("w.0", data); err != nil {
		t.Fatal(err)
	}

	wantSent := int64(len(EncodeUpload(&Upload{Key: "w.0", Data: data})) + frameHeader)
	if got := tel.SentBytes(MsgUpload); got != wantSent {
		t.Fatalf("upload sent bytes %d, want encoder size + header = %d", got, wantSent)
	}
	if got := tel.RecvBytes(MsgUploadOK); got != int64(len(upReply)+frameHeader) {
		t.Fatalf("upload_ok recv bytes %d, want %d", got, len(upReply)+frameHeader)
	}
	if tel.Calls(MsgUpload) != 1 {
		t.Fatalf("upload calls %d, want 1", tel.Calls(MsgUpload))
	}
	// Per-kind counters agree with the aggregate conn counters.
	sent, recv, _ := cconn.Counters().Snapshot()
	if tel.SentBytes(MsgUpload) != sent || tel.RecvBytes(MsgUploadOK) != recv {
		t.Fatalf("telemetry (%d/%d) disagrees with conn counters (%d/%d)",
			tel.SentBytes(MsgUpload), tel.RecvBytes(MsgUploadOK), sent, recv)
	}
	// The registry exposes the same numbers as Prometheus series.
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b.Bytes(), []byte(`genie_transport_sent_bytes_total{kind="upload"}`)) {
		t.Fatalf("exposition missing upload series:\n%s", b.String())
	}
}

// TestTracedCallAccountsEnvelopeBytes: a traced RPC carries 16 extra
// header bytes, and the counters must see them. Both upload forms — the
// full payload and the dedup ref that follows it — are one traced round
// trip each.
func TestTracedCallAccountsEnvelopeBytes(t *testing.T) {
	reg := obs.NewRegistry()
	tel := NewTelemetry(reg)
	cconn, sconn := Pipe(nil, nil)
	defer cconn.Close()
	defer sconn.Close()
	cconn.SetTelemetry(tel)
	cconn.SetFeatures(FeatDedup)

	upReply := EncodeUploadOK(&UploadOK{Epoch: 1, Bytes: 4})
	echoServer(t, sconn, map[MsgType][]byte{MsgUpload: upReply, MsgUploadRef: upReply})

	tr := obs.NewTracer(obs.TracerConfig{Proc: "test", Capacity: 16})
	defer tr.Stop()
	ctx, root := tr.StartRoot(context.TODO(), "req")

	client := NewClient(cconn)
	data := tensor.FromF32(tensor.Shape{1}, []float32{7})
	if _, err := client.UploadCtx(ctx, "k", data); err != nil {
		t.Fatal(err)
	}
	// Same bytes under a new key: a dedup hit, sent as a hash ref.
	if _, err := client.UploadCtx(ctx, "k2", data); err != nil {
		t.Fatal(err)
	}
	root.End()

	wantSent := int64(len(EncodeUpload(&Upload{Key: "k", Data: data})) + frameHeader + envSize)
	if got := tel.SentBytes(MsgUpload); got != wantSent {
		t.Fatalf("traced upload sent bytes %d, want %d", got, wantSent)
	}
	wantRef := int64(len(EncodeUploadRef(&UploadRef{Key: "k2", Hash: ContentHash(data)})) + frameHeader + envSize)
	if got := tel.SentBytes(MsgUploadRef); got != wantRef {
		t.Fatalf("traced upload ref sent bytes %d, want %d", got, wantRef)
	}
	// Each upload recorded its own transport span with the trace ID on it.
	spans := tr.Snapshot()
	found := 0
	for _, s := range spans {
		if s.Name == "transport.upload" && s.Trace == root.TraceID() && s.Parent == root.SpanID() {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("%d transport.upload spans parented under root, want 2: %+v", found, spans)
	}
}

// TestUnknownHighTypeByteIsNotAnEnvelope: a peer probing with a type
// byte that happens to have the envelope bit set (e.g. 250 = 0xfa) must
// come back as that raw unknown type with no envelope read — the old
// behavior the dispatch layer's "unknown message" error path depends
// on. Regression test: the reader once stalled here waiting for 16
// envelope bytes that were never sent.
func TestUnknownHighTypeByteIsNotAnEnvelope(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameEnv(&buf, MsgType(250), Envelope{}, []byte{0xab}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != frameHeader+1 {
		t.Fatalf("frame is %d bytes, want %d", buf.Len(), frameHeader+1)
	}
	mt, env, payload, _, err := ReadFrameEnv(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if mt != MsgType(250) {
		t.Fatalf("type = %d, want 250 passed through raw", mt)
	}
	if !env.Zero() {
		t.Fatalf("envelope = %+v, want zero", env)
	}
	if len(payload) != 1 || payload[0] != 0xab {
		t.Fatalf("payload = %x, want ab", payload)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d unread bytes left in frame", buf.Len())
	}
}
