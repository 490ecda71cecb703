package transport

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"genie/internal/srg"
	"genie/internal/tensor"
)

func TestFrameRoundTrip(t *testing.T) {
	var b bytes.Buffer
	if err := WriteFrameEnv(&b, MsgPing, Envelope{}, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	mt, _, p, _, err := ReadFrameEnv(&b)
	if err != nil {
		t.Fatal(err)
	}
	if mt != MsgPing || string(p) != "hello" {
		t.Errorf("got %d %q", mt, p)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var b bytes.Buffer
	if err := WriteFrameEnv(&b, MsgPong, Envelope{}, nil); err != nil {
		t.Fatal(err)
	}
	mt, _, p, _, err := ReadFrameEnv(&b)
	if err != nil {
		t.Fatal(err)
	}
	if mt != MsgPong || len(p) != 0 {
		t.Errorf("got %d %q", mt, p)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var hdr [5]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xff, 0xff, 0xff, 0xff
	if _, _, _, _, err := ReadFrameEnv(bytes.NewReader(hdr[:])); err == nil {
		t.Error("oversize frame should be rejected")
	}
}

func TestFrameTruncated(t *testing.T) {
	var b bytes.Buffer
	if err := WriteFrameEnv(&b, MsgPing, Envelope{}, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	trunc := b.Bytes()[:b.Len()-2]
	if _, _, _, _, err := ReadFrameEnv(bytes.NewReader(trunc)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated frame error = %v", err)
	}
}

// TestProtocolNumbers pins every wire number: message types and feature
// bits are what peers of different builds agree on, so a deletion must
// retire a number rather than renumber the ones after it.
func TestProtocolNumbers(t *testing.T) {
	msgs := []struct {
		t    MsgType
		want uint8
	}{
		{MsgPing, 1}, {MsgPong, 2}, {MsgUpload, 3}, {MsgUploadOK, 4},
		{MsgExec, 5}, {MsgExecOK, 6}, {MsgFetch, 7}, {MsgTensor, 8},
		{MsgFree, 9}, {MsgFreeOK, 10}, {MsgErr, 11}, {MsgCrash, 12},
		{MsgCrashOK, 13}, {MsgStats, 14}, {MsgStatsOK, 15}, {MsgHello, 16},
		{MsgHelloOK, 17}, {MsgUploadRef, 18}, {MsgUploadDelta, 19},
		{MsgExecPlan, 20},
	}
	for i, m := range msgs {
		if uint8(m.t) != m.want {
			t.Errorf("%s = %d, want %d", KindName(m.t), m.t, m.want)
		}
		if !validType(m.t) {
			t.Errorf("%s is not a valid type", KindName(m.t))
		}
		if m.want != uint8(i+1) {
			t.Fatalf("table row %d skips a number", i)
		}
	}
	if validType(0) || validType(MsgExecPlan+1) {
		t.Error("validType accepts a number outside the protocol")
	}
	feats := []struct {
		name      string
		bit, want uint32
	}{
		{"compress", FeatCompress, 1 << 0},
		{"dedup", FeatDedup, 1 << 1},
		{"plan", FeatPlan, 1 << 3},
	}
	var all uint32
	for _, f := range feats {
		if f.bit != f.want {
			t.Errorf("feature %s = %#x, want %#x", f.name, f.bit, f.want)
		}
		all |= f.want
	}
	if FeatAll != all {
		t.Errorf("FeatAll = %#x, want %#x", FeatAll, all)
	}
	if FeatAll&(1<<2) != 0 {
		t.Error("FeatAll holds the retired bit 1<<2")
	}
}

func TestUploadCodecRoundTrip(t *testing.T) {
	data := tensor.FromF32(tensor.Shape{2, 2}, []float32{1, 2, 3, 4})
	u := &Upload{Key: "weights.w0", Data: data}
	back, err := DecodeUpload(EncodeUpload(u))
	if err != nil {
		t.Fatal(err)
	}
	if back.Key != u.Key || !tensor.AllClose(back.Data, data, 0, 0) {
		t.Error("upload round trip mismatch")
	}
}

func TestUploadDecodeCopiesData(t *testing.T) {
	data := tensor.FromF32(tensor.Shape{1}, []float32{7})
	payload := EncodeUpload(&Upload{Key: "k", Data: data})
	back, err := DecodeUpload(payload)
	if err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		payload[i] = 0xAA
	}
	if back.Data.F32()[0] != 7 {
		t.Error("decoded tensor must not alias the frame buffer")
	}
}

func TestExecCodecRoundTrip(t *testing.T) {
	g := srg.New("sub")
	in := g.MustAdd(&srg.Node{Op: "input", Ref: "x",
		Output: srg.TensorMeta{Shape: []int{2}}})
	out := g.MustAdd(&srg.Node{Op: "relu", Inputs: []srg.NodeID{in},
		Output: srg.TensorMeta{Shape: []int{2}}})
	x := &Exec{
		Graph: g,
		Binds: []Binding{
			{Ref: "x", Inline: tensor.FromF32(tensor.Shape{2}, []float32{-1, 2})},
			{Ref: "w", Key: "weights.w", Epoch: 3},
		},
		Keep: map[srg.NodeID]string{out: "act.out"},
		Want: []srg.NodeID{out},
	}
	payload, err := EncodeExec(x)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeExec(payload)
	if err != nil {
		t.Fatal(err)
	}
	if back.Graph.Len() != 2 || back.Graph.Name != "sub" {
		t.Error("graph lost")
	}
	if len(back.Binds) != 2 || back.Binds[0].Inline == nil ||
		back.Binds[1].Key != "weights.w" || back.Binds[1].Epoch != 3 {
		t.Errorf("binds lost: %+v", back.Binds)
	}
	if back.Keep[out] != "act.out" || len(back.Want) != 1 || back.Want[0] != out {
		t.Error("keep/want lost")
	}
}

func TestExecOKCodecRoundTrip(t *testing.T) {
	a := &ExecOK{
		Results: map[srg.NodeID]*tensor.Tensor{
			1: tensor.FromF32(tensor.Shape{1}, []float32{5}),
		},
		Kept:      map[string]int64{"kv.0": 128},
		Epoch:     7,
		GPUTimeNs: 12345,
	}
	back, err := DecodeExecOK(EncodeExecOK(a))
	if err != nil {
		t.Fatal(err)
	}
	if back.Epoch != 7 || back.GPUTimeNs != 12345 || back.Kept["kv.0"] != 128 {
		t.Errorf("execok fields lost: %+v", back)
	}
	if back.Results[1].F32()[0] != 5 {
		t.Error("results lost")
	}
}

func TestStatsCodec(t *testing.T) {
	s := &Stats{Epoch: 2, ResidentBytes: 1 << 40, ResidentCount: 9, GPUBusyNs: 77, ExecCalls: 3}
	back, err := DecodeStats(EncodeStats(s))
	if err != nil {
		t.Fatal(err)
	}
	if *back != *s {
		t.Errorf("stats %+v != %+v", back, s)
	}
}

func TestErrCodec(t *testing.T) {
	err := DecodeErr(EncodeErr(errors.New("kaboom")))
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "kaboom" {
		t.Errorf("err round trip = %v", err)
	}
}

func TestDecodersRejectGarbage(t *testing.T) {
	junk := []byte{0xff, 0x01}
	if _, err := DecodeUpload(junk); err == nil {
		t.Error("upload garbage should fail")
	}
	if _, err := DecodeExec(junk); err == nil {
		t.Error("exec garbage should fail")
	}
	if _, err := DecodeExecOK(junk); err == nil {
		t.Error("execok garbage should fail")
	}
	if _, err := DecodeStats(junk); err == nil {
		t.Error("stats garbage should fail")
	}
}

func TestCodecPropertyTensorPayloads(t *testing.T) {
	f := func(vals []float32, key string) bool {
		if len(vals) == 0 || len(key) > 1000 {
			return true
		}
		u := &Upload{Key: key, Data: tensor.FromF32(tensor.Shape{len(vals)}, vals)}
		back, err := DecodeUpload(EncodeUpload(u))
		if err != nil {
			return false
		}
		return back.Key == key && bytes.Equal(back.Data.Bytes(), u.Data.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConnPipeCallCounts(t *testing.T) {
	client, server := Pipe(nil, nil)
	defer client.Close()
	defer server.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		mt, p, err := server.Recv()
		if err != nil || mt != MsgPing {
			t.Errorf("server recv: %v %d", err, mt)
			return
		}
		if err := server.Send(MsgPong, p); err != nil {
			t.Errorf("server send: %v", err)
		}
	}()
	mt, _, err := client.Call(MsgPing, []byte("x"))
	if err != nil || mt != MsgPong {
		t.Fatalf("call: %v %d", err, mt)
	}
	<-done
	sent, recv, calls := client.Counters().Snapshot()
	if calls != 1 || sent != 6 || recv != 6 {
		t.Errorf("counters sent=%d recv=%d calls=%d", sent, recv, calls)
	}
	client.Counters().Reset()
	if client.Counters().Total() != 0 {
		t.Error("reset failed")
	}
}

func TestShaperAddsLatency(t *testing.T) {
	sh := &Shaper{PerCall: 20 * time.Millisecond}
	client, server := Pipe(nil, sh)
	defer client.Close()
	defer server.Close()
	go func() {
		mt, p, _ := server.Recv()
		_ = mt
		_ = server.Send(MsgPong, p)
	}()
	start := time.Now()
	if _, _, err := client.Call(MsgPing, nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("shaped call took only %v", d)
	}
}

func TestShaperBandwidthDelay(t *testing.T) {
	// 1 MB at 10 MB/s should take >= 100ms on the send side.
	sh := &Shaper{Bandwidth: 10 << 20}
	client, server := Pipe(nil, sh)
	defer client.Close()
	defer server.Close()
	go func() {
		for {
			if _, _, err := server.Recv(); err != nil {
				return
			}
			if err := server.Send(MsgPong, nil); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	if _, _, err := client.Call(MsgUpload, make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 95*time.Millisecond {
		t.Errorf("1MB at 10MB/s took only %v", d)
	}
}

func TestBufferPoolReuse(t *testing.T) {
	p := NewBufferPool(4)
	b1 := p.Get(100)
	if len(b1) != 100 || cap(b1) != 128 {
		t.Fatalf("len=%d cap=%d", len(b1), cap(b1))
	}
	p.Put(b1)
	b2 := p.Get(120)
	st := p.Stats()
	if st.Reuses != 1 {
		t.Errorf("reuses = %d, want 1 (same size class)", st.Reuses)
	}
	p.Put(b2)
	if p.Stats().PinnedBytes != 0 {
		t.Errorf("pinned bytes %d after all returned", p.Stats().PinnedBytes)
	}
}

func TestBufferPoolCapsFreeList(t *testing.T) {
	p := NewBufferPool(2)
	bufs := make([][]byte, 5)
	for i := range bufs {
		bufs[i] = p.Get(64)
	}
	for _, b := range bufs {
		p.Put(b)
	}
	// Only 2 retained; next 3 gets hit the retained ones then allocate.
	for i := 0; i < 3; i++ {
		p.Get(64)
	}
	st := p.Stats()
	if st.Reuses != 2 {
		t.Errorf("reuses = %d, want 2", st.Reuses)
	}
}

func TestBufferPoolNewTensorPinnedAndZeroed(t *testing.T) {
	p := NewBufferPool(0)
	tt := p.NewTensor(tensor.F32, 4)
	if !tt.Pinned() {
		t.Error("pool tensor should be pinned")
	}
	for _, v := range tt.F32() {
		if v != 0 {
			t.Error("pool tensor should be zeroed")
		}
	}
	tt.F32()[0] = 1
	tt.Release()
	// Buffer recycled: a new tensor of the same class must be zeroed
	// again.
	t2 := p.NewTensor(tensor.F32, 4)
	if t2.F32()[0] != 0 {
		t.Error("recycled tensor not zeroed")
	}
}

func TestPinReactivelyCopies(t *testing.T) {
	p := NewBufferPool(0)
	src := tensor.FromF32(tensor.Shape{2}, []float32{1, 2})
	pinned := p.PinReactively(src)
	if !pinned.Pinned() {
		t.Error("result should be pinned")
	}
	pinned.F32()[0] = 99
	if src.F32()[0] != 1 {
		t.Error("reactive pinning must copy")
	}
	// Pinning an already-pinned tensor is a no-op.
	again := p.PinReactively(pinned)
	if again != pinned {
		t.Error("double pin should return the same tensor")
	}
}

func TestIsClosed(t *testing.T) {
	if IsClosed(nil) {
		t.Error("nil is not closed")
	}
	if !IsClosed(io.EOF) {
		t.Error("EOF is closed")
	}
	if IsClosed(errors.New("other")) {
		t.Error("arbitrary error is not closed")
	}
}

func TestEncodeRejectsOversizedStrings(t *testing.T) {
	long := strings.Repeat("k", 70000)
	u := &Upload{Key: long, Data: tensor.New(tensor.F32, 1)}
	// Keys are length-prefixed with u16: encoding silently truncating
	// would corrupt the stream, so decode of the result must not return
	// the original key.
	back, err := DecodeUpload(EncodeUpload(u))
	if err == nil && back.Key == long {
		t.Error("oversized key survived a u16 length prefix")
	}
}

func TestClientWrongReplyTypes(t *testing.T) {
	// A confused server answering with mismatched message types must
	// produce typed client errors, not misparsed data.
	client, server := Pipe(nil, nil)
	defer client.Close()
	defer server.Close()
	go func() {
		for {
			_, _, err := server.Recv()
			if err != nil {
				return
			}
			// Always reply MsgPong regardless of request.
			if err := server.Send(MsgPong, nil); err != nil {
				return
			}
		}
	}()
	c := NewClient(client)
	if _, err := c.Upload("k", tensor.New(tensor.F32, 1)); err == nil {
		t.Error("upload with pong reply should error")
	}
	if _, err := c.Fetch("k", 0); err == nil {
		t.Error("fetch with pong reply should error")
	}
	if _, err := c.Stats(); err == nil {
		t.Error("stats with pong reply should error")
	}
	if err := c.Free("k"); err == nil {
		t.Error("free with pong reply should error")
	}
	if err := c.Crash(); err == nil {
		t.Error("crash with pong reply should error")
	}
}

func TestRemoteErrorString(t *testing.T) {
	e := &RemoteError{Msg: "boom"}
	if e.Error() != "remote: boom" {
		t.Errorf("error string %q", e.Error())
	}
}

func TestConnSendAfterClose(t *testing.T) {
	client, server := Pipe(nil, nil)
	server.Close()
	client.Close()
	if err := client.Send(MsgPing, nil); err == nil {
		t.Error("send on closed conn should fail")
	}
	if _, _, err := client.Recv(); err == nil {
		t.Error("recv on closed conn should fail")
	}
}
