package backend

import (
	"net"
	"strings"
	"testing"

	"genie/internal/device"
	"genie/internal/lazy"
	"genie/internal/srg"
	"genie/internal/tensor"
	"genie/internal/transport"
)

func newTestServer() *Server { return NewServer(device.A100) }

func TestUploadLookupFree(t *testing.T) {
	s := newTestServer()
	data := tensor.FromF32(tensor.Shape{2}, []float32{1, 2})
	ack, _ := s.Upload("w", data)
	if ack.Epoch != 1 || ack.Bytes != 8 {
		t.Errorf("ack %+v", ack)
	}
	got, err := s.Lookup("w", 1)
	if err != nil || !tensor.AllClose(got, data, 0, 0) {
		t.Errorf("lookup: %v", err)
	}
	if _, err := s.Lookup("missing", 0); err == nil {
		t.Error("missing key should fail")
	}
	s.Free("w")
	if _, err := s.Lookup("w", 0); err == nil {
		t.Error("freed key should fail")
	}
	if s.Stats().ResidentBytes != 0 {
		t.Error("resident bytes should drop to zero")
	}
}

func TestUploadReplaceAccountsBytes(t *testing.T) {
	s := newTestServer()
	mustUpload(t, s, "w", tensor.New(tensor.F32, 10))
	mustUpload(t, s, "w", tensor.New(tensor.F32, 3))
	if got := s.Stats().ResidentBytes; got != 12 {
		t.Errorf("resident bytes %d, want 12", got)
	}
}

func TestCrashInvalidatesEpoch(t *testing.T) {
	s := newTestServer()
	ack, _ := s.Upload("kv", tensor.New(tensor.F32, 4))
	s.Crash()
	if _, err := s.Lookup("kv", ack.Epoch); err == nil {
		t.Error("crash should drop resident objects")
	}
	if s.Epoch() != ack.Epoch+1 {
		t.Errorf("epoch %d after crash", s.Epoch())
	}
	// Re-upload in the new epoch; old-epoch lookups must be rejected.
	ack2, _ := s.Upload("kv", tensor.New(tensor.F32, 4))
	if _, err := s.Lookup("kv", ack.Epoch); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Errorf("stale lookup error = %v", err)
	}
	if _, err := s.Lookup("kv", ack2.Epoch); err != nil {
		t.Errorf("fresh lookup: %v", err)
	}
}

func buildMatMulExec(t *testing.T) (*transport.Exec, srg.NodeID) {
	t.Helper()
	b := lazy.NewBuilder("mm")
	x := b.Input("x", tensor.FromF32(tensor.Shape{1, 2}, []float32{1, 2}))
	w := b.Param("w", tensor.FromF32(tensor.Shape{2, 2}, []float32{1, 0, 0, 1}))
	y := b.MatMul(x, w)
	xt, _ := b.InputData("x")
	return &transport.Exec{
		Graph: b.Graph(),
		Binds: []transport.Binding{{Ref: "x", Inline: xt}},
		Want:  []srg.NodeID{y.ID()},
	}, y.ID()
}

func TestExecWithResidentWeights(t *testing.T) {
	s := newTestServer()
	// Weights resident under their param ref (no binding needed).
	mustUpload(t, s, "w", tensor.FromF32(tensor.Shape{2, 2}, []float32{1, 0, 0, 1}))
	x, yID := buildMatMulExec(t)
	ok, err := s.Exec(x)
	if err != nil {
		t.Fatal(err)
	}
	got := ok.Results[yID]
	if got == nil || got.F32()[0] != 1 || got.F32()[1] != 2 {
		t.Errorf("exec result %v", got)
	}
	if ok.GPUTimeNs <= 0 {
		t.Error("gpu time should be accounted")
	}
	if s.Stats().ExecCalls != 1 {
		t.Error("exec calls not counted")
	}
}

func TestExecMissingBindingFails(t *testing.T) {
	s := newTestServer()
	x, _ := buildMatMulExec(t)
	if _, err := s.Exec(x); err == nil {
		t.Error("exec without resident weights or binding should fail")
	}
}

func TestExecKeepMaterializesRemotely(t *testing.T) {
	s := newTestServer()
	mustUpload(t, s, "w", tensor.FromF32(tensor.Shape{2, 2}, []float32{2, 0, 0, 2}))
	x, yID := buildMatMulExec(t)
	x.Keep = map[srg.NodeID]string{yID: "act.y"}
	x.Want = nil
	ok, err := s.Exec(x)
	if err != nil {
		t.Fatal(err)
	}
	if ok.Kept["act.y"] != 8 {
		t.Errorf("kept %v", ok.Kept)
	}
	kept, err := s.Lookup("act.y", ok.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if kept.F32()[0] != 2 || kept.F32()[1] != 4 {
		t.Errorf("kept value %v", kept.F32())
	}
}

func TestExecStaleEpochBindingFails(t *testing.T) {
	s := newTestServer()
	ack, _ := s.Upload("cache", tensor.New(tensor.F32, 1, 2))
	s.Crash()
	mustUpload(t, s, "w", tensor.FromF32(tensor.Shape{2, 2}, []float32{1, 0, 0, 1}))
	mustUpload(t, s, "cache", tensor.New(tensor.F32, 1, 2)) // new epoch
	x, _ := buildMatMulExec(t)
	// Rebind the graph's "x" leaf to the pre-crash epoch of the cache.
	x.Binds = []transport.Binding{{Ref: "x", Key: "cache", Epoch: ack.Epoch}}
	// Binding an evicted/stale object must fail loudly, not silently
	// recompute — the session decides how to rebuild it.
	if _, err := s.Exec(x); err == nil {
		t.Error("stale binding should fail")
	}
}

func TestFailNextExecs(t *testing.T) {
	s := newTestServer()
	mustUpload(t, s, "w", tensor.FromF32(tensor.Shape{2, 2}, []float32{1, 0, 0, 1}))
	s.FailNextExecs(1)
	x, _ := buildMatMulExec(t)
	if _, err := s.Exec(x); err == nil {
		t.Fatal("armed failure should fire")
	}
	if _, err := s.Exec(x); err != nil {
		t.Fatalf("second exec should succeed: %v", err)
	}
}

func TestResetAccounting(t *testing.T) {
	s := newTestServer()
	mustUpload(t, s, "w", tensor.FromF32(tensor.Shape{2, 2}, []float32{1, 0, 0, 1}))
	x, _ := buildMatMulExec(t)
	if _, err := s.Exec(x); err != nil {
		t.Fatal(err)
	}
	s.ResetAccounting()
	st := s.Stats()
	if st.GPUBusyNs != 0 || st.ExecCalls != 0 {
		t.Error("accounting not reset")
	}
	if st.ResidentCount != 1 {
		t.Error("reset must not evict residents")
	}
}

// TestEndToEndOverTCP exercises the full wire path: real listener, real
// client, upload + exec + fetch + crash + stats.
func TestEndToEndOverTCP(t *testing.T) {
	s := newTestServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = s.Listen(l) }()

	conn, err := transport.Dial(l.Addr().String(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	client := transport.NewClient(conn)
	defer client.Close()

	if _, err := client.Ping(); err != nil {
		t.Fatal(err)
	}
	w := tensor.FromF32(tensor.Shape{2, 2}, []float32{3, 0, 0, 3})
	ack, err := client.Upload("w", w)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Bytes != 16 {
		t.Errorf("upload ack %+v", ack)
	}

	x, yID := buildMatMulExec(t)
	x.Keep = map[srg.NodeID]string{yID: "y"}
	ok, err := client.Exec(x)
	if err != nil {
		t.Fatal(err)
	}
	if ok.Results[yID].F32()[1] != 6 {
		t.Errorf("remote exec result %v", ok.Results[yID].F32())
	}

	fetched, err := client.Fetch("y", ok.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if fetched.F32()[0] != 3 {
		t.Errorf("fetched %v", fetched.F32())
	}

	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ExecCalls != 1 || st.ResidentCount != 2 {
		t.Errorf("stats %+v", st)
	}

	if err := client.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Fetch("y", ok.Epoch); err == nil {
		t.Error("fetch after crash should fail")
	}

	// Traffic was counted.
	if conn.Counters().Total() == 0 {
		t.Error("no traffic counted")
	}
	if err := client.Free("w"); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentClients checks the server handles parallel connections.
func TestConcurrentClients(t *testing.T) {
	s := newTestServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = s.Listen(l) }()

	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			conn, err := transport.Dial(l.Addr().String(), nil, nil)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			c := transport.NewClient(conn)
			for j := 0; j < 20; j++ {
				if _, err := c.Ping(); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// mustUpload is a test helper asserting an upload fits.
func mustUpload(t *testing.T, s *Server, key string, data *tensor.Tensor) *transport.UploadOK {
	t.Helper()
	ack, err := s.Upload(key, data)
	if err != nil {
		t.Fatal(err)
	}
	return ack
}

func TestUploadCapacityEnforced(t *testing.T) {
	spec := device.A100
	spec.MemBytes = 64 // tiny device
	s := NewServer(spec)
	if _, err := s.Upload("a", tensor.New(tensor.F32, 8)); err != nil { // 32 B
		t.Fatal(err)
	}
	if _, err := s.Upload("b", tensor.New(tensor.F32, 8)); err != nil { // 64 B total
		t.Fatal(err)
	}
	if _, err := s.Upload("c", tensor.New(tensor.F32, 1)); err == nil {
		t.Error("over-capacity upload should fail")
	}
	// Replacing an existing object accounts for the freed bytes.
	if _, err := s.Upload("a", tensor.New(tensor.F32, 8)); err != nil {
		t.Errorf("same-size replacement should fit: %v", err)
	}
	// Freeing makes room.
	s.Free("b")
	if _, err := s.Upload("c", tensor.New(tensor.F32, 4)); err != nil {
		t.Errorf("post-free upload should fit: %v", err)
	}
}

func TestExecKeepRespectsCapacity(t *testing.T) {
	spec := device.A100
	spec.MemBytes = 24 // room for w (16 B) + little else
	s := NewServer(spec)
	mustUpload(t, s, "w", tensor.FromF32(tensor.Shape{2, 2}, []float32{1, 0, 0, 1}))
	x, yID := buildMatMulExec(t)
	x.Keep = map[srg.NodeID]string{yID: "big"} // 8 B result: fits
	if _, err := s.Exec(x); err != nil {
		t.Fatalf("8 B keep should fit: %v", err)
	}
	// Now the store holds 24 B; keeping another copy must fail.
	x2, y2 := buildMatMulExec(t)
	x2.Keep = map[srg.NodeID]string{y2: "big2"}
	if _, err := s.Exec(x2); err == nil {
		t.Error("over-capacity keep should fail")
	}
}
