package transport

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// TestCallCtxHungPeer is the regression test for the forever-block bug:
// a peer that accepts the request but never replies must not wedge the
// caller. On the old Conn (no deadlines) this test hangs; with ctx
// deadlines plumbed into the socket it returns within the 250ms budget.
// The whole test must finish in well under 2 seconds.
func TestCallCtxHungPeer(t *testing.T) {
	client, server := Pipe(nil, nil)
	defer client.Close()
	defer server.Close()

	// Hung peer: drain the request so the send succeeds, then go silent.
	go func() {
		_, _, _ = server.Recv()
		// Never respond; hold the conn open until the test ends.
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := client.CallCtx(ctx, MsgPing, nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("call against a hung peer returned nil error")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("hung-peer call took %v, want < 2s", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if Classify(err) != ClassRetryable {
		t.Fatalf("Classify(%v) = %v, want retryable", err, Classify(err))
	}
	if !client.Dead() {
		t.Fatal("timed-out conn not poisoned; a late reply would desync the next call")
	}
}

// TestCallCtxCancelMidCall: cancellation (not just deadline expiry)
// must also unblock an in-flight read.
func TestCallCtxCancelMidCall(t *testing.T) {
	client, server := Pipe(nil, nil)
	defer client.Close()
	defer server.Close()

	go func() {
		_, _, _ = server.Recv() // accept, never reply
	}()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := client.CallCtx(ctx, MsgPing, nil)
	if err == nil {
		t.Fatal("cancelled call returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled call took %v", elapsed)
	}
	if Classify(err) != ClassFatal {
		t.Fatalf("Classify(cancel) = %v, want fatal", Classify(err))
	}
}

// TestCallCtxNoDeadlinePassesThrough: a plain background ctx must not
// interfere with a normal round trip.
func TestCallCtxNoDeadlinePassesThrough(t *testing.T) {
	client, server := Pipe(nil, nil)
	defer client.Close()
	defer server.Close()
	go func() {
		mt, _, err := server.Recv()
		if err != nil || mt != MsgPing {
			return
		}
		_ = server.Send(MsgPong, nil)
	}()
	rt, _, err := client.CallCtx(context.Background(), MsgPing, nil)
	if err != nil || rt != MsgPong {
		t.Fatalf("CallCtx = %v, %v; want MsgPong", rt, err)
	}
	if client.Dead() {
		t.Fatal("healthy call poisoned the conn")
	}
}

// TestCancelAfterSuccessDoesNotPoisonConn is the regression test for
// the stale-watcher race: a call completes, the caller cancels its ctx
// right after (the universal `defer cancel()` shape), and the deadline
// watcher — possibly not yet scheduled, seeing both its channels ready
// — must NOT plant a poison deadline on the conn. On the racy code a
// few hundred call/cancel rounds reliably fail a later, innocent call
// with a spurious i/o timeout and kill the conn.
func TestCancelAfterSuccessDoesNotPoisonConn(t *testing.T) {
	client, server := Pipe(nil, nil)
	defer client.Close()
	defer server.Close()
	go func() {
		for {
			mt, _, err := server.Recv()
			if err != nil || mt != MsgPing {
				return
			}
			if err := server.Send(MsgPong, nil); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 500; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		rt, _, err := client.CallCtx(ctx, MsgPing, nil)
		cancel() // fires the previous watcher's done while the next call runs
		if err != nil || rt != MsgPong {
			t.Fatalf("call %d: rt=%v err=%v (stale watcher poisoned the conn?)", i, rt, err)
		}
	}
	if client.Dead() {
		t.Fatal("conn poisoned by call/cancel churn")
	}
}

// TestCorruptFrameClosesConn: a frame with an oversize length prefix
// must surface as a typed FrameError and poison the conn.
func TestCorruptFrameClosesConn(t *testing.T) {
	a, b := net.Pipe()
	conn := NewConn(a, nil, nil)
	defer conn.Close()
	go func() {
		// 4 GiB-ish length prefix followed by a type byte: malformed.
		_, _ = b.Write([]byte{0xff, 0xff, 0xff, 0xff, byte(MsgPong)})
	}()
	_, _, err := conn.Recv()
	if err == nil {
		t.Fatal("oversize frame decoded without error")
	}
	if !IsFrameError(err) {
		t.Fatalf("err = %T %v, want *FrameError", err, err)
	}
	if !conn.Dead() {
		t.Fatal("conn survived a malformed frame")
	}
	if Classify(err) != ClassFatal {
		t.Fatalf("Classify(frame error) = %v, want fatal", Classify(err))
	}
}

// TestFailedCallPoisonsConn: after a send/recv failure the conn reports
// Dead so pools and retriers know to redial rather than reuse it.
func TestFailedCallPoisonsConn(t *testing.T) {
	client, server := Pipe(nil, nil)
	defer client.Close()
	// Peer disappears: calls fail with a closed-conn error.
	server.Close()
	if _, _, err := client.Call(MsgPing, nil); err == nil {
		t.Fatal("call against closed peer succeeded")
	}
	if !client.Dead() {
		t.Fatal("failed call left the conn marked live")
	}
}

// TestRemoteErrorLeavesConnHealthy: an application-level MsgErr reply
// is a successful round trip; the conn must stay usable.
func TestRemoteErrorLeavesConnHealthy(t *testing.T) {
	client, server := Pipe(nil, nil)
	defer client.Close()
	defer server.Close()
	go func() {
		for {
			mt, _, err := server.Recv()
			if err != nil {
				return
			}
			if mt == MsgPing {
				_ = server.Send(MsgPong, nil)
			} else {
				_ = server.Send(MsgErr, EncodeErr(errors.New("nope")))
			}
		}
	}()
	if _, _, err := client.Call(MsgStats, nil); !IsRemote(err) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if client.Dead() {
		t.Fatal("RemoteError poisoned the conn")
	}
	if rt, _, err := client.Call(MsgPing, nil); err != nil || rt != MsgPong {
		t.Fatalf("conn unusable after RemoteError: %v, %v", rt, err)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want ErrClass
	}{
		{nil, ClassOK},
		{io.EOF, ClassRetryable},
		{context.DeadlineExceeded, ClassRetryable},
		{net.ErrClosed, ClassRetryable},
		{context.Canceled, ClassFatal},
		{frameErrorf("transport: bad"), ClassFatal},
		{&RemoteError{Msg: "backend: no such key"}, ClassRemote},
		{errors.New("something else"), ClassFatal},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestIsStateLoss(t *testing.T) {
	if !IsStateLoss(&RemoteError{Msg: "backend: stale handle k (epoch 1, store at 2)"}) {
		t.Error("stale handle not classed as state loss")
	}
	if !IsStateLoss(&RemoteError{Msg: "backend: no resident object w0"}) {
		t.Error("missing object not classed as state loss")
	}
	if IsStateLoss(&RemoteError{Msg: "backend: unsupported op"}) {
		t.Error("generic remote error classed as state loss")
	}
	if IsStateLoss(io.EOF) {
		t.Error("conn error classed as state loss")
	}
}

// TestRetrierRetriesTransient: transient failures are retried with
// backoff until success, within the attempt budget.
func TestRetrierRetriesTransient(t *testing.T) {
	var calls, retries int
	r := &Retrier{
		Max:  5,
		Base: time.Millisecond,
		Cap:  4 * time.Millisecond,
		OnRetry: func(attempt int, delay time.Duration, err error) {
			retries++
			if delay <= 0 {
				t.Errorf("retry %d got non-positive delay %v", attempt, delay)
			}
		},
	}
	err := r.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return io.EOF // retryable
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do = %v", err)
	}
	if calls != 3 || retries != 2 {
		t.Fatalf("calls = %d, retries = %d; want 3, 2", calls, retries)
	}
}

// TestRetrierStopsOnFatal: non-retryable errors return immediately.
func TestRetrierStopsOnFatal(t *testing.T) {
	var calls int
	r := &Retrier{Max: 5, Base: time.Millisecond}
	fatal := frameErrorf("transport: bad frame")
	err := r.Do(context.Background(), func(context.Context) error {
		calls++
		return fatal
	})
	if !IsFrameError(err) || calls != 1 {
		t.Fatalf("err = %v after %d calls; want the frame error after 1", err, calls)
	}
}

// TestRetrierExhaustsBudget: the last error surfaces once attempts run out.
func TestRetrierExhaustsBudget(t *testing.T) {
	var calls int
	r := &Retrier{Max: 3, Base: time.Millisecond, Cap: 2 * time.Millisecond}
	err := r.Do(context.Background(), func(context.Context) error {
		calls++
		return io.EOF
	})
	if !errors.Is(err, io.EOF) || calls != 3 {
		t.Fatalf("err = %v after %d calls; want EOF after 3", err, calls)
	}
}

// TestRetrierHonorsCtx: a done context stops the retry loop during
// backoff, returning the operation's error rather than spinning.
func TestRetrierHonorsCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls int
	r := &Retrier{Max: 100, Base: 50 * time.Millisecond, Cap: 50 * time.Millisecond}
	start := time.Now()
	err := r.Do(ctx, func(context.Context) error {
		calls++
		if calls == 1 {
			cancel()
		}
		return io.EOF
	})
	if err == nil {
		t.Fatal("Do = nil under cancelled ctx")
	}
	if calls != 1 {
		t.Fatalf("op ran %d times after cancel, want 1", calls)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled retry loop ran %v", elapsed)
	}
}

// TestRetrierDeterministicBackoff: same seed, same jitter sequence —
// the property chaos experiments rely on for reproducibility.
func TestRetrierDeterministicBackoff(t *testing.T) {
	seq := func() []time.Duration {
		r := &Retrier{Max: 4, Base: 10 * time.Millisecond, Cap: time.Second, Seed: 42}
		var ds []time.Duration
		for i := 1; i <= 3; i++ {
			ds = append(ds, r.backoff(i))
		}
		return ds
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("backoff diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if !(a[0] < a[1] && a[1] < a[2]) {
		t.Fatalf("backoff not growing: %v", a)
	}
}
