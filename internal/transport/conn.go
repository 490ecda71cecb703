package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counters tracks traffic through one endpoint; the evaluation's "Net
// [MB]" column reads these.
type Counters struct {
	BytesSent atomic.Int64
	BytesRecv atomic.Int64
	Calls     atomic.Int64
}

// Snapshot returns current values.
func (c *Counters) Snapshot() (sent, recv, calls int64) {
	return c.BytesSent.Load(), c.BytesRecv.Load(), c.Calls.Load()
}

// Reset zeroes the counters.
func (c *Counters) Reset() {
	c.BytesSent.Store(0)
	c.BytesRecv.Store(0)
	c.Calls.Store(0)
}

// Total returns sent+recv.
func (c *Counters) Total() int64 { return c.BytesSent.Load() + c.BytesRecv.Load() }

// Shaper emulates link characteristics on top of a fast local socket so
// small-scale real-transport experiments exhibit the paper's 25 Gbps +
// RPC-overhead regime. A nil *Shaper is a no-op.
type Shaper struct {
	// Bandwidth in bytes/s (0 = unlimited).
	Bandwidth float64
	// RTT added per call (half on send, half on receive).
	RTT time.Duration
	// PerCall is fixed software overhead added to every RPC, emulating
	// the TensorPipe/Python dispatch cost the paper measures.
	PerCall time.Duration
}

func (s *Shaper) delaySend(n int) {
	if s == nil {
		return
	}
	d := s.PerCall + s.RTT/2
	if s.Bandwidth > 0 {
		d += time.Duration(float64(n) / s.Bandwidth * float64(time.Second))
	}
	if d > 0 {
		time.Sleep(d)
	}
}

func (s *Shaper) delayRecv(n int) {
	if s == nil {
		return
	}
	d := s.RTT / 2
	if s.Bandwidth > 0 {
		d += time.Duration(float64(n) / s.Bandwidth * float64(time.Second))
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// Conn is a counted, optionally shaped, framed connection. It serializes
// concurrent calls (one outstanding request per conn, like a synchronous
// RPC channel): Call and its variants hold callMu from the request's
// first byte to the reply's last, so every caller reads its own reply.
// Bare Send/Recv are the server side's (and test harnesses') halves of
// that exchange and take only the frame-write lock.
type Conn struct {
	// callMu is the round-trip lock. The client's resident-plan mirror
	// (plan.go) also updates under it: what the mirror says was
	// sent is what was sent, in that order.
	callMu sync.Mutex
	// mu guards frame writes.
	mu   sync.Mutex
	raw  net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	ctr  *Counters
	shp  *Shaper
	tel  *Telemetry
	dead atomic.Bool
	// feat holds the negotiated wire feature mask (see wirefeat.go).
	// Zero until a MsgHello exchange grants features; only the sending
	// side consults it — receiving compressed frames always works.
	feat atomic.Uint32
}

// connBufSize sizes each conn's read and write buffer. Headers and
// small frames batch through it; a payload larger than the buffer
// bypasses it (bufio reads and writes those directly), so sizing it to
// the largest frame only costs memory per conn.
const connBufSize = 64 << 10

// NewConn wraps a net.Conn. counters may be shared across conns; shaper
// may be nil.
func NewConn(raw net.Conn, counters *Counters, shaper *Shaper) *Conn {
	if counters == nil {
		counters = &Counters{}
	}
	return &Conn{
		raw: raw,
		br:  bufio.NewReaderSize(raw, connBufSize),
		bw:  bufio.NewWriterSize(raw, connBufSize),
		ctr: counters,
		shp: shaper,
	}
}

// Counters returns the traffic counters for this conn.
func (c *Conn) Counters() *Counters { return c.ctr }

// SetFeatures installs the negotiated wire feature mask. Called by
// Client.Negotiate and the server's MsgHello handler once both sides
// agree; until then the conn speaks the legacy byte-identical protocol.
func (c *Conn) SetFeatures(f uint32) { c.feat.Store(f) }

// Features returns the negotiated wire feature mask (0 = legacy).
func (c *Conn) Features() uint32 { return c.feat.Load() }

// SetTelemetry attaches per-kind byte/call accounting (may be shared
// across conns; nil detaches).
func (c *Conn) SetTelemetry(t *Telemetry) { c.tel = t }

// Close closes the underlying socket.
func (c *Conn) Close() error {
	c.dead.Store(true)
	return c.raw.Close()
}

// Dead reports whether the conn has been closed or poisoned by a failed
// round trip. A dead conn cannot be revived; callers should redial.
//
//lint:ignore deadexport test observation: conn-poisoning tests read it
func (c *Conn) Dead() bool { return c.dead.Load() }

// Send writes one untraced frame.
//
//lint:ignore deadexport test reference: raw-frame tests write untraced frames
func (c *Conn) Send(t MsgType, payload []byte) error {
	return c.SendEnv(t, Envelope{}, payload)
}

// SendEnv writes one frame carrying env (untraced when env is zero).
// On connections that negotiated FeatCompress, payloads that deflate
// smaller travel compressed; counters, telemetry, and the link shaper
// all see the bytes that actually crossed the wire.
func (c *Conn) SendEnv(t MsgType, env Envelope, payload []byte) error {
	var cb *bytes.Buffer
	if c.feat.Load()&FeatCompress != 0 {
		cb = compressPayload(payload)
	}
	// The compressed bytes are dead once flushed (or once the write
	// failed): bufio copies or writes through, never retains.
	defer releaseCompressed(cb)
	wireLen := len(payload)
	if cb != nil {
		wireLen = cb.Len()
	}
	c.shp.delaySend(wireLen)
	c.mu.Lock()
	defer c.mu.Unlock()
	var err error
	if cb != nil {
		err = writeFrameCompressed(c.bw, t, env, cb.Bytes())
	} else {
		err = WriteFrameEnv(c.bw, t, env, payload)
	}
	if err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	n := env.wireSize(wireLen)
	c.ctr.BytesSent.Add(n)
	c.tel.onSend(t, n)
	return nil
}

// Recv reads one frame, discarding any trace envelope.
func (c *Conn) Recv() (MsgType, []byte, error) {
	t, _, payload, err := c.RecvEnv()
	return t, payload, err
}

// RecvEnv reads one frame plus the peer's trace envelope. A malformed
// frame (oversize length prefix, corrupt header) poisons and closes the
// conn: after one bad frame the stream's boundaries can no longer be
// trusted, so continuing to read would desynchronize every later call.
func (c *Conn) RecvEnv() (MsgType, Envelope, []byte, error) {
	t, env, payload, wireLen, err := ReadFrameEnv(c.br)
	if err != nil {
		if IsFrameError(err) {
			_ = c.Close()
		}
		return 0, Envelope{}, nil, err
	}
	n := env.wireSize(wireLen)
	c.ctr.BytesRecv.Add(n)
	c.tel.onRecv(t, n)
	c.shp.delayRecv(wireLen)
	return t, env, payload, nil
}

// Call performs one synchronous round trip and returns the response
// frame. MsgErr responses decode to an error.
func (c *Conn) Call(t MsgType, payload []byte) (MsgType, []byte, error) {
	return c.CallEnv(t, Envelope{}, payload)
}

// CallEnv performs one round trip with trace context attached to the
// request frame, so the server can parent its spans under the caller.
//
// A failed send or receive poisons the conn (Dead reports true and the
// socket is closed): the synchronous protocol cannot tell whether the
// peer consumed the request, so a response may still be in flight and
// would desynchronize the next call. RemoteError responses (MsgErr) are
// application-level and leave the conn healthy.
func (c *Conn) CallEnv(t MsgType, env Envelope, payload []byte) (MsgType, []byte, error) {
	return c.CallEnvCtx(nil, t, env, payload)
}

// CallCtx is Call with the context's deadline and cancellation applied
// to the round trip's socket I/O.
func (c *Conn) CallCtx(ctx context.Context, t MsgType, payload []byte) (MsgType, []byte, error) {
	return c.CallEnvCtx(ctx, t, Envelope{}, payload)
}

// CallEnvCtx is CallEnv with per-call deadlines: the context's deadline
// is installed as the socket's read+write deadline for the duration of
// the round trip, and cancellation mid-call forces the blocked I/O to
// fail immediately. This is what keeps a hung or partitioned peer from
// wedging the caller forever — the call returns once ctx expires, the
// conn is poisoned (a late response can't be re-associated), the round-
// trip lock is released, and the caller can redial or fail over.
func (c *Conn) CallEnvCtx(ctx context.Context, t MsgType, env Envelope, payload []byte) (MsgType, []byte, error) {
	c.callMu.Lock()
	defer c.callMu.Unlock()
	return c.roundTrip(ctx, t, env, payload)
}

// roundTrip is one request/reply exchange; the caller holds callMu. The
// deadline is armed under the lock, so it only ever bounds this call's
// own I/O.
func (c *Conn) roundTrip(ctx context.Context, t MsgType, env Envelope, payload []byte) (MsgType, []byte, error) {
	release, err := c.armDeadline(ctx)
	if err != nil {
		return 0, nil, fmt.Errorf("transport: call: %w", err)
	}
	rt, rp, err := c.exchange(t, env, payload)
	release()
	if err != nil && ctx != nil && !IsRemote(err) {
		if cerr := ctx.Err(); cerr != nil {
			// The I/O error was induced by expiry/cancel; surface the cause.
			return 0, nil, fmt.Errorf("transport: call: %w", cerr)
		}
		// The armed I/O deadline *is* the ctx deadline, so a raw timeout
		// means the ctx expired even if its own timer hasn't fired yet.
		if _, has := ctx.Deadline(); has && errors.Is(err, os.ErrDeadlineExceeded) {
			return 0, nil, fmt.Errorf("transport: call: %w", context.DeadlineExceeded)
		}
	}
	return rt, rp, err
}

// exchange sends one frame and reads the reply, poisoning the conn when
// either half fails.
func (c *Conn) exchange(t MsgType, env Envelope, payload []byte) (MsgType, []byte, error) {
	c.ctr.Calls.Add(1)
	c.tel.onCall(t)
	if err := c.SendEnv(t, env, payload); err != nil {
		_ = c.Close()
		return 0, nil, fmt.Errorf("transport: send: %w", err)
	}
	rt, rp, err := c.Recv()
	if err != nil {
		_ = c.Close()
		return 0, nil, fmt.Errorf("transport: recv: %w", err)
	}
	if rt == MsgErr {
		return rt, nil, DecodeErr(rp)
	}
	return rt, rp, nil
}

// armDeadline applies ctx's deadline to the raw socket and spawns a
// watcher that yanks the deadline on cancellation. The returned release
// stops the watcher and clears the deadline; it must be called exactly
// once, after the round trip.
func (c *Conn) armDeadline(ctx context.Context) (release func(), err error) {
	if ctx == nil {
		return func() {}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	deadline, hasDeadline := ctx.Deadline()
	if hasDeadline {
		_ = c.raw.SetDeadline(deadline)
	}
	done := ctx.Done()
	if done == nil {
		if !hasDeadline {
			return func() {}, nil
		}
		return func() { _ = c.raw.SetDeadline(time.Time{}) }, nil
	}
	stop := make(chan struct{})
	var mu sync.Mutex
	released := false
	go func() {
		select {
		case <-done:
			// Force any blocked read/write on this conn to fail now —
			// unless release already ran. The guard matters: when the call
			// completes and the caller cancels its ctx immediately after,
			// this goroutine may not have been scheduled yet and sees both
			// channels ready; picking done here would plant a poison
			// deadline on the conn AFTER release cleared it, failing the
			// next, innocent call on this conn.
			mu.Lock()
			if !released {
				// SetDeadline never blocks; holding mu here is what makes
				// the released-check and the poison atomic against release.
				//lint:ignore lockscope SetDeadline is non-blocking
				_ = c.raw.SetDeadline(time.Unix(1, 0))
			}
			mu.Unlock()
		case <-stop:
		}
	}()
	return func() {
		mu.Lock()
		released = true
		mu.Unlock()
		close(stop)
		_ = c.raw.SetDeadline(time.Time{})
	}, nil
}

// Dial connects to a Genie server.
func Dial(addr string, counters *Counters, shaper *Shaper) (*Conn, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	if tc, ok := raw.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return NewConn(raw, counters, shaper), nil
}

// Pipe returns two in-process connected endpoints (tests, examples).
func Pipe(counters *Counters, shaper *Shaper) (client, server *Conn) {
	a, b := net.Pipe()
	return NewConn(a, counters, shaper), NewConn(b, nil, nil)
}

// IsClosed reports whether err indicates a closed/broken connection.
func IsClosed(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	msg := err.Error()
	return strings.Contains(msg, "use of closed network connection") ||
		strings.Contains(msg, "EOF") ||
		strings.Contains(msg, "connection reset")
}
