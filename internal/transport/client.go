package transport

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"genie/internal/obs"
	"genie/internal/tensor"
)

// Client is the typed RPC surface over a framed connection to one
// backend.
type Client struct {
	conn *Conn

	// Dedup bookkeeping (client_feat.go), active only after Negotiate
	// grants FeatDedup. Guarded by dmu — separate from the conn's frame
	// lock so hashing never serializes I/O.
	dmu    sync.Mutex
	epoch  uint32
	sent   map[[HashSize]byte]struct{}
	hashes map[*tensor.Tensor][HashSize]byte

	// Resident-plan state (plan.go). helloed is set once the connection
	// has been through a MsgHello, whoever asked; plans mirrors the
	// server's plan slots and planNext is the next slot to take over.
	// plans and planNext are guarded by the conn's round-trip lock.
	helloed  atomic.Bool
	plans    []planSlot
	planNext int
}

// NewClient wraps a connection.
func NewClient(conn *Conn) *Client { return &Client{conn: conn} }

// Conn exposes the underlying connection (for counters).
func (c *Client) Conn() *Conn { return c.conn }

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Ping measures a protocol round trip.
func (c *Client) Ping() (time.Duration, error) {
	return c.PingCtx(nil)
}

// PingCtx is Ping with the context's deadline applied — the liveness
// probe used to confirm a backend recovered before routing work back.
func (c *Client) PingCtx(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	t, _, err := c.conn.CallCtx(ctx, MsgPing, nil)
	if err != nil {
		return 0, err
	}
	if t != MsgPong {
		return 0, fmt.Errorf("transport: ping got %d", t)
	}
	return time.Since(start), nil
}

// Upload stores a tensor remotely under key.
func (c *Client) Upload(key string, data *tensor.Tensor) (*UploadOK, error) {
	return c.UploadCtx(nil, key, data)
}

// UploadCtx is Upload carrying trace context: a "transport.upload"
// span wraps the round trip and rides the wire envelope. A nil or
// untraced ctx degrades to the plain path.
//
// On a connection granted FeatDedup the upload is a 32-byte
// content-hash ref when the server has already seen these exact bytes,
// and the full payload otherwise. A server that lost the referenced
// bytes (crash between calls) rejects the ref with a recoverable error
// and the client falls back to the full upload — correctness never
// depends on the caches agreeing.
func (c *Client) UploadCtx(ctx context.Context, key string, data *tensor.Tensor) (*UploadOK, error) {
	if c.conn.Features()&FeatDedup == 0 {
		return c.uploadFullCtx(ctx, key, data, [HashSize]byte{}, false)
	}
	h := c.hashOf(data)
	if c.hasSent(h) {
		ack, err := c.uploadCall(ctx, MsgUploadRef, EncodeUploadRef(&UploadRef{Key: key, Hash: h}))
		if err == nil {
			c.noteUpload(h, ack)
			return ack, nil
		}
		if !isUnknownContent(err) {
			return nil, err
		}
		c.flushDedup() // server lost its cache; resync from scratch
	}
	return c.uploadFullCtx(ctx, key, data, h, true)
}

// uploadFullCtx sends the complete payload; track records dedup state
// on success (skipped entirely on legacy connections).
func (c *Client) uploadFullCtx(ctx context.Context, key string, data *tensor.Tensor, h [HashSize]byte, track bool) (*UploadOK, error) {
	// Pooled scratch: the round trip is synchronous, so the payload can
	// go back to the pool as soon as the call returns.
	payload := EncodeUploadPooled(&Upload{Key: key, Data: data})
	defer ReleaseEncoded(payload)
	ack, err := c.uploadCall(ctx, MsgUpload, payload)
	if err == nil && track {
		c.noteUpload(h, ack)
	}
	return ack, err
}

// uploadCall is one upload round trip in either form, full or ref: a
// "transport.upload" span wraps it and rides the wire envelope, and the
// reply must be MsgUploadOK.
func (c *Client) uploadCall(ctx context.Context, t MsgType, payload []byte) (*UploadOK, error) {
	_, span := obs.StartSpan(ctx, "transport.upload")
	span.SetAttrInt("send_bytes", int64(len(payload)))
	rt, p, err := c.conn.CallEnvCtx(ctx, t, Envelope{Trace: span.TraceID(), Span: span.SpanID()}, payload)
	span.SetAttrInt("recv_bytes", int64(len(p)))
	span.End()
	if err != nil {
		return nil, err
	}
	if rt != MsgUploadOK {
		return nil, fmt.Errorf("transport: %s got %d", KindName(t), rt)
	}
	return DecodeUploadOK(p)
}

// Exec ships a subgraph for remote execution.
func (c *Client) Exec(x *Exec) (*ExecOK, error) {
	return c.ExecCtx(nil, x)
}

// ExecCtx is Exec carrying trace context: a "transport.exec" span
// wraps the round trip, and the span IDs ride the wire envelope so the
// server parents its execution span under this one.
//
// Bindings marked Cache are rewritten for the negotiated feature set
// (hash refs on dedup connections, plain inline otherwise) on a copy —
// the caller's Exec is never mutated, so the one-shot retry after a
// server-side cache loss re-sends the original tensors in full.
//
// An exec marked Repeat travels through a resident plan slot when the
// connection grants FeatPlan (plan.go), asking for the feature first if
// nobody has negotiated this connection.
func (c *Client) ExecCtx(ctx context.Context, x *Exec) (*ExecOK, error) {
	if x.Repeat {
		if err := c.helloOnce(ctx); err != nil {
			return nil, err
		}
	}
	wire, pending := c.rewriteBinds(x, c.conn.Features())
	ok, err := c.execOnce(ctx, wire)
	if err != nil && isUnknownPlan(err) {
		// The server holds nothing in the slot we patched; the failed call
		// forgot it on our side too, so this one installs.
		ok, err = c.execOnce(ctx, wire)
	}
	if err != nil && isUnknownContent(err) && wire != x {
		// The server forgot bytes we hash-referenced (crash or cache
		// reset). Flush, rewrite again — now everything goes inline with
		// fresh cache hints — and retry once.
		c.flushDedup()
		wire, pending = c.rewriteBinds(x, c.conn.Features())
		ok, err = c.execOnce(ctx, wire)
	}
	if err != nil {
		return nil, err
	}
	c.noteExec(ok.Epoch, pending)
	return ok, nil
}

// execOnce is one exec round trip: a full MsgExec frame, or — for a
// repeatable exec on a connection that granted FeatPlan — a MsgExecPlan
// frame through the graph's plan slot (plan.go). Encode, mirror update,
// send and receive are one critical section under the conn's round-trip
// lock: frames reach the server in mirror order, so the mirror is what
// the server's slot holds. The server patches before it executes, so the
// mirror follows the frame whenever the reply is an ExecOK; on any error
// the slot is forgotten and the next frame for it installs.
func (c *Client) execOnce(ctx context.Context, x *Exec) (*ExecOK, error) {
	c.conn.callMu.Lock()
	defer c.conn.callMu.Unlock()
	kind, slot := MsgExec, -1
	var payload []byte
	var err error
	if x.Repeat && c.conn.Features()&FeatPlan != 0 {
		kind, slot = MsgExecPlan, c.planSlotFor(x.Graph)
		payload, err = encodeExecPlan(uint8(slot), c.plans[slot].g, x)
	} else {
		payload, err = EncodeExecPooled(x)
	}
	if err != nil {
		return nil, err
	}
	// Pooled scratch: the round trip is synchronous, so the payload can
	// go back to the pool as soon as the call returns.
	defer ReleaseEncoded(payload)
	if slot >= 0 {
		c.plans[slot].g = nil
	}
	_, span := obs.StartSpan(ctx, "transport.exec")
	span.SetAttrInt("send_bytes", int64(len(payload)))
	t, p, err := c.conn.roundTrip(ctx, kind, Envelope{Trace: span.TraceID(), Span: span.SpanID()}, payload)
	span.SetAttrInt("recv_bytes", int64(len(p)))
	span.End()
	if err != nil {
		return nil, err
	}
	if t != MsgExecOK {
		return nil, fmt.Errorf("transport: exec got %d", t)
	}
	ok, err := DecodeExecOK(p)
	if err == nil && slot >= 0 {
		c.plans[slot].g = x.Graph
	}
	return ok, err
}

// ExecVerified ships a subgraph and verifies the server's execution
// attestation: the response must echo the fingerprint of the graph that
// was sent. A mismatch means the server executed something else
// (tampering, misrouting, or a buggy proxy) and is returned as an error
// with the results discarded. The graph always travels whole, never as a
// resident plan: the graph on the wire is what the server attests.
//
//lint:ignore deadexport paper mechanism: the §5 attestation, demonstrated by tests
func (c *Client) ExecVerified(x *Exec) (*ExecOK, error) {
	want := x.Graph.Fingerprint()
	whole := *x
	whole.Repeat = false
	ok, err := c.Exec(&whole)
	if err != nil {
		return nil, err
	}
	if ok.GraphFP != want {
		return nil, fmt.Errorf("transport: execution attestation mismatch: sent %s, server ran %s",
			want, ok.GraphFP)
	}
	return ok, nil
}

// Fetch retrieves a resident object; epoch 0 skips staleness checking.
func (c *Client) Fetch(key string, epoch uint32) (*tensor.Tensor, error) {
	return c.FetchCtx(nil, key, epoch)
}

// FetchCtx is Fetch with the context's deadline applied to the round
// trip.
func (c *Client) FetchCtx(ctx context.Context, key string, epoch uint32) (*tensor.Tensor, error) {
	t, p, err := c.conn.CallCtx(ctx, MsgFetch, EncodeFetch(&Fetch{Key: key, Epoch: epoch}))
	if err != nil {
		return nil, err
	}
	if t != MsgTensor {
		return nil, fmt.Errorf("transport: fetch got %d", t)
	}
	return DecodeTensorMsg(p)
}

// Free releases a resident object.
func (c *Client) Free(key string) error {
	t, _, err := c.conn.Call(MsgFree, EncodeFetch(&Fetch{Key: key}))
	if err != nil {
		return err
	}
	if t != MsgFreeOK {
		return fmt.Errorf("transport: free got %d", t)
	}
	return nil
}

// Crash injects a server failure (drops all resident state).
//
//lint:ignore deadexport test fake: drops a remote server's state over the wire
func (c *Client) Crash() error {
	t, _, err := c.conn.Call(MsgCrash, nil)
	if err != nil {
		return err
	}
	if t != MsgCrashOK {
		return fmt.Errorf("transport: crash got %d", t)
	}
	return nil
}

// Stats fetches server counters.
func (c *Client) Stats() (*Stats, error) {
	t, p, err := c.conn.Call(MsgStats, nil)
	if err != nil {
		return nil, err
	}
	if t != MsgStatsOK {
		return nil, fmt.Errorf("transport: stats got %d", t)
	}
	return DecodeStats(p)
}
