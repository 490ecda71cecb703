package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"genie/internal/tensor"
)

// Client-side wire feature machinery (DESIGN.md §11): negotiation,
// the sent-hash set behind upload dedup, previous-version tracking for
// delta uploads, and the exec-binding rewrite that turns repeated
// inline weights into 32-byte hash refs. The resident-plan mirror, the
// fourth feature, is plan.go.

// prevVersion is the last payload uploaded under a key, kept so the
// next same-shape upload can travel as a delta.
type prevVersion struct {
	meta tensor.Meta
	data []byte
}

const (
	// maxPrevBytes bounds delta-base memory; past it the tracking
	// resets (deltas degrade to full uploads, correctness unaffected).
	maxPrevBytes = 64 << 20
	// maxHashCache bounds the pointer→hash memo.
	maxHashCache = 4096
)

// Negotiate requests wire features from the server and installs the
// granted subset on the connection. Returns the granted mask. Calling
// it on a legacy server fails with an unknown-message error and leaves
// the conn unusable (the server closes it); negotiate on fresh conns.
func (c *Client) Negotiate(ctx context.Context, want uint32) (uint32, error) {
	c.conn.callMu.Lock()
	defer c.conn.callMu.Unlock()
	return c.negotiateLocked(ctx, want)
}

// negotiateLocked is Negotiate under the conn's round-trip lock, which
// the caller holds. Any completed Hello, whatever it granted, settles
// the connection's features: the client never asks again on its own.
func (c *Client) negotiateLocked(ctx context.Context, want uint32) (uint32, error) {
	t, p, err := c.conn.roundTrip(ctx, MsgHello, Envelope{}, EncodeHello(want))
	if err != nil {
		return 0, err
	}
	if t != MsgHelloOK {
		return 0, fmt.Errorf("transport: hello got %d", t)
	}
	granted, err := DecodeHello(p)
	if err != nil {
		return 0, err
	}
	c.conn.SetFeatures(granted)
	c.flushDedup()
	c.plans, c.planNext = nil, 0
	c.helloed.Store(true)
	return granted, nil
}

// isUnknownContent classifies the server's "I don't have those bytes"
// rejection, which is recoverable by re-sending in full; any other
// error propagates.
func isUnknownContent(err error) bool {
	var re *RemoteError
	if !errors.As(err, &re) {
		return false
	}
	return strings.Contains(re.Msg, "unknown content hash") ||
		strings.Contains(re.Msg, "delta base")
}

// hashOf memoizes ContentHash by tensor identity. Weights are immutable
// once built (the tensormut analyzer enforces this outside kernel
// packages), so pointer identity is a sound cache key; the memo is
// size-capped for callers that hash short-lived tensors.
func (c *Client) hashOf(t *tensor.Tensor) [HashSize]byte {
	c.dmu.Lock()
	if h, ok := c.hashes[t]; ok {
		c.dmu.Unlock()
		return h
	}
	c.dmu.Unlock()
	h := ContentHash(t)
	c.dmu.Lock()
	if c.hashes == nil || len(c.hashes) >= maxHashCache {
		c.hashes = make(map[*tensor.Tensor][HashSize]byte)
	}
	c.hashes[t] = h
	c.dmu.Unlock()
	return h
}

func (c *Client) hasSent(h [HashSize]byte) bool {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	_, ok := c.sent[h]
	return ok
}

// flushDedup forgets everything the client believes the server holds.
func (c *Client) flushDedup() {
	c.dmu.Lock()
	c.sent = nil
	c.prev = nil
	c.prevBytes = 0
	c.dmu.Unlock()
}

// noteEpoch reconciles the server's store epoch: a change means a
// crash wiped resident state, so every sent hash and delta base is
// gone and the dedup state must restart from nothing.
func (c *Client) noteEpochLocked(epoch uint32) {
	if epoch != c.epoch {
		c.epoch = epoch
		c.sent = nil
		c.prev = nil
		c.prevBytes = 0
	}
}

// noteUpload records a successful upload: the server now holds these
// bytes (dedup) and this is the key's delta base.
func (c *Client) noteUpload(key string, data *tensor.Tensor, h [HashSize]byte, ack *UploadOK) {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	c.noteEpochLocked(ack.Epoch)
	if c.sent == nil {
		c.sent = make(map[[HashSize]byte]struct{})
	}
	c.sent[h] = struct{}{}
	// Delta bases are copies (the caller may mutate or release the
	// tensor later) and quantized tensors are excluded — their scale
	// section makes byte deltas meaningless.
	if data.DType() == tensor.I8 {
		return
	}
	if old, ok := c.prev[key]; ok {
		c.prevBytes -= int64(len(old.data))
	}
	if c.prevBytes+int64(data.NumBytes()) > maxPrevBytes {
		c.prev = nil
		c.prevBytes = 0
	}
	if c.prev == nil {
		c.prev = make(map[string]prevVersion)
	}
	cp := make([]byte, data.NumBytes())
	copy(cp, data.Bytes())
	c.prev[key] = prevVersion{meta: tensor.MetaOf(data), data: cp}
	c.prevBytes += int64(len(cp))
}

// noteExec records a successful exec that carried cache-hinted inline
// tensors (the server hashed and remembered them) and reconciles the
// epoch.
func (c *Client) noteExec(epoch uint32, sent [][HashSize]byte) {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	c.noteEpochLocked(epoch)
	if len(sent) == 0 {
		return
	}
	if c.sent == nil {
		c.sent = make(map[[HashSize]byte]struct{})
	}
	for _, h := range sent {
		c.sent[h] = struct{}{}
	}
}

// prevFor returns the delta base for key when one exists with a
// matching descriptor.
func (c *Client) prevFor(key string, m tensor.Meta) ([]byte, bool) {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	pv, ok := c.prev[key]
	if !ok || !pv.meta.Equal(m) {
		return nil, false
	}
	return pv.data, true
}

// rewriteBinds prepares an Exec's bindings for the negotiated feature
// set without mutating the caller's struct. With FeatDedup granted,
// cache-hinted inline tensors the server has already seen become
// 32-byte hash refs and fresh ones stay inline (kind 3, so the server
// remembers them); without it every Cache hint is stripped so the
// encoding stays byte-identical to legacy. pending lists the hashes
// that will be server-known once this exec succeeds.
func (c *Client) rewriteBinds(x *Exec, feats uint32) (_ *Exec, pending [][HashSize]byte) {
	needs := false
	for i := range x.Binds {
		if x.Binds[i].Cache {
			needs = true
			break
		}
	}
	if !needs {
		return x, nil
	}
	binds := make([]Binding, len(x.Binds))
	copy(binds, x.Binds)
	for i := range binds {
		if !binds[i].Cache || binds[i].Inline == nil {
			binds[i].Cache = false
			continue
		}
		if feats&FeatDedup == 0 {
			binds[i].Cache = false
			continue
		}
		h := c.hashOf(binds[i].Inline)
		if c.hasSent(h) {
			binds[i] = Binding{Ref: binds[i].Ref, Hash: h}
		} else {
			pending = append(pending, h)
		}
	}
	x2 := *x
	x2.Binds = binds
	return &x2, pending
}

// uploadRefCtx stores the server-known bytes behind hash under key
// without resending them.
func (c *Client) uploadRefCtx(ctx context.Context, key string, h [HashSize]byte) (*UploadOK, error) {
	t, p, err := c.conn.CallCtx(ctx, MsgUploadRef, EncodeUploadRef(&UploadRef{Key: key, Hash: h}))
	if err != nil {
		return nil, err
	}
	if t != MsgUploadOK {
		return nil, fmt.Errorf("transport: upload_ref got %d", t)
	}
	return DecodeUploadOK(p)
}

func (c *Client) uploadDeltaCtx(ctx context.Context, u *UploadDelta) (*UploadOK, error) {
	t, p, err := c.conn.CallCtx(ctx, MsgUploadDelta, EncodeUploadDelta(u))
	if err != nil {
		return nil, err
	}
	if t != MsgUploadOK {
		return nil, fmt.Errorf("transport: upload_delta got %d", t)
	}
	return DecodeUploadOK(p)
}
