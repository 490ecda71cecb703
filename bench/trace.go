package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"genie/internal/runtime"
	"genie/internal/srg"
	"genie/internal/tensor"
	"genie/internal/transport"
)

// The traced run observes the program from outside: no file beyond
// bench/ changes, so spans are recorded here, around the calls into each
// layer's public functions. tracedEP decorates the runtime.Endpoint
// handed to every runner, split and pool member; the recorder keeps the
// spans in memory and writes them out when the benchmark ends.

// rpcSpan is one endpoint call seen at the runtime.Endpoint boundary.
// Scope ("req<N>/", parsed from the call's keys) is the identifier the
// spans of one request share; Req/Tok place the span under a client
// span of the serial pass (Tok is the index of the token the call works
// towards: 0 = prefill phase, k = decode step k, len = teardown).
type rpcSpan struct {
	Phase string `json:"phase"`
	EP    string `json:"ep"`
	Kind  string `json:"kind"`
	Scope string `json:"scope,omitempty"`
	Req   int    `json:"req"`
	Tok   int    `json:"tok"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Sent  int64  `json:"sent_bytes"`
	Recv  int64  `json:"recv_bytes"`
	Err   bool   `json:"err,omitempty"`
}

func (s *rpcSpan) dur() time.Duration { return time.Duration(s.End - s.Start) }

// reqSpan is the client span of one request: due/submit, first token,
// last token.
type reqSpan struct {
	Phase  string `json:"phase"`
	Req    int    `json:"req"`
	Traced bool   `json:"traced"`
	Due    int64  `json:"due_ns"`
	First  int64  `json:"first_ns"`
	Last   int64  `json:"last_ns"`
	Tokens int    `json:"tokens"`
}

// capturedExec is one Exec kept for the replay probes, with its inline
// tensors cloned (the program recycles some of them after the call).
type capturedExec struct {
	x        *transport.Exec
	kind     string
	req, tok int
}

// captureRequests is how many traced requests of the serial pass keep
// their Execs: enough for the first 64 decode steps and 8 prefills of
// every workload (the shortest decode is 7 steps).
const captureRequests = 10

type recorder struct {
	epoch time.Time
	// on gates recording; off, the decorator forwards with one atomic
	// load, which is what the untraced half of the serial pass pays.
	on atomic.Bool
	// cur is the serial pass's position: request index << 32 | token.
	cur atomic.Int64
	// capture is set while a request whose Execs are kept is in flight.
	capture atomic.Bool

	mu       sync.Mutex
	phase    string
	spans    []rpcSpan
	reqs     []reqSpan
	captured []capturedExec
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now(), phase: "setup"}
	r.cur.Store(-1)
	r.on.Store(true)
	return r
}

func (r *recorder) setPhase(p string) {
	r.mu.Lock()
	r.phase = p
	r.mu.Unlock()
}

func (r *recorder) setCur(req, tok int) { r.cur.Store(int64(req)<<32 | int64(tok)) }
func (r *recorder) clearCur()           { r.cur.Store(-1) }

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) addReq(s reqSpan) {
	r.mu.Lock()
	s.Phase = r.phase
	r.reqs = append(r.reqs, s)
	r.mu.Unlock()
}

// spansOf returns the recorded RPC spans of one phase.
func (r *recorder) spansOf(phase string) []rpcSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []rpcSpan
	for _, s := range r.spans {
		if s.Phase == phase {
			out = append(out, s)
		}
	}
	return out
}

// writeSpans dumps every span as JSON (the -spans flag).
func (r *recorder) writeSpans(path string) error {
	r.mu.Lock()
	doc := struct {
		Requests []reqSpan `json:"requests"`
		RPCs     []rpcSpan `json:"rpcs"`
	}{r.reqs, r.spans}
	data, err := json.Marshal(doc)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedEP decorates one backend connection. It forwards ExecCtx and
// PingCtx too, so ctx deadlines and the lanes' idle health probes keep
// working through it.
type tracedEP struct {
	name  string
	inner *transport.Client
	ctr   *transport.Counters
	rec   *recorder
}

var _ runtime.Endpoint = (*tracedEP)(nil)

// call times one RPC. Each connection carries one call at a time (a
// lane owns its connection), so the counter delta is the call's frames.
func (t *tracedEP) call(kind, scope string, fn func() error) error {
	if !t.rec.on.Load() {
		return fn()
	}
	s0, r0, _ := t.ctr.Snapshot()
	start := time.Now()
	err := fn()
	end := time.Now()
	s1, r1, _ := t.ctr.Snapshot()
	sp := rpcSpan{
		EP: t.name, Kind: kind, Scope: scope, Req: -1, Tok: -1,
		Start: t.rec.since(start), End: t.rec.since(end),
		Sent: s1 - s0, Recv: r1 - r0, Err: err != nil,
	}
	if cur := t.rec.cur.Load(); cur >= 0 {
		sp.Req, sp.Tok = int(cur>>32), int(cur&0xffffffff)
	}
	t.rec.mu.Lock()
	sp.Phase = t.rec.phase
	t.rec.spans = append(t.rec.spans, sp)
	t.rec.mu.Unlock()
	return err
}

func (t *tracedEP) Exec(x *transport.Exec) (*transport.ExecOK, error) {
	return t.ExecCtx(nil, x)
}

func (t *tracedEP) ExecCtx(ctx context.Context, x *transport.Exec) (ok *transport.ExecOK, err error) {
	kind := execKind(x)
	err = t.call(kind, execScope(x), func() error {
		ok, err = t.inner.ExecCtx(ctx, x)
		return err
	})
	if err == nil && t.rec.capture.Load() && t.rec.on.Load() {
		cur := t.rec.cur.Load()
		c := capturedExec{x: cloneExec(x), kind: kind, req: int(cur >> 32), tok: int(cur & 0xffffffff)}
		t.rec.mu.Lock()
		t.rec.captured = append(t.rec.captured, c)
		t.rec.mu.Unlock()
	}
	return ok, err
}

func (t *tracedEP) PingCtx(ctx context.Context) (d time.Duration, err error) {
	err = t.call("ping", "", func() error {
		d, err = t.inner.PingCtx(ctx)
		return err
	})
	return d, err
}

func (t *tracedEP) Upload(key string, data *tensor.Tensor) (ack *transport.UploadOK, err error) {
	err = t.call("upload", scopeOf(key), func() error {
		ack, err = t.inner.Upload(key, data)
		return err
	})
	return ack, err
}

func (t *tracedEP) Fetch(key string, epoch uint32) (out *tensor.Tensor, err error) {
	err = t.call("fetch", scopeOf(key), func() error {
		out, err = t.inner.Fetch(key, epoch)
		return err
	})
	return out, err
}

func (t *tracedEP) Free(key string) error {
	return t.call("free", scopeOf(key), func() error { return t.inner.Free(key) })
}

func (t *tracedEP) Stats() (st *transport.Stats, err error) {
	err = t.call("stats", "", func() error {
		st, err = t.inner.Stats()
		return err
	})
	return st, err
}

// execKind classifies an Exec by what it carries: the split's handoff
// graph by name, otherwise by the rows of its first fresh input (token
// ids, positions or a boundary activation) — one row is a decode step,
// more is a prompt pass. Cache-hinted binds are gathered prefix KV, not
// fresh input.
func execKind(x *transport.Exec) string {
	if x.Graph != nil && x.Graph.Name == "kvcache.handoff" {
		return "handoff"
	}
	for i := range x.Binds {
		b := &x.Binds[i]
		if b.Inline == nil || b.Cache || len(b.Inline.Shape()) == 0 {
			continue
		}
		if b.Inline.Shape()[0] == 1 {
			return "step"
		}
		return "prefill"
	}
	return "exec"
}

// execScope finds the session scope in an Exec's keys.
func execScope(x *transport.Exec) string {
	for _, key := range x.Keep {
		if s := scopeOf(key); s != "" {
			return s
		}
	}
	for i := range x.Binds {
		if s := scopeOf(x.Binds[i].Key); s != "" {
			return s
		}
	}
	return ""
}

// scopeOf returns the "req<N>/" prefix of a scoped key, or "".
func scopeOf(key string) string {
	if i := strings.IndexByte(key, '/'); i > 0 {
		return key[:i+1]
	}
	return ""
}

// cloneExec copies an Exec deeply enough to replay it later: the graph
// is immutable and shared, inline tensors are cloned.
func cloneExec(x *transport.Exec) *transport.Exec {
	c := &transport.Exec{Graph: x.Graph, Want: append([]srg.NodeID(nil), x.Want...)}
	c.Binds = make([]transport.Binding, len(x.Binds))
	for i, b := range x.Binds {
		if b.Inline != nil {
			b.Inline = b.Inline.Clone()
		}
		c.Binds[i] = b
	}
	if x.Keep != nil {
		c.Keep = make(map[srg.NodeID]string, len(x.Keep))
		for id, key := range x.Keep {
			c.Keep[id] = key
		}
	}
	return c
}
