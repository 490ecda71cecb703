package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span. Values are pre-rendered
// strings so exporting never reflects.
type Attr struct {
	Key string `json:"key"`
	Val string `json:"val"`
}

// Span is one timed operation in a trace. Fields are exported for the
// exporters; mutate only through the methods (they are nil-safe, which
// is what makes the disabled path free).
type Span struct {
	// Trace groups every span of one request, across processes: the
	// transport propagates it on the wire, so a backend's spans carry
	// the gateway's trace ID.
	Trace uint64 `json:"trace"`
	// ID identifies this span; Parent is the enclosing span's ID (zero
	// for roots). A remote child's Parent is the caller's wire-sent span
	// ID, which is how cross-process trees stay connected.
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	// Proc labels the process that produced the span ("gateway",
	// "server"); the Chrome exporter maps it to a pid row.
	Proc  string        `json:"proc"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur"`
	Attrs []Attr        `json:"attrs,omitempty"`

	tracer *Tracer
}

// TracerConfig parameterizes a Tracer.
type TracerConfig struct {
	// Proc labels spans with the producing process.
	Proc string
	// Capacity bounds the ring buffer of completed spans (default 4096).
	Capacity int
	// Clock is injectable for deterministic tests; nil = wall clock.
	Clock Clock
}

// Tracer mints spans and records completed ones into a ring buffer, so
// a trace of recent requests is always available on demand (no
// ahead-of-time "start tracing" step). A nil *Tracer is valid and makes
// every operation a no-op.
type Tracer struct {
	clock Clock
	proc  string
	rec   *Recorder
	ids   atomic.Uint64
	trace atomic.Uint64
}

// NewTracer builds a tracer with a running recorder. Call Stop when
// done; the recorder owns a drain goroutine.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.Clock == nil {
		cfg.Clock = wallClock{}
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4096
	}
	t := &Tracer{clock: cfg.Clock, proc: cfg.Proc, rec: NewRecorder(cfg.Capacity)}
	// Seed trace IDs from the clock so IDs from different processes
	// rarely collide; span IDs are process-local and only need to be
	// unique within a tracer.
	t.trace.Store(uint64(cfg.Clock.Now().UnixNano()) << 20)
	return t
}

// Stop terminates the recorder's drain goroutine. Nil-safe, idempotent.
func (t *Tracer) Stop() {
	if t != nil {
		t.rec.Stop()
	}
}

// Snapshot returns the recorded spans, oldest first. Nil-safe.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	return t.rec.Snapshot()
}

// Dropped reports spans discarded because the recorder's ingest queue
// was full. Nil-safe.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.rec.Dropped()
}

// StartRoot opens a new trace: a root span with a fresh trace ID,
// returned along with a derived context carrying it. The gateway calls
// this once per HTTP request; everything below uses StartSpan. A nil
// tracer returns (ctx, nil) untouched.
func (t *Tracer) StartRoot(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	s := t.newSpan(t.trace.Add(1), 0, name)
	return ContextWithSpan(ctx, s), s
}

// RemoteSpan opens a span whose parent lives in another process: trace
// and parent arrived over the wire (the backend's frame loop). Zero
// trace means "caller was not tracing" and yields no span, as does a nil
// tracer.
func (t *Tracer) RemoteSpan(trace, parent uint64, name string) *Span {
	if t == nil || trace == 0 {
		return nil
	}
	return t.newSpan(trace, parent, name)
}

func (t *Tracer) newSpan(trace, parent uint64, name string) *Span {
	return &Span{
		Trace:  trace,
		ID:     t.ids.Add(1),
		Parent: parent,
		Name:   name,
		Proc:   t.proc,
		Start:  t.clock.Now(),
		tracer: t,
	}
}

// spanKey carries the active span through a context.
type spanKey struct{}

// ContextWithSpan returns ctx carrying s. A nil span returns ctx
// unchanged (no allocation on the disabled path).
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the active span, or nil. A nil ctx is allowed
// (internal call sites that predate context plumbing pass nil rather
// than minting a root context mid-stack).
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan opens a child of the context's active span. When the
// context carries no span (tracing disabled, or a call path that never
// saw the gateway), it returns (ctx, nil) — one nil check and zero
// allocations, the fast path every hot loop takes.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	t := parent.tracer
	s := t.newSpan(parent.Trace, parent.ID, name)
	return ContextWithSpan(ctx, s), s
}

// End closes the span and hands it to the recorder. Nil-safe;
// double-End records twice (don't).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.Dur = s.tracer.clock.Now().Sub(s.Start)
	s.tracer.rec.add(*s)
}

// SetAttr annotates the span. Nil-safe.
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Val: val})
}

// SetAttrInt annotates the span with an integer value. Nil-safe.
func (s *Span) SetAttrInt(key string, val int64) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Val: itoa(val)})
}

// TraceID returns the span's trace ID, zero for nil — the value the
// transport puts in the wire envelope.
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.Trace
}

// SpanID returns the span's ID, zero for nil.
func (s *Span) SpanID() uint64 {
	if s == nil {
		return 0
	}
	return s.ID
}

// itoa is strconv.FormatInt without the import weight in this file's
// hot path callers (attrs are set on traced paths only).
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
