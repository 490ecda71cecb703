package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic clock for trace tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func TestDisabledPathIsNilAndAllocationFree(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		c, s := StartSpan(ctx, "noop")
		s.End()
		s.SetAttr("k", "v")
		if s != nil || c != ctx {
			t.Fatal("disabled path must return nil span and unchanged ctx")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %v per op, want 0", allocs)
	}
	// Nil-tracer methods are all no-ops.
	var tr *Tracer
	if c, s := tr.StartRoot(ctx, "x"); s != nil || c != ctx {
		t.Fatal("nil tracer StartRoot must be a no-op")
	}
	tr.Stop()
	if tr.Snapshot() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer snapshot must be empty")
	}
	// Nil ctx (legacy internal call sites) must not panic.
	if s := SpanFromContext(nil); s != nil {
		t.Fatal("nil ctx has no span")
	}
}

func TestSpanTreeParentingAndClock(t *testing.T) {
	clk := newFakeClock()
	tr := NewTracer(TracerConfig{Proc: "test", Clock: clk, Capacity: 64})
	defer tr.Stop()

	ctx, root := tr.StartRoot(context.Background(), "root")
	clk.Advance(10 * time.Millisecond)
	cctx, child := StartSpan(ctx, "child")
	child.SetAttrInt("tokens", 3)
	clk.Advance(5 * time.Millisecond)
	_, grand := StartSpan(cctx, "grandchild")
	grand.End()
	child.End()
	clk.Advance(time.Millisecond)
	root.End()

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	r, c, g := byName["root"], byName["child"], byName["grandchild"]
	if r.Parent != 0 || c.Parent != r.ID || g.Parent != c.ID {
		t.Fatalf("parent links wrong: root=%+v child=%+v grand=%+v", r, c, g)
	}
	if c.Trace != r.Trace || g.Trace != r.Trace {
		t.Fatal("trace ID must be shared down the tree")
	}
	if r.Dur != 16*time.Millisecond {
		t.Fatalf("root duration %v, want 16ms", r.Dur)
	}
	if c.Dur != 5*time.Millisecond {
		t.Fatalf("child duration %v, want 5ms", c.Dur)
	}
	if len(c.Attrs) != 1 || c.Attrs[0].Key != "tokens" || c.Attrs[0].Val != "3" {
		t.Fatalf("child attrs %+v", c.Attrs)
	}
	if r.Proc != "test" {
		t.Fatalf("proc label %q", r.Proc)
	}
}

// TestStartRemoteLinksCrossProcessParent: RemoteSpan starts a span under
// a parent from another process, as the backend does per frame.
func TestStartRemoteLinksCrossProcessParent(t *testing.T) {
	tr := NewTracer(TracerConfig{Proc: "server", Capacity: 16})
	defer tr.Stop()
	s := tr.RemoteSpan(0xabc, 42, "backend.exec")
	if s == nil {
		t.Fatal("remote span with live trace must be created")
	}
	if s.Trace != 0xabc || s.Parent != 42 {
		t.Fatalf("remote span %+v", s)
	}
	// Children hang off the remote span as usual.
	_, child := StartSpan(ContextWithSpan(context.Background(), s), "inner")
	if child.Parent != s.ID || child.Trace != 0xabc {
		t.Fatalf("remote child %+v", child)
	}
	// Zero trace = caller not tracing = no span.
	if none := tr.RemoteSpan(0, 7, "x"); none != nil {
		t.Fatal("zero trace must not create spans")
	}
	var off *Tracer
	if none := off.RemoteSpan(0xabc, 42, "x"); none != nil {
		t.Fatal("a nil tracer must not create spans")
	}
}

func TestRecorderRingWrapsOldestFirst(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 4})
	defer tr.Stop()
	for i := 0; i < 7; i++ {
		_, s := tr.StartRoot(context.Background(), string(rune('a'+i)))
		s.End()
	}
	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d, want 4", len(spans))
	}
	want := []string{"d", "e", "f", "g"}
	for i, s := range spans {
		if s.Name != want[i] {
			t.Fatalf("ring order %d = %q, want %q", i, s.Name, want[i])
		}
	}
}

func TestSnapshotAfterStopStillServesRing(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 8})
	_, s := tr.StartRoot(context.Background(), "before")
	s.End()
	if got := len(tr.Snapshot()); got != 1 {
		t.Fatalf("pre-stop snapshot %d spans", got)
	}
	tr.Stop()
	tr.Stop() // idempotent
	if got := len(tr.Snapshot()); got != 1 {
		t.Fatalf("post-stop snapshot %d spans, want 1", got)
	}
}

// BenchmarkSpanDisabled pins the zero-cost contract: span creation with
// no tracer in the context must be a nil check.
func BenchmarkSpanDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, s := StartSpan(ctx, "op")
		s.End()
	}
}

// BenchmarkSpanEnabled measures the traced path (mint + record).
func BenchmarkSpanEnabled(b *testing.B) {
	tr := NewTracer(TracerConfig{Capacity: 4096})
	defer tr.Stop()
	ctx, root := tr.StartRoot(context.Background(), "root")
	defer root.End()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, s := StartSpan(ctx, "op")
		s.End()
	}
}
