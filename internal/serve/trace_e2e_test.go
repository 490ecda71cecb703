package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"genie/internal/backend"
	"genie/internal/device"
	"genie/internal/kvcache"
	"genie/internal/models"
	"genie/internal/obs"
	"genie/internal/runtime"
	"genie/internal/transport"
)

// TestTraceSpanTreeEndToEnd drives one gateway request through the full
// stack — httptest gateway, engine, remote session, transport RPCs, an
// in-process backend.Server over transport.Pipe — with a single shared
// tracer, and asserts the result is ONE well-parented span tree:
//
//	http.generate
//	└── serve.request
//	    ├── serve.queue
//	    ├── serve.prefill
//	    │   └── session.prefill
//	    │       └── transport.{upload,exec}
//	    │           └── backend.{upload,exec}   (stitched via wire envelope)
//	    └── session.step → transport.exec → backend.exec
//
// It also checks the Chrome trace export round-trips through
// encoding/json and that /metrics exposes the serve + transport +
// backend families. Run under -race: spans are recorded from the HTTP
// goroutine, the lane goroutine, and the backend's serve goroutine.
//
// The tree must have the same shape whatever the lane is made of: the
// split lane's prefill, handoff and decode RPCs all carry the session's
// context to the wire.
func TestTraceSpanTreeEndToEnd(t *testing.T) {
	t.Run("plain", func(t *testing.T) { testTraceSpanTree(t, false) })
	t.Run("split", func(t *testing.T) { testTraceSpanTree(t, true) })
}

func testTraceSpanTree(t *testing.T, split bool) {
	tr := obs.NewTracer(obs.TracerConfig{Proc: "e2e", Capacity: 4096})
	defer tr.Stop()
	reg := obs.NewRegistry()

	// startTraced serves one traced, instrumented backend over a pipe.
	startTraced := func() *transport.Conn {
		srv := backend.NewServer(device.A100)
		srv.SetTracer(tr)
		srv.Instrument(reg)
		cconn, sconn := transport.Pipe(nil, nil)
		t.Cleanup(func() {
			cconn.Close()
			sconn.Close()
		})
		cconn.SetTelemetry(transport.NewTelemetry(reg))
		go func() { _ = srv.Serve(sconn) }()
		return cconn
	}

	rng := rand.New(rand.NewSource(tcpSeed))
	cconn := startTraced()
	r := &runtime.LLMRunner{
		Model:    models.NewGPT(rng, models.TinyGPT),
		EP:       transport.NewClient(cconn),
		Counters: cconn.Counters(),
	}
	if split {
		sp, err := kvcache.NewSplit(kvcache.SplitConfig{
			Model: r.Model, Prefill: transport.NewClient(startTraced()), Decode: r.EP, DecodeCounters: r.Counters,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.InstallWeights(); err != nil {
			t.Fatal(err)
		}
		r = sp.Runner()
	}
	e, err := NewEngine(Config{
		Mode:    runtime.ModeSemAware,
		Tracer:  tr,
		Metrics: reg,
	}, []Backend{{Name: "b0", Runner: r}})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()

	ts := httptest.NewServer(NewHandler(e))
	defer ts.Close()

	body, _ := json.Marshal(GenerateRequest{Tenant: "alice", Prompt: e2ePrompt(1), MaxTokens: 3})
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var gres GenerateResponse
	if err := json.NewDecoder(resp.Body).Decode(&gres); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || gres.Error != "" {
		t.Fatalf("generate: status %d, error %q", resp.StatusCode, gres.Error)
	}
	if len(gres.Tokens) != 3 {
		t.Fatalf("got %d tokens, want 3", len(gres.Tokens))
	}

	// The handler's deferred root.End() runs after the response body is
	// written, so poll briefly for the root span to land in the ring.
	var spans []obs.Span
	deadline := time.Now().Add(5 * time.Second)
	for {
		spans = tr.Snapshot()
		if hasSpanNamed(spans, "http.generate") || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	byID := make(map[uint64]obs.Span, len(spans))
	trace := uint64(0)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Name == "http.generate" {
			if s.Parent != 0 {
				t.Fatalf("root span has parent %#x", s.Parent)
			}
			trace = s.Trace
		}
	}
	if trace == 0 {
		t.Fatalf("no http.generate root among %d spans", len(spans))
	}

	// Every span belongs to the one trace and parents onto a recorded
	// span — including backend.* spans, whose parent crossed the wire in
	// the frame envelope rather than a context.
	layers := map[string]bool{}
	for _, s := range spans {
		if s.Trace != trace {
			t.Fatalf("span %s on trace %#x, want %#x", s.Name, s.Trace, trace)
		}
		layers[strings.SplitN(s.Name, ".", 2)[0]] = true
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %s has unrecorded parent %#x", s.Name, s.Parent)
		}
		if !validChild(p.Name, s.Name) {
			t.Fatalf("span %s parented under %s", s.Name, p.Name)
		}
	}
	for _, want := range []string{"http", "serve", "session", "transport", "backend"} {
		if !layers[want] {
			t.Fatalf("no %s.* span recorded; layers = %v", want, layers)
		}
	}
	// Spot-check the critical cross-process stitch: every backend.exec
	// parents under a transport.exec.
	execs := 0
	for _, s := range spans {
		if s.Name == "backend.exec" {
			execs++
			if byID[s.Parent].Name != "transport.exec" {
				t.Fatalf("backend.exec parented under %q", byID[s.Parent].Name)
			}
		}
	}
	if execs == 0 {
		t.Fatal("no backend.exec spans recorded")
	}
	// Every decode step reaches the wire with its context: one
	// transport.exec under each session.step.
	steps, stepExecs := 0, 0
	for _, s := range spans {
		switch {
		case s.Name == "session.step":
			steps++
		case s.Name == "transport.exec" && byID[s.Parent].Name == "session.step":
			stepExecs++
		}
	}
	if steps == 0 || stepExecs != steps {
		t.Fatalf("%d transport.exec spans under %d session.step spans", stepExecs, steps)
	}

	// Chrome trace export must be valid JSON that encoding/json can
	// round-trip.
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < len(spans) {
		t.Fatalf("chrome trace has %d events for %d spans", len(doc.TraceEvents), len(spans))
	}

	// The gateway's /metrics must expose all three layers' families.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb := new(bytes.Buffer)
	if _, err := mb.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	for _, want := range []string{
		"genie_serve_admitted_total 1",
		"genie_serve_shed_total 0",
		"genie_serve_queue_depth 0",
		"genie_serve_decode_step_seconds_bucket",
		`genie_transport_sent_bytes_total{kind="exec"}`,
		"genie_backend_exec_total",
	} {
		if !strings.Contains(mb.String(), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

func hasSpanNamed(spans []obs.Span, name string) bool {
	for _, s := range spans {
		if s.Name == name {
			return true
		}
	}
	return false
}

// validChild encodes the legal parent→child edges of the span tree.
func validChild(parent, child string) bool {
	allowed := map[string][]string{
		"serve.request":   {"http.generate"},
		"serve.queue":     {"serve.request"},
		"serve.prefill":   {"serve.request"},
		"session.prefill": {"serve.prefill"},
		"session.step":    {"serve.request"},
		"transport.upload": {
			"session.prefill", "session.step", "serve.request", "serve.prefill"},
		"transport.exec": {
			"session.prefill", "session.step", "serve.request", "serve.prefill"},
		"backend.upload": {"transport.upload"},
		"backend.exec":   {"transport.exec"},
	}
	ps, ok := allowed[child]
	if !ok {
		return false
	}
	for _, p := range ps {
		if p == parent {
			return true
		}
	}
	return false
}
