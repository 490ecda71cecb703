package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func sampleSpans(t *testing.T) []Span {
	t.Helper()
	clk := newFakeClock()
	tr := NewTracer(TracerConfig{Proc: "gateway", Clock: clk, Capacity: 16})
	defer tr.Stop()
	ctx, root := tr.StartRoot(context.Background(), "http.generate")
	clk.Advance(2 * time.Millisecond)
	_, child := StartSpan(ctx, "serve.request")
	child.SetAttr("tenant", "alice")
	clk.Advance(3 * time.Millisecond)
	child.End()
	root.End()
	return tr.Snapshot()
}

func TestChromeTraceRoundTripsThroughJSON(t *testing.T) {
	spans := sampleSpans(t)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var back struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var xEvents, mEvents int
	for _, ev := range back.TraceEvents {
		switch ev["ph"] {
		case "X":
			xEvents++
			if _, ok := ev["ts"]; !ok && ev["name"] != "http.generate" {
				t.Fatalf("X event missing ts: %v", ev)
			}
		case "M":
			mEvents++
		}
	}
	if xEvents != 2 || mEvents != 1 {
		t.Fatalf("got %d X / %d M events, want 2 / 1\n%s", xEvents, mEvents, buf.String())
	}
	if !strings.Contains(buf.String(), `"tenant":"alice"`) {
		t.Fatalf("attrs not exported as args:\n%s", buf.String())
	}
}
