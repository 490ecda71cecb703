package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"genie/internal/global"
	"genie/internal/obs"
)

// GenerateRequest is the POST /v1/generate body.
type GenerateRequest struct {
	Tenant    string  `json:"tenant"`
	Prompt    []int64 `json:"prompt"`
	MaxTokens int     `json:"max_tokens"`
	// SLO is "interactive" (default) or "batch".
	SLO string `json:"slo"`
	// TimeoutMs bounds queue+generation (0 = engine default).
	TimeoutMs int64 `json:"timeout_ms"`
	// Stream switches the response to newline-delimited JSON token
	// events followed by a final summary object.
	Stream bool `json:"stream"`
}

// GenerateResponse is the non-streamed response body (and the final
// event of a streamed response).
type GenerateResponse struct {
	Tokens    []int64 `json:"tokens"`
	TTFTMs    float64 `json:"ttft_ms"`
	LatencyMs float64 `json:"latency_ms"`
	Backend   string  `json:"backend"`
	Error     string  `json:"error,omitempty"`
}

// StreamEvent is one token line of a streamed response.
type StreamEvent struct {
	Index int   `json:"index"`
	Token int64 `json:"token"`
}

// HealthzResponse is the degraded-state /healthz body: served with 503
// when any lane's gate is quarantined, carrying per-lane detail so an
// external load balancer can see exactly which endpoints tripped or
// went fail-slow.
type HealthzResponse struct {
	Status      string                   `json:"status"`
	Quarantined []string                 `json:"quarantined"`
	Lanes       map[string]BackendHealth `json:"lanes"`
}

// NewHandler exposes an engine over HTTP: POST /v1/generate,
// GET /healthz, GET /stats, GET /metrics (Prometheus text), and
// GET /debug/trace (Chrome trace JSON of the span ring buffer).
// cmd/genie-gateway serves exactly this handler; tests drive it via
// httptest.
func NewHandler(e *Engine) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/generate", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		// Root span for the whole HTTP request; everything below —
		// admission, queueing, session phases, transport RPCs, backend
		// execution — parents under it. Nil tracer = nil span = free.
		ctx, root := e.tracer.StartRoot(r.Context(), "http.generate")
		defer root.End()
		var greq GenerateRequest
		if err := json.NewDecoder(r.Body).Decode(&greq); err != nil {
			http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
			return
		}
		root.SetAttr("tenant", greq.Tenant)
		req, err := greq.toRequest()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if greq.Stream {
			streamGenerate(w, ctx, e, req)
			return
		}
		res, err := e.Submit(ctx, req)
		if err != nil {
			writeSubmitError(w, e, res, err)
			return
		}
		writeJSON(w, http.StatusOK, toResponse(res, nil))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if e.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		if !e.anyHealthyBackend() {
			w.Header().Set("Retry-After", retryAfterSeconds(e))
			http.Error(w, "no healthy backends", http.StatusServiceUnavailable)
			return
		}
		// Degraded: some lanes quarantined (tripped or graded). 503
		// with per-lane detail so an external load balancer can rotate
		// this gateway out before tail latency (not just availability)
		// collapses; capacity remains, so Retry-After is short.
		if quarantined := e.quarantinedLanes(); len(quarantined) > 0 {
			w.Header().Set("Retry-After", retryAfterSeconds(e))
			writeJSON(w, http.StatusServiceUnavailable, HealthzResponse{
				Status:      "degraded",
				Quarantined: quarantined,
				Lanes:       e.Stats().Backends,
			})
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, e.Stats())
	})
	mux.Handle("/metrics", e.Metrics())
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if e.Tracer() == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteChromeTrace(w, e.Tracer().Snapshot())
	})
	return mux
}

func (g GenerateRequest) toRequest() (Request, error) {
	req := Request{
		Tenant:    g.Tenant,
		Prompt:    g.Prompt,
		MaxTokens: g.MaxTokens,
		Timeout:   time.Duration(g.TimeoutMs) * time.Millisecond,
	}
	switch g.SLO {
	case "", global.SLOInteractive.String():
		req.SLO = global.SLOInteractive
	case global.SLOBatch.String():
		req.SLO = global.SLOBatch
	default:
		return req, fmt.Errorf("unknown slo %q", g.SLO)
	}
	return req, nil
}

func toResponse(res *Result, err error) GenerateResponse {
	out := GenerateResponse{}
	if res != nil {
		out.Tokens = res.Tokens
		out.TTFTMs = float64(res.TTFT) / float64(time.Millisecond)
		out.LatencyMs = float64(res.Latency) / float64(time.Millisecond)
		out.Backend = res.Backend
	}
	if err != nil {
		out.Error = err.Error()
	}
	return out
}

// writeSubmitError maps engine errors to status codes: queue-full load
// shedding is 429, draining 503, backend loss 503 with a Retry-After
// hint, deadline 504, the rest 500.
func writeSubmitError(w http.ResponseWriter, e *Engine, res *Result, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrInvalidRequest):
		status = http.StatusBadRequest
	case errors.Is(err, ErrOverloaded):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrBackendUnavailable):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfterSeconds(e))
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = 499 // client closed request (nginx convention)
	}
	writeJSON(w, status, toResponse(res, err))
}

// retryAfterSeconds renders the engine's RetryAfter hint as whole
// seconds, rounded up, at least 1 (Retry-After has no finer unit).
func retryAfterSeconds(e *Engine) string {
	secs := int64((e.cfg.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// streamGenerate writes token events as NDJSON while the request runs,
// then a final summary object. Tokens flow through a buffered channel so
// a slow reader never blocks the engine's dispatch loop.
func streamGenerate(w http.ResponseWriter, ctx context.Context, e *Engine, req Request) {
	buf := req.MaxTokens
	if buf <= 0 {
		buf = e.cfg.DefaultMaxTokens
	}
	ch := make(chan Token, buf+1)
	req.OnToken = func(t Token) {
		select {
		case ch <- t:
		default: // never block the lane; the summary carries all tokens
		}
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := e.Submit(ctx, req)
		done <- outcome{res, err}
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	writeTok := func(t Token) {
		_ = enc.Encode(StreamEvent{Index: t.Index, Token: t.ID})
		if flusher != nil {
			flusher.Flush()
		}
	}
	for {
		select {
		case t := <-ch:
			writeTok(t)
		case o := <-done:
			for {
				select {
				case t := <-ch:
					writeTok(t)
					continue
				default:
				}
				break
			}
			_ = enc.Encode(toResponse(o.res, o.err))
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
