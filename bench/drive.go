package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"genie/internal/serve"
)

type outcome int

const (
	outcomeOK outcome = iota
	outcomeFailed
	outcomeRefused // shed at admission: 429 / ErrOverloaded / ErrDraining
)

// result is what one client observed for one request.
type result struct {
	req *request
	// due is when the request was due to be sent: the open loop's
	// schedule time, or the submit time in closed loops. Latency is
	// timed from it, so a stalled generator or server charges the wait
	// to the requests it delayed.
	due     time.Time
	late    time.Duration // how late the generator fired (open loop)
	tokAt   []time.Time
	tokens  []int64
	outcome outcome
	err     string
	// handlerTTFTMs is the ttft_ms the HTTP handler reported.
	handlerTTFTMs float64
}

func (r *result) ttft() time.Duration { return r.tokAt[0].Sub(r.due) }
func (r *result) total() time.Duration {
	return r.tokAt[len(r.tokAt)-1].Sub(r.due)
}

// meanITL is the request's mean inter-token gap (0 for one token).
func (r *result) meanITL() time.Duration {
	if len(r.tokAt) < 2 {
		return 0
	}
	return r.tokAt[len(r.tokAt)-1].Sub(r.tokAt[0]) / time.Duration(len(r.tokAt)-1)
}

// submit sends one request through Engine.Submit, stamping each token
// as Request.OnToken delivers it. onTok, when set, also observes each
// token index from the lane's goroutine (the serial pass's cursor).
func (t *topology) submit(ctx context.Context, rq *request, due time.Time, onTok func(idx int)) *result {
	res := &result{req: rq, due: due, tokAt: make([]time.Time, 0, rq.maxTokens)}
	out, err := t.engine.Submit(ctx, serve.Request{
		Tenant: rq.tenant, Prompt: rq.prompt, MaxTokens: rq.maxTokens,
		OnToken: func(tk serve.Token) {
			res.tokAt = append(res.tokAt, time.Now())
			if onTok != nil {
				onTok(tk.Index)
			}
		},
	})
	if out != nil {
		res.tokens = out.Tokens
	}
	switch {
	case err == nil && len(res.tokAt) > 0:
	case errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrDraining):
		res.outcome, res.err = outcomeRefused, err.Error()
	case err != nil:
		res.outcome, res.err = outcomeFailed, err.Error()
	default:
		res.outcome, res.err = outcomeFailed, "no tokens"
	}
	return res
}

// streamLine is either a token event or the final summary of a
// streamed /v1/generate response.
type streamLine struct {
	Index  *int    `json:"index"`
	Token  int64   `json:"token"`
	Tokens []int64 `json:"tokens"`
	TTFTMs float64 `json:"ttft_ms"`
	Error  string  `json:"error"`
}

// post sends one request to the gateway handler with stream:true and
// stamps each NDJSON token line as it arrives.
func (t *topology) post(ctx context.Context, rq *request, due time.Time) *result {
	res := &result{req: rq, due: due, tokAt: make([]time.Time, 0, rq.maxTokens)}
	fail := func(o outcome, err error) *result {
		res.outcome, res.err = o, err.Error()
		return res
	}
	body, err := json.Marshal(serve.GenerateRequest{
		Tenant: rq.tenant, Prompt: rq.prompt, MaxTokens: rq.maxTokens, Stream: true,
	})
	if err != nil {
		return fail(outcomeFailed, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, t.url, bytes.NewReader(body))
	if err != nil {
		return fail(outcomeFailed, err)
	}
	resp, err := t.client.Do(hreq)
	if err != nil {
		return fail(outcomeFailed, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		o := outcomeFailed
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			o = outcomeRefused
		}
		return fail(o, fmt.Errorf("status %d", resp.StatusCode))
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		now := time.Now()
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return fail(outcomeFailed, err)
		}
		if line.Index != nil {
			res.tokAt = append(res.tokAt, now)
			continue
		}
		res.tokens, res.handlerTTFTMs = line.Tokens, line.TTFTMs
		if line.Error != "" {
			return fail(outcomeFailed, errors.New(line.Error))
		}
	}
	if err := sc.Err(); err != nil {
		return fail(outcomeFailed, err)
	}
	// A dropped stream event (the handler never blocks a lane on a slow
	// reader) would leave fewer stamps than tokens.
	if len(res.tokAt) == 0 || len(res.tokAt) != len(res.tokens) {
		return fail(outcomeFailed, fmt.Errorf("%d token events for %d tokens", len(res.tokAt), len(res.tokens)))
	}
	return res
}

// send goes through the workload's front door.
func (t *topology) send(ctx context.Context, rq *request, due time.Time) *result {
	if t.w.http {
		return t.post(ctx, rq, due)
	}
	return t.submit(ctx, rq, due, nil)
}

// drive sends every request in the workload's shape and returns one
// result per request plus the phase's wall time: the work of a phase is
// its request list, whatever the machine's speed.
func (t *topology) drive(ctx context.Context, reqs []request) ([]*result, time.Duration) {
	results := make([]*result, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	switch t.w.shape {
	case shapeOpen:
		// One dispatcher fires each request at its due time whether or
		// not earlier ones have finished.
		for i := range reqs {
			due := start.Add(reqs[i].due)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			late := time.Since(due)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i] = t.send(ctx, &reqs[i], due)
				results[i].late = late
			}(i)
		}
		wg.Wait()
	case shapeClosed:
		var next atomic.Int64
		for c := 0; c < t.w.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(reqs) {
						return
					}
					results[i] = t.send(ctx, &reqs[i], time.Now())
				}
			}()
		}
		wg.Wait()
	case shapeBatch:
		for lo := 0; lo < len(reqs); lo += t.w.burst {
			hi := min(lo+t.w.burst, len(reqs))
			due := time.Now()
			for i := lo; i < hi; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					results[i] = t.send(ctx, &reqs[i], due)
				}(i)
			}
			wg.Wait()
		}
	}
	return results, time.Since(start)
}

// tally counts a phase's requests by outcome.
type tally struct {
	Sent    int `json:"sent"`
	OK      int `json:"ok"`
	Failed  int `json:"failed"`
	Refused int `json:"refused"`
}

func tallyOf(results []*result) tally {
	var c tally
	for _, r := range results {
		switch r.outcome {
		case outcomeOK:
			c.Sent, c.OK = c.Sent+1, c.OK+1
		case outcomeFailed:
			c.Sent, c.Failed = c.Sent+1, c.Failed+1
		case outcomeRefused:
			c.Sent, c.Refused = c.Sent+1, c.Refused+1
		}
	}
	return c
}

func firstError(results []*result) string {
	for _, r := range results {
		if r.err != "" {
			return r.err
		}
	}
	return ""
}
