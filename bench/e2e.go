package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"

	"genie/internal/metrics"
	grt "genie/internal/runtime"
)

// metric is one reported number. N is the sample count behind a timing
// (0 for counts and ratios).
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	// NA marks a per-layer metric that does not apply to the workload;
	// its value is 0.
	NA bool `json:"na,omitempty"`
}

// runResult is everything one run of one workload reports; -out writes
// it, -compare reads it.
type runResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	// Requests is the size of the timed (or traced) stream.
	Requests     int      `json:"requests"`
	Warmup       tally    `json:"warmup"`
	Timed        tally    `json:"timed"`
	ParityChecks int      `json:"parity_checks"`
	ParityFails  int      `json:"parity_fails"`
	TokensSHA256 string   `json:"tokens_sha256"`
	FirstError   string   `json:"first_error,omitempty"`
	Metrics      []metric `json:"metrics"`
	// Diagnostics are printed beside the metrics but never gated.
	Diagnostics []metric `json:"diagnostics,omitempty"`
	Budget      *budget  `json:"budget,omitempty"`
}

// correct reports whether every request sent was served with the right
// tokens.
func (r *runResult) correct() bool {
	return r.failed() == 0 && r.Timed.Sent > 0
}

func (r *runResult) failed() int {
	return r.Timed.Failed + r.Timed.Refused + r.ParityFails
}

// scale sizes a run: the real benchmark, or the smoke test's toy.
type scale struct {
	setups   int // set-ups timed for setup_s (the last one serves the run)
	parity   int // requests compared with the local reference
	toy      bool
	spansOut string
}

var (
	fullScale = scale{setups: 5, parity: 16}
	toyScale  = scale{setups: 1, parity: 4, toy: true}
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// pct is a percentile of unsorted durations.
func pct(ds []time.Duration, p float64) time.Duration { return metrics.PercentileOf(ds, p) }

// procSampler polls process-wide gauges at 100 Hz over a phase. It
// reads the heap through runtime/metrics, which does not stop the world
// as ReadMemStats does, so it can sample a small heap's short GC cycle
// often enough.
type procSampler struct {
	ticker         *ticker
	heap           []rtmetrics.Sample
	inuse          []float64 // in-use heap at each poll, bytes
	goroutinesPeak int
}

// heapPeak is the level the in-use heap stayed under for 95 % of the
// polls; heapMax is the largest poll. The maximum is one GC cycle's
// overshoot — it spread 10-16 % between runs of decode_rpc, the 95th
// percentile 1 % — so the percentile is the metric and the maximum a
// diagnostic.
func (s *procSampler) heapPeak() float64 { return quantile(s.inuse, 0.95) }
func (s *procSampler) heapMax() float64  { return quantile(s.inuse, 1) }

// quantile is the p-quantile (nearest rank) of unsorted values.
func quantile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s[int(p*float64(len(s)-1)+0.5)]
}

func startProcSampler() *procSampler {
	// In-use heap spans = live and unswept objects + free slots in them:
	// MemStats.HeapInuse.
	s := &procSampler{heap: []rtmetrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}}
	s.ticker = every(10*time.Millisecond, s.sample)
	return s
}

// ticker calls fn from its own goroutine: once at the start, then every
// interval until finish, which waits for the goroutine and calls fn a
// last time.
type ticker struct {
	fn   func()
	stop chan struct{}
	done chan struct{}
}

func every(interval time.Duration, fn func()) *ticker {
	t := &ticker{fn: fn, stop: make(chan struct{}), done: make(chan struct{})}
	fn()
	go func() {
		defer close(t.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				fn()
			case <-t.stop:
				return
			}
		}
	}()
	return t
}

func (t *ticker) finish() {
	close(t.stop)
	<-t.done
	t.fn()
}

func (s *procSampler) sample() {
	rtmetrics.Read(s.heap)
	var inuse uint64
	for _, m := range s.heap {
		if m.Value.Kind() == rtmetrics.KindUint64 {
			inuse += m.Value.Uint64()
		}
	}
	s.inuse = append(s.inuse, float64(inuse))
	if g := runtime.NumGoroutine(); g > s.goroutinesPeak {
		s.goroutinesPeak = g
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// setUp builds the topology and runs the untimed warm-up (a distinct
// prompt stream: caches fill, lazy set-up finishes, connections open).
func setUp(ctx context.Context, w *workload, seed int64, rec *recorder) (*topology, tally, error) {
	t, err := buildTopology(w, rec)
	if err != nil {
		return nil, tally{}, err
	}
	if rec != nil {
		rec.setPhase("warmup")
	}
	res, _ := t.drive(ctx, genRequests(w, seed, streamWarmup, w.warmup))
	warm := tallyOf(res)
	if warm.OK != warm.Sent {
		t.close()
		return nil, warm, fmt.Errorf("bench: warm-up of %s failed: %s", w.name, firstError(res))
	}
	return t, warm, nil
}

// runUntraced is the end-to-end run: nothing of bench/ sits in the
// request path, and only the end-to-end metrics are reported.
func runUntraced(ctx context.Context, w *workload, seed int64, sc scale) (*runResult, error) {
	out := &runResult{Workload: w.name, Seed: seed}

	// setup_s: set up several times and report the median; the last
	// set-up serves the timed run.
	var setups []time.Duration
	var t *topology
	for i := 0; i < sc.setups; i++ {
		if t != nil {
			t.close()
		}
		t0 := time.Now()
		var err error
		t, out.Warmup, err = setUp(ctx, w, seed, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	defer t.close()

	reqs := genRequests(w, seed, streamTimed, w.requests)
	out.Requests = len(reqs)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s0, r0, c0 := t.counters()
	cpu0 := cpuTime()
	sampler := startProcSampler()
	results, wall := t.drive(ctx, reqs)
	sampler.ticker.finish()
	cpu := cpuTime() - cpu0
	s1, r1, c1 := t.counters()
	runtime.ReadMemStats(&m1)

	out.Timed = tallyOf(results)
	out.FirstError = firstError(results)
	out.TokensSHA256 = tokensHash(results)
	out.ParityChecks, out.ParityFails = checkParity(w, results, sc.parity)
	if out.Timed.OK == 0 {
		return out, fmt.Errorf("bench: %s served no request: %s", w.name, out.FirstError)
	}

	lat := latenciesOf(results)
	tokens := float64(lat.tokens)
	vals := map[string]metric{}
	for _, m := range timingMetrics(w, results, wall, cpu) {
		vals[m.Name] = m
	}
	add := func(name string, v float64, n int) {
		vals[name] = metric{Name: name, Value: v, Unit: unitOf(name), N: n}
	}
	add("setup_s", pct(setups, 0.5).Seconds(), len(setups))
	add("fail_share", float64(out.failed())/float64(out.Timed.Sent), 0)
	add("wire_bytes_per_tok", float64(s1-s0+r1-r0)/tokens, 0)
	add("rpc_per_tok", float64(c1-c0)/tokens, 0)
	add("alloc_kb_per_tok", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/tokens, 0)
	add("heap_peak_mb", sampler.heapPeak()/(1<<20), len(sampler.inuse))
	for _, d := range endToEnd {
		out.Metrics = append(out.Metrics, vals[d.name])
	}

	diag := func(name, unit string, v float64, n int) {
		out.Diagnostics = append(out.Diagnostics, metric{Name: name, Value: v, Unit: unit, N: n})
	}
	diag("wall_s", "s", wall.Seconds(), 0)
	diag("heap_max_mb", "MiB", sampler.heapMax()/(1<<20), len(sampler.inuse))
	diag("mean_itl_ms_p95", "ms", ms(pct(lat.meanITL, 0.95)), len(lat.meanITL))
	if segs := segmentRates(results, 8); len(segs) > 0 {
		// How much the machine's speed moved inside this run.
		lo, hi := segs[0], segs[0]
		for _, v := range segs {
			lo, hi = min(lo, v), max(hi, v)
		}
		diag("tok_per_s_segment_swing", "share", (hi-lo)/median(segs), len(segs))
	}
	diag("itl_ms_p99", "ms", ms(pct(lat.itl, 0.99)), len(lat.itl))
	if w.shape == shapeOpen {
		diag("bench.gen_late_ms_p99", "ms", ms(pct(latesOf(results), 0.99)), len(results))
	}
	return out, nil
}

// timingMetrics are the end-to-end metrics that move with the machine's
// speed, over one phase: the untraced timed run, or the traced run's
// shaped pass.
func timingMetrics(w *workload, results []*result, wall, cpu time.Duration) []metric {
	lat := latenciesOf(results)
	tokens := float64(max(lat.tokens, 1))
	m := func(name string, v float64, n int) metric {
		return metric{Name: name, Value: v, Unit: unitOf(name), N: n}
	}
	return []metric{
		m("ttft_ms_p50", ms(pct(lat.ttft, 0.5)), len(lat.ttft)),
		m("ttft_ms_p95", ms(pct(lat.ttft, 0.95)), len(lat.ttft)),
		m("itl_ms_p50", ms(pct(lat.itl, 0.5)), len(lat.itl)),
		m("req_ms_p50", ms(pct(lat.total, 0.5)), len(lat.total)),
		m("tok_per_s", tokens/wall.Seconds(), 0),
		m("slo_ok_share", sloShare(w, results, max(tallyOf(results).Sent, 1)), 0),
		m("cpu_s_per_ktok", cpu.Seconds()/(tokens/1000), 0),
	}
}

// latencies are the client-observed timings of the served requests.
type latencies struct {
	ttft, itl, total []time.Duration
	// meanITL is each request's mean inter-token gap, the quantity the
	// SLO limits.
	meanITL []time.Duration
	tokens  int
}

func latenciesOf(results []*result) latencies {
	var l latencies
	for _, r := range results {
		l.tokens += len(r.tokAt)
		if r.outcome != outcomeOK {
			continue
		}
		l.ttft = append(l.ttft, r.ttft())
		l.total = append(l.total, r.total())
		if len(r.tokAt) > 1 {
			l.meanITL = append(l.meanITL, r.meanITL())
		}
		for i := 1; i < len(r.tokAt); i++ {
			l.itl = append(l.itl, r.tokAt[i].Sub(r.tokAt[i-1]))
		}
	}
	return l
}

// segmentRates splits the run into n equal spans of time and returns
// the output-token rate of each.
func segmentRates(results []*result, n int) []float64 {
	var lo, hi time.Time
	for _, r := range results {
		for _, at := range r.tokAt {
			if lo.IsZero() || at.Before(lo) {
				lo = at
			}
			if at.After(hi) {
				hi = at
			}
		}
	}
	span := hi.Sub(lo)
	if span <= 0 {
		return nil
	}
	counts := make([]float64, n)
	for _, r := range results {
		for _, at := range r.tokAt {
			i := int(int64(n) * int64(at.Sub(lo)) / int64(span+1))
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= span.Seconds() / float64(n)
	}
	return counts
}

func latesOf(results []*result) []time.Duration {
	out := make([]time.Duration, len(results))
	for i, r := range results {
		out[i] = r.late
	}
	return out
}

// sloShare is the share of requests sent that met both latency limits;
// a failed or refused request misses.
func sloShare(w *workload, results []*result, sent int) float64 {
	ok := 0
	for _, r := range results {
		if r.outcome == outcomeOK && ms(r.ttft()) <= w.ttftLimitMs && ms(r.meanITL()) <= w.itlLimitMs {
			ok++
		}
	}
	return float64(ok) / float64(sent)
}

// tokensHash digests every served token in request order, so two
// commits can be compared exactly.
func tokensHash(results []*result) string {
	var buf []byte
	for _, r := range results {
		for _, tok := range r.tokens {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(tok))
		}
		buf = append(buf, 0xff)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// checkParity compares n evenly spaced served requests with
// LLMRunner.Generate(ModeLocal) on the same weights — the repo's
// bit-identical property. A mismatch counts as a failed request.
func checkParity(w *workload, results []*result, n int) (checked, fails int) {
	ref := &grt.LLMRunner{Model: newModel(w.model)}
	var served []*result
	for _, r := range results {
		if r.outcome == outcomeOK {
			served = append(served, r)
		}
	}
	if n > len(served) {
		n = len(served)
	}
	for k := 0; k < n; k++ {
		r := served[k*len(served)/n]
		checked++
		want, err := ref.Generate(grt.ModeLocal, r.req.prompt, len(r.tokens))
		if err != nil || !equalTokens(want.Tokens, r.tokens) || len(r.tokens) != r.req.maxTokens {
			fails++
		}
	}
	return checked, fails
}

func equalTokens(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
