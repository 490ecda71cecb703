package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"genie/internal/metrics"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkEmitted asserts every catalog name is in got exactly once with
// its unit, and nothing else is.
func checkEmitted(t *testing.T, what string, defs []metricDef, got []metric) {
	t.Helper()
	seen := map[string]int{}
	for _, m := range got {
		seen[m.Name]++
		if !nameRE.MatchString(m.Name) {
			t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", what, m.Name)
		}
		if m.Unit == "" || m.Unit != unitOf(m.Name) {
			t.Errorf("%s: metric %s has unit %q, catalog says %q", what, m.Name, m.Unit, unitOf(m.Name))
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s is %v", what, m.Name, m.Value)
		}
	}
	for _, d := range defs {
		if seen[d.name] != 1 {
			t.Errorf("%s: metric %s emitted %d times, want once", what, d.name, seen[d.name])
		}
	}
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics emitted, catalog has %d", what, len(got), len(defs))
	}
}

// applies reports whether a per-layer metric must carry a value (not
// n/a) on the workload.
func applies(w *workload, name string) bool {
	has := func(prefix string) bool { return len(name) >= len(prefix) && name[:len(prefix)] == prefix }
	switch {
	case has("kvcache."):
		return w.topo == topoSplit
	case has("pool."):
		return w.topo == topoPool
	case name == "serve.http_overhead_us_p50":
		return w.http
	case name == "bench.gen_late_ms_p99":
		return w.shape == shapeOpen
	}
	return true
}

// TestWorkloadsToyScale runs every workload end to end at toy scale —
// the tiny model, 4 requests — untraced and traced: every metric name
// is emitted once with a unit, token parity holds, the mode sweep keeps
// the paper's ordering (runTraced fails otherwise), and no goroutine or
// listener outlives a workload.
func TestWorkloadsToyScale(t *testing.T) {
	ctx := context.Background()
	for _, full := range workloads {
		w := full.toy()
		t.Run(w.name, func(t *testing.T) {
			snap := metrics.SnapGoroutines()
			e2e, err := runUntraced(ctx, w, 11, toyScale)
			if err != nil {
				t.Fatal(err)
			}
			if !e2e.correct() || e2e.ParityChecks == 0 {
				t.Fatalf("untraced run not correct: %+v", e2e)
			}
			checkEmitted(t, "end-to-end", endToEnd, e2e.Metrics)
			for _, m := range e2e.Metrics {
				if m.Value <= 0 && m.Name != "fail_share" {
					t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, m.Value)
				}
			}
			line := contractOf([]*runResult{e2e})
			if !line.Correct || line.Attempted != 4 || line.Failed != 0 || len(line.Metrics) != len(gatedEndToEnd()) {
				t.Errorf("contract line %+v", line)
			}

			traced, err := runTraced(ctx, w, 11, toyScale)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.correct() {
				t.Fatalf("traced run not correct: %+v", traced)
			}
			checkEmitted(t, "per-layer", tracedCatalog(), traced.Metrics)
			if got := len(contractOf([]*runResult{traced}).Metrics); got != len(tracedCatalog()) {
				t.Errorf("traced contract line has %d metrics, want %d", got, len(tracedCatalog()))
			}
			for _, m := range traced.Metrics {
				if applies(w, m.Name) == m.NA {
					t.Errorf("per-layer metric %s: n/a = %v on %s", m.Name, m.NA, w.name)
				}
			}
			if traced.Budget == nil || traced.Budget.StepUs <= 0 || len(traced.Budget.Step) == 0 {
				t.Errorf("no token budget: %+v", traced.Budget)
			}
			snap.Check(t)
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the catalogs in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var doc struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || len(doc.Workloads[i].Why) > 200 || doc.Workloads[i].Why == "" {
			t.Errorf("workload %d: %+v vs %s", i, doc.Workloads[i], w.name)
		}
		// The file records each workload's request count and SLO limits.
		if note := fmt.Sprintf("[%d requests; SLO: TTFT max %g ms, mean ITL max %g ms]", w.requests, w.ttftLimitMs, w.itlLimitMs); !strings.Contains(doc.Workloads[i].Why, note) {
			t.Errorf("workload %s: BENCHMARK.json's why lacks %q", w.name, note)
		}
	}
	gated := gatedEndToEnd()
	if len(doc.EndToEnd) != len(gated) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, catalog gates %d", len(doc.EndToEnd), len(gated))
	}
	for i, d := range gated {
		g := doc.EndToEnd[i]
		if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
			t.Errorf("end_to_end %d: %+v vs %+v", i, g, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	if len(endToEnd) != 13 {
		t.Errorf("%d end-to-end metrics in the catalog, want 13", len(endToEnd))
	}
	traced := tracedCatalog()
	if len(doc.PerLayer) != len(traced) || len(traced) > 128 {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, catalog has %d", len(doc.PerLayer), len(traced))
	}
	for i, d := range traced {
		g := doc.PerLayer[i]
		if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("per_layer %d: %+v vs %+v", i, g, d)
		}
	}
}

func TestCatalogNames(t *testing.T) {
	seen := map[string]bool{}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !nameRE.MatchString(d.name) || seen[d.name] {
				t.Errorf("bad or repeated metric name %q", d.name)
			}
			seen[d.name] = true
			if !unitRE.MatchString(d.unit) {
				t.Errorf("%s: bad unit %q", d.name, d.unit)
			}
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("%s: better = %q", d.name, d.better)
			}
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("bad or repeated workload name %q", w.name)
		}
		seen[w.name] = true
	}
}

func TestQuartiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	q1, q2, q3 = quartiles([]float64{10, 20, 40})
	if q1 != 10 || q2 != 20 || q3 != 40 {
		t.Errorf("quartiles of 3 = %v %v %v", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "itl_ms_p50", better: "lower", bound: 0.10}
	higher := metricDef{name: "tok_per_s", better: "higher", bound: 0.10}
	steady := []float64{100, 101, 99, 100}
	noisy := []float64{80, 100, 125, 100}
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b []float64
		want verdict
	}{
		{"same", lower, steady, steady, verdictOK},
		{"within bound", lower, steady, []float64{108, 109, 108}, verdictOK},
		{"latency up 20%", lower, steady, []float64{120, 121, 119}, verdictWorse},
		{"latency down 20%", lower, steady, []float64{80, 81, 79}, verdictOK},
		{"throughput down 20%", higher, steady, []float64{80, 81, 79}, verdictWorse},
		{"throughput up 20%", higher, steady, []float64{120, 121, 119}, verdictOK},
		{"worse but a is noisy", lower, noisy, []float64{120, 121, 119}, verdictUnresolved},
		{"worse but b is noisy", lower, steady, []float64{100, 125, 150, 125}, verdictUnresolved},
		{"single runs", lower, []float64{100}, []float64{120}, verdictWorse},
	} {
		if got := judge(tc.def, tc.a, tc.b).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestJudgeAbsolute(t *testing.T) {
	slo := metricDef{name: "slo_ok_share", unit: "share", better: "higher", bound: 0.03}
	fail := metricDef{name: "fail_share", unit: "share", better: "lower", bound: 0}
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b []float64
		want verdict
	}{
		{"slo down 0.02", slo, []float64{0.5, 0.5, 0.5}, []float64{0.48, 0.48, 0.48}, verdictOK},
		{"slo down 0.04 (8 % of 0.5)", slo, []float64{0.5, 0.5, 0.5}, []float64{0.46, 0.46, 0.46}, verdictWorse},
		{"slo down, noisy", slo, []float64{0.9, 1, 1, 0.95}, []float64{0.9, 0.9, 0.9}, verdictUnresolved},
		{"no failures", fail, []float64{0, 0, 0}, []float64{0, 0, 0}, verdictOK},
		{"one failing run of three", fail, []float64{0, 0, 0}, []float64{0, 0.005, 0}, verdictWorse},
		{"fewer failures", fail, []float64{0.01, 0.01}, []float64{0, 0.01}, verdictOK},
	} {
		if got := judge(tc.def, tc.a, tc.b).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareDocsExitCode(t *testing.T) {
	run := func(workload string, tok, failShare float64) *runResult {
		r := &runResult{Workload: workload}
		for _, d := range endToEnd {
			v := 1.0
			switch d.name {
			case "tok_per_s":
				v = tok
			case "fail_share":
				v = failShare
			}
			r.Metrics = append(r.Metrics, metric{Name: d.name, Value: v, Unit: d.unit})
		}
		return r
	}
	doc := func(rs ...*runResult) *resultFile { return &resultFile{Runs: rs} }
	const w = "decode_rpc"
	if code := compareDocs(doc(run(w, 100, 0), run(w, 101, 0)), doc(run(w, 99, 0), run(w, 100, 0))); code != 0 {
		t.Errorf("A/A: exit %d, want 0", code)
	}
	if code := compareDocs(doc(run(w, 100, 0), run(w, 101, 0)), doc(run(w, 70, 0), run(w, 71, 0))); code == 0 {
		t.Errorf("30%% slower: exit 0, want non-zero")
	}
	if code := compareDocs(doc(run(w, 100, 0)), doc(run(w, 100, 0.1))); code == 0 {
		t.Errorf("a failed request in b: exit 0, want non-zero")
	}
	if code := compareDocs(doc(run(w, 100, 0), run("chat_open", 100, 0)), doc(run(w, 100, 0))); code == 0 {
		t.Errorf("a workload missing from b: exit 0, want non-zero")
	}
}

// TestContractCoversEveryWorkload: the last line of a run of several
// workloads carries each one's metrics and the summed request counts.
func TestContractCoversEveryWorkload(t *testing.T) {
	run := func(workload string, sent, failed int) *runResult {
		return &runResult{Workload: workload, Timed: tally{Sent: sent, OK: sent - failed, Failed: failed},
			Metrics: []metric{{Name: "setup_s", Value: 0.5, Unit: "s"}, {Name: "ttft_ms_p50", Value: 3, Unit: "ms"}}}
	}
	line := contractOf([]*runResult{run("chat_open", 200, 0), run("decode_rpc", 442, 1)})
	if line.Correct || line.Attempted != 642 || line.Failed != 1 {
		t.Errorf("contract line %+v", line)
	}
	for _, name := range []string{"chat_open.setup_s", "decode_rpc.setup_s"} {
		if _, ok := line.Metrics[name]; !ok {
			t.Errorf("contract line lacks %s: %v", name, line.Metrics)
		}
	}
	if _, ok := contractOf([]*runResult{run("decode_rpc", 442, 0)}).Metrics["setup_s"]; !ok {
		t.Errorf("a single workload's metrics must keep their plain names")
	}
}

// TestBuildErrorCleansUp: a topology that fails half-way returns the
// error and stops the backends it had already started.
func TestBuildErrorCleansUp(t *testing.T) {
	snap := metrics.SnapGoroutines()
	w := *workloads[3].toy() // prefix_shared: two backends start before the cache is made
	w.cacheBytes = 0
	if _, err := buildTopology(&w, nil); err == nil {
		t.Fatal("a zero cache budget built a topology")
	}
	snap.Check(t)
}

func TestRequestCounts(t *testing.T) {
	for _, w := range workloads {
		if w.requests < 200 {
			t.Errorf("%s: %d timed requests, p95 needs at least 200", w.name, w.requests)
		}
		if w.shape == shapeBatch && w.requests%w.burst != 0 {
			t.Errorf("%s: request count is not whole rounds", w.name)
		}
	}
	a := genRequests(workloads[0], 11, streamTimed, 5)
	b := genRequests(workloads[0], 11, streamTimed, 5)
	c := genRequests(workloads[0], 12, streamTimed, 5)
	if !equalTokens(a[3].prompt, b[3].prompt) || a[3].due != b[3].due {
		t.Errorf("same seed, different inputs")
	}
	if equalTokens(a[3].prompt, c[3].prompt) && a[3].due == c[3].due {
		t.Errorf("different seeds, same inputs")
	}
}

// TestSeedsOfferTheSameWork: every seed gets the same multiset of
// shapes and, in the open loop, the same arrival window, so the count
// metrics do not move with the seed.
func TestSeedsOfferTheSameWork(t *testing.T) {
	for _, w := range workloads {
		var want [3]int
		for seed := int64(1); seed <= 3; seed++ {
			var got [3]int
			reqs := genRequests(w, seed, streamTimed, w.requests)
			for _, r := range reqs {
				got[0] += len(r.prompt)
				got[1] += r.maxTokens
			}
			got[2] = int(reqs[len(reqs)-1].due)
			if seed == 1 {
				want = got
			} else if got != want {
				t.Errorf("%s: seed %d offers %v (prompt tokens, output tokens, window), seed 1 %v", w.name, seed, got, want)
			}
		}
	}
}
