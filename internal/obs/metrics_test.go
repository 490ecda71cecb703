package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("genie_test_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter %d, want 5", c.Value())
	}
	// Same name resolves the same cell.
	if r.Counter("genie_test_total", "a counter") != c {
		t.Fatal("re-registration must return the same counter")
	}
	// Distinct labels are distinct series.
	a := r.Counter("genie_kind_total", "", "kind", "exec")
	b := r.Counter("genie_kind_total", "", "kind", "upload")
	if a == b {
		t.Fatal("label sets must separate series")
	}
	g := r.Gauge("genie_depth", "a gauge")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge %d, want 5", g.Value())
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("genie_x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering one name as two types must panic")
		}
	}()
	r.Gauge("genie_x", "")
}

func TestHistogramBucketsSumQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("genie_lat_seconds", "", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count %d", h.Count())
	}
	if math.Abs(h.Sum()-5.605) > 1e-9 {
		t.Fatalf("sum %v", h.Sum())
	}
	// One value per bucket but two in (0.01, 0.1], where the median
	// (rank 2.5 of 5) falls; 5 overflows into the +Inf bucket.
	want := []int64{1, 2, 1, 1}
	for i, w := range want {
		if got := h.buckets[i].n.Load(); got != w {
			t.Fatalf("bucket %d holds %d, want %d", i, got, w)
		}
	}
}

func TestConcurrentObservationUnderContention(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("genie_conc_total", "")
	h := r.Histogram("genie_conc_seconds", "", nil)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// Dynamic lookup on every iteration exercises the
				// lock-striped shard table from many goroutines.
				r.Counter("genie_conc_total", "").Inc()
				h.ObserveDuration(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count %d, want %d", h.Count(), workers*per)
	}
	if math.Abs(h.Sum()-workers*per*0.001) > 1e-6 {
		t.Fatalf("histogram sum %v", h.Sum())
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("genie_b_total", "bees", "kind", "exec").Add(3)
	r.Counter("genie_b_total", "bees", "kind", "upload").Add(1)
	r.Gauge("genie_a_depth", "depth").Set(9)
	h := r.Histogram("genie_c_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	wantLines := []string{
		"# HELP genie_a_depth depth",
		"# TYPE genie_a_depth gauge",
		"genie_a_depth 9",
		"# TYPE genie_b_total counter",
		`genie_b_total{kind="exec"} 3`,
		`genie_b_total{kind="upload"} 1`,
		"# TYPE genie_c_seconds histogram",
		`genie_c_seconds_bucket{le="0.1"} 1`,
		`genie_c_seconds_bucket{le="1"} 2`,
		`genie_c_seconds_bucket{le="+Inf"} 3`,
		"genie_c_seconds_sum 2.55",
		"genie_c_seconds_count 3",
	}
	for _, w := range wantLines {
		if !strings.Contains(out, w) {
			t.Fatalf("exposition missing %q:\n%s", w, out)
		}
	}
	// Families sorted: a before b before c.
	if strings.Index(out, "genie_a_depth") > strings.Index(out, "genie_b_total") ||
		strings.Index(out, "genie_b_total") > strings.Index(out, "genie_c_seconds") {
		t.Fatalf("families not sorted:\n%s", out)
	}
}

func TestWindowQuantiles(t *testing.T) {
	w := NewWindow(4)
	for _, d := range []time.Duration{40, 10, 30, 20, 50} { // 40 evicted
		w.Observe(d)
	}
	if w.Len() != 4 {
		t.Fatalf("window len %d", w.Len())
	}
	qs, max := w.Quantiles(0, 1)
	if qs[0] != 10 || qs[1] != 50 || max != 50 {
		t.Fatalf("quantiles %v max %v", qs, max)
	}
}
