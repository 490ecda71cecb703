package workload

import (
	"testing"
	"testing/quick"
	"time"
)

func TestLLMTraceDeterministic(t *testing.T) {
	tr := LLMTrace{
		Requests: 10, Vocab: 100,
		PromptMin: 4, PromptMax: 16,
		DecodeMin: 2, DecodeMax: 8,
		MeanInterarrival: time.Millisecond,
	}
	a := tr.Generate(7)
	b := tr.Generate(7)
	if len(a) != 10 {
		t.Fatalf("%d requests", len(a))
	}
	for i := range a {
		if a[i].Decode != b[i].Decode || a[i].Arrival != b[i].Arrival ||
			len(a[i].Prompt) != len(b[i].Prompt) {
			t.Fatal("same seed must reproduce the trace")
		}
	}
	c := tr.Generate(8)
	same := true
	for i := range a {
		if a[i].Arrival != c[i].Arrival {
			same = false
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestLLMTraceBounds(t *testing.T) {
	tr := LLMTrace{Requests: 50, Vocab: 32, PromptMin: 3, PromptMax: 5, DecodeMin: 1, DecodeMax: 1}
	var prev time.Duration
	for _, r := range tr.Generate(1) {
		if len(r.Prompt) < 3 || len(r.Prompt) > 5 {
			t.Fatalf("prompt len %d", len(r.Prompt))
		}
		if r.Decode != 1 {
			t.Fatalf("decode %d", r.Decode)
		}
		for _, tok := range r.Prompt {
			if tok < 0 || tok >= 32 {
				t.Fatalf("token %d out of vocab", tok)
			}
		}
		// Zero interarrival: all at t=0.
		if r.Arrival != 0 {
			t.Fatal("arrivals should be zero without interarrival")
		}
		prev = r.Arrival
	}
	_ = prev
}

func TestArrivalsMonotone(t *testing.T) {
	tr := LLMTrace{Requests: 20, Vocab: 10, PromptMin: 1, PromptMax: 1,
		DecodeMin: 1, DecodeMax: 1, MeanInterarrival: time.Millisecond}
	var prev time.Duration
	for _, r := range tr.Generate(3) {
		if r.Arrival < prev {
			t.Fatal("arrivals must be monotone")
		}
		prev = r.Arrival
	}
}

func TestRecTraceZipfSkew(t *testing.T) {
	tr := RecTrace{
		Requests: 500, DenseFeatures: 4,
		TableRows: []int{1000, 1000}, IDsPerTable: 4, ZipfS: 1.5,
	}
	reqs := tr.Generate(11)
	// The hottest 10% of rows should absorb well over 10% of accesses.
	hot := HotSetFraction(reqs, tr.TableRows, 0.10)
	if hot < 0.5 {
		t.Errorf("hot-set fraction %.2f, want skewed ≥0.5", hot)
	}
	// Ids in range.
	for _, r := range reqs {
		for ti, ids := range r.Sparse {
			for _, id := range ids {
				if id < 0 || id >= int64(tr.TableRows[ti]) {
					t.Fatalf("id %d out of range", id)
				}
			}
		}
	}
}

func TestHotSetFractionEdges(t *testing.T) {
	if HotSetFraction(nil, []int{10}, 0.1) != 0 {
		t.Error("empty trace should be 0")
	}
	reqs := []RecRequest{{Sparse: [][]int64{{0}}}}
	if got := HotSetFraction(reqs, []int{10}, 1.0); got != 1 {
		t.Errorf("full fraction should be 1, got %v", got)
	}
}

func TestTracePropertyRequestCount(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		tr := LLMTrace{Requests: int(n % 32), Vocab: 16, PromptMin: 1, PromptMax: 2, DecodeMin: 0, DecodeMax: 1}
		return len(tr.Generate(seed)) == int(n%32)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPoissonArrivalsDeterministic(t *testing.T) {
	const n = 200
	a := PoissonArrivals(9, 1000, n)
	b := PoissonArrivals(9, 1000, n)
	if len(a) != n {
		t.Fatalf("%d arrivals, want %d", len(a), n)
	}
	var prev time.Duration
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] < prev {
			t.Fatalf("arrivals not monotonic at %d", i)
		}
		prev = a[i]
	}
	// A different seed yields a different trace.
	c := PoissonArrivals(10, 1000, n)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
	// Mean interarrival tracks 1/rate (law of large numbers, loose bound).
	mean := float64(a[n-1]) / n
	want := float64(time.Second) / 1000
	if mean < want/2 || mean > want*2 {
		t.Fatalf("mean interarrival %v, want about %v", time.Duration(mean), time.Duration(want))
	}
	// rate <= 0 degenerates to an all-at-once burst.
	for _, d := range PoissonArrivals(9, 0, 5) {
		if d != 0 {
			t.Fatal("rate 0 should put all arrivals at t=0")
		}
	}
}
