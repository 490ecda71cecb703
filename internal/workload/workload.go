// Package workload generates deterministic request streams for the
// evaluation: LLM serving traces (prompt + decode lengths, arrivals) and
// recommendation queries with Zipf-skewed (hot/cold) embedding access.
// Everything is seeded — reruns are bit-identical.
package workload

import (
	"math/rand"
	"time"
)

// LLMRequest is one serving request.
type LLMRequest struct {
	Prompt  []int64
	Decode  int
	Arrival time.Duration
}

// LLMTrace parameterizes a serving trace.
type LLMTrace struct {
	Requests  int
	Vocab     int
	PromptMin int
	PromptMax int
	DecodeMin int
	DecodeMax int
	// MeanInterarrival spaces arrivals (exponential); 0 = all at t=0.
	MeanInterarrival time.Duration
}

// Generate materializes the trace.
func (t LLMTrace) Generate(seed int64) []LLMRequest {
	rng := rand.New(rand.NewSource(seed))
	out := make([]LLMRequest, t.Requests)
	var clock time.Duration
	for i := range out {
		plen := t.PromptMin
		if t.PromptMax > t.PromptMin {
			plen += rng.Intn(t.PromptMax - t.PromptMin + 1)
		}
		prompt := make([]int64, plen)
		for j := range prompt {
			prompt[j] = int64(rng.Intn(t.Vocab))
		}
		dec := t.DecodeMin
		if t.DecodeMax > t.DecodeMin {
			dec += rng.Intn(t.DecodeMax - t.DecodeMin + 1)
		}
		if t.MeanInterarrival > 0 {
			clock += time.Duration(rng.ExpFloat64() * float64(t.MeanInterarrival))
		}
		out[i] = LLMRequest{Prompt: prompt, Decode: dec, Arrival: clock}
	}
	return out
}

// PoissonArrivals generates an open-loop arrival schedule: n arrival
// offsets whose inter-arrival gaps are exponential with the given rate
// (arrivals per second). Open-loop means the schedule is fixed up front
// — arrivals do not wait for earlier requests to finish, so an overloaded
// server sees queue growth instead of implicit backpressure. The same
// seed yields the same trace; both the gateway load test and the online
// serving evaluation replay these schedules.
func PoissonArrivals(seed int64, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	if rate <= 0 {
		return out // all at t=0
	}
	rng := rand.New(rand.NewSource(seed))
	mean := float64(time.Second) / rate
	var clock time.Duration
	for i := range out {
		clock += time.Duration(rng.ExpFloat64() * mean)
		out[i] = clock
	}
	return out
}

// RecRequest is one recommendation query: per-table sparse id bags plus
// dense features.
type RecRequest struct {
	Dense   []float32
	Sparse  [][]int64
	Arrival time.Duration
}

// RecTrace parameterizes recommendation traffic with Zipf-skewed ids —
// the hot/cold embedding structure that motivates tiering (Table 1).
type RecTrace struct {
	Requests      int
	DenseFeatures int
	TableRows     []int
	IDsPerTable   int
	// ZipfS is the skew exponent (>1); larger = hotter head.
	ZipfS            float64
	MeanInterarrival time.Duration
}

// Generate materializes the trace.
func (t RecTrace) Generate(seed int64) []RecRequest {
	rng := rand.New(rand.NewSource(seed))
	s := t.ZipfS
	if s <= 1 {
		s = 1.2
	}
	zipfs := make([]*rand.Zipf, len(t.TableRows))
	for i, rows := range t.TableRows {
		zipfs[i] = rand.NewZipf(rng, s, 1, uint64(rows-1))
	}
	out := make([]RecRequest, t.Requests)
	var clock time.Duration
	for i := range out {
		dense := make([]float32, t.DenseFeatures)
		for j := range dense {
			dense[j] = rng.Float32()
		}
		sparse := make([][]int64, len(t.TableRows))
		for ti := range sparse {
			ids := make([]int64, t.IDsPerTable)
			for j := range ids {
				ids[j] = int64(zipfs[ti].Uint64())
			}
			sparse[ti] = ids
		}
		if t.MeanInterarrival > 0 {
			clock += time.Duration(rng.ExpFloat64() * float64(t.MeanInterarrival))
		}
		out[i] = RecRequest{Dense: dense, Sparse: sparse, Arrival: clock}
	}
	return out
}

// HotSetFraction computes, for a trace, the fraction of accesses that
// hit the hottest `fraction` of rows — the tiering opportunity metric.
func HotSetFraction(reqs []RecRequest, tableRows []int, fraction float64) float64 {
	if len(reqs) == 0 || len(tableRows) == 0 {
		return 0
	}
	hits, total := 0, 0
	for _, r := range reqs {
		for ti, ids := range r.Sparse {
			cut := int64(float64(tableRows[ti]) * fraction)
			for _, id := range ids {
				total++
				if id < cut {
					hits++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
