package main

import (
	"fmt"
	"math/rand"
	"time"

	wl "genie/internal/workload"
)

// request is one generated input: what a client would send.
type request struct {
	tenant    string
	prompt    []int64
	maxTokens int
	// due is the open-loop arrival offset from the start of the phase
	// (zero for closed loops and batches).
	due time.Duration
}

// Streams keep the phases of a run on distinct prompt sequences.
const (
	streamWarmup = iota + 1
	streamTimed
	streamSerial
	streamProbe
)

// genRequests makes n requests of the workload from the seed. The same
// (seed, stream, n) gives the same inputs; the system prefixes depend
// on the seed only, so every stream shares them.
//
// The seed draws the token contents, the order of the requests and the
// arrival gaps. The shapes are stratified, not sampled: every seed gets
// the same multiset of prompt lengths, output lengths and prefix
// choices, spread evenly over the workload's ranges, and an open loop's
// arrivals fill the same window (a Poisson process conditioned on n
// arrivals in n/rate seconds). So every seed offers the same amount of
// work, and the count metrics do not move with the seed.
func genRequests(w *workload, seed int64, stream, n int) []request {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
	vocab := int64(w.model.Vocab)
	// even returns n values spread evenly over lo..hi, in a drawn order.
	even := func(lo, hi int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = lo + i*(hi-lo+1)/n
		}
		rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	var prefixes [][]int64
	if w.prefixes > 0 {
		prng := rand.New(rand.NewSource(seed*1_000_003 - 1))
		for p := 0; p < w.prefixes; p++ {
			pre := make([]int64, w.prefixLen)
			for i := range pre {
				pre[i] = prng.Int63n(vocab)
			}
			prefixes = append(prefixes, pre)
		}
	}
	var due []time.Duration
	if w.shape == shapeOpen && n > 0 {
		due = wl.PoissonArrivals(seed*1_000_003+int64(stream), w.rate, n)
		if last := float64(due[n-1]); last > 0 {
			window := float64(n) / w.rate * float64(time.Second)
			for i := range due {
				due[i] = time.Duration(float64(due[i]) * window / last)
			}
		}
	}
	plens, dlens := even(w.promptMin, w.promptMax), even(w.decodeMin, w.decodeMax)
	// Each prefix leads the same number of prompts (to within one), and
	// every prompt leaves its prefix at once: the token after the prefix
	// is distinct for every request a topology serves (until the
	// vocabulary runs out). A chance match there would make the cache hit
	// one token longer, and the longer prefix is a new tensor that is
	// uploaded in full where a seen one is a 32-byte reference — so the
	// wire bytes would move with the seed's luck.
	pick := even(0, max(len(prefixes), 1)-1)
	first := map[int]int{streamWarmup: 0, streamTimed: w.warmup, streamSerial: w.warmup + w.requests, streamProbe: w.warmup + 2*w.requests}[stream]
	reqs := make([]request, n)
	for i := range reqs {
		prompt := make([]int64, 0, plens[i])
		if prefixes != nil {
			prompt = append(prompt, prefixes[pick[i]]...)
			prompt = append(prompt, int64(first+i)%vocab)
		}
		for len(prompt) < plens[i] {
			prompt = append(prompt, rng.Int63n(vocab))
		}
		reqs[i] = request{
			tenant:    fmt.Sprintf("t%d", i%w.tenants),
			prompt:    prompt[:plens[i]],
			maxTokens: dlens[i],
		}
		if due != nil {
			reqs[i].due = due[i]
		}
	}
	return reqs
}
