package runtime_test

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"genie/internal/kvcache"
	"genie/internal/models"
	"genie/internal/runtime"
	"genie/internal/transport"
)

// The parity matrix is the generated cross-product of everything a
// session can be configured as: where its hops run, where its KV state
// lives, what crosses the wire, which frame tier the connection speaks
// and how the caller drives it. Every valid row must produce the tokens
// of the uncached in-process oracle and account for its state the same
// way; the per-package pairwise parity tests this replaces each covered
// one or two cells of it.

type placement int

const (
	inProcess placement = iota
	oneEndpoint
	perModule
	split
	splitHedged
	pool1
	pool2
	pool3
)

var placementNames = [...]string{"in_process", "one_endpoint", "per_module", "split", "split_hedged", "pool1", "pool2", "pool3"}

type residency int

const (
	resNone residency = iota
	resHandles
	radixCold
	radixWarm
	radixPartial
)

var residencyNames = [...]string{"none", "handles", "radix_cold", "radix_warm", "radix_partial"}

type row struct {
	place       placement
	res         residency
	mode        runtime.Mode
	wire        wireTier
	interleaved bool
}

func (r row) String() string {
	driver := "generate"
	if r.interleaved {
		driver = "interleaved"
	}
	return fmt.Sprintf("%s/%s/%s/%s/%s", placementNames[r.place], residencyNames[r.res], r.mode, wireNames[r.wire], driver)
}

// valid is the one statement of which policy triples exist. Placement
// and residency follow from the mode and the constructor, so most of
// the cross-product is unconstructible rather than rejected.
func (r row) valid() bool {
	radix := r.res >= radixCold
	switch r.place {
	case inProcess:
		// Uncached in-process execution is the oracle itself.
		return r.mode == runtime.ModeLocal && radix && r.wire == wireLegacy
	case oneEndpoint:
		return (r.mode == runtime.ModeNaive && r.res == resNone) ||
			(r.mode == runtime.ModeSemAware && r.res != resNone)
	case perModule:
		return r.mode == runtime.ModeDeltaKV && r.res == resHandles
	case split, splitHedged:
		return r.mode == runtime.ModeSemAware && r.res != resNone
	default: // pools pin KV per shard; no prefix plane
		return r.mode == runtime.ModeSemAware && r.res == resHandles
	}
}

// matrixCfg has three layers so that a 3-member pool is a 3-way shard.
var matrixCfg = func() models.GPTConfig {
	cfg := models.TinyGPT
	cfg.Layers = 3
	return cfg
}()

var (
	matrixPromptA = []int64{5, 17, 42, 3, 9, 28, 54, 11, 2, 33}
	matrixPromptB = []int64{8, 1, 44, 2, 61, 7}
)

// rig is one row's assembled system: the runner under test, the
// backends behind it, and the kvcache pieces whose counters the row also
// checks.
type rig struct {
	runner *runtime.LLMRunner
	nodes  []*node
	cache  *kvcache.Manager
	split  *kvcache.Split
	tally  *tally
}

// tally sums what the row's backends answered its execs with: modeled
// device time and the sizes of what they kept. A patched resident graph
// that carried a different annotation than the full graph would have
// moves one of them.
type tally struct {
	mu              sync.Mutex
	gpuNs, keptSize int64
}

func (t *tally) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return fmt.Sprintf("gpu %d ns, kept %d B", t.gpuNs, t.keptSize)
}

// tallyEP is a node's client with every ExecOK it returns tallied.
type tallyEP struct {
	*transport.Client
	t *tally
}

func (e tallyEP) Exec(x *transport.Exec) (*transport.ExecOK, error) { return e.ExecCtx(nil, x) }

func (e tallyEP) ExecCtx(ctx context.Context, x *transport.Exec) (*transport.ExecOK, error) {
	ok, err := e.Client.ExecCtx(ctx, x)
	if err == nil {
		e.t.mu.Lock()
		e.t.gpuNs += ok.GPUTimeNs
		for _, n := range ok.Kept {
			e.t.keptSize += n
		}
		e.t.mu.Unlock()
	}
	return ok, err
}

// build assembles the row's runner the way its owner package does.
func (r row) build(t *testing.T) rig {
	t.Helper()
	m := newModel(matrixCfg)
	g := rig{tally: &tally{}}
	if r.res >= radixCold {
		g.cache = newCache(t, m)
	}
	add := func() tallyEP {
		n := startNode(t, r.wire)
		g.nodes = append(g.nodes, n)
		return tallyEP{n.cli, g.tally}
	}
	switch r.place {
	case inProcess:
		g.runner = g.cache.Runner()
	case oneEndpoint, perModule:
		ep := add()
		ctr := ep.Conn().Counters()
		g.runner = &runtime.LLMRunner{Model: m, EP: ep, Counters: ctr}
		if g.cache != nil {
			g.runner = g.cache.RunnerOn(ep, ctr)
		}
		if r.mode != runtime.ModeNaive {
			if _, err := g.runner.InstallModelWeights(); err != nil {
				t.Fatal(err)
			}
		}
	case split:
		pre, dec := add(), add()
		g.split = newSplit(t, kvcache.SplitConfig{
			Model: m, Prefill: pre, Decode: dec, DecodeCounters: dec.Conn().Counters(), Cache: g.cache,
		})
		g.runner = g.split.Runner()
	case splitHedged:
		a, b, dec := add(), add(), add()
		g.split = newSplit(t, kvcache.SplitConfig{
			Model: m, Decode: dec, DecodeCounters: dec.Conn().Counters(), Cache: g.cache,
			Lanes:        []kvcache.PrefillLane{{Name: "a", EP: a}, {Name: "b", EP: b}},
			HedgePrefill: true,
			HedgeFloor:   time.Nanosecond, // every prefill races both lanes
		})
		g.runner = g.split.Runner()
	default:
		members := make([]runtime.Endpoint, int(r.place-pool1)+1)
		for i := range members {
			members[i] = add()
		}
		pm := newPool(t, m, members...)
		if got := len(pm.Plan().Members()); got != len(members) {
			t.Fatalf("pool plan spans %d members, want %d", got, len(members))
		}
		g.runner = pm.Runner()
	}
	return g
}

// checkPlanes asserts what the row's kvcache planes must have counted
// after promptTokens prompt tokens went through the driver: a seeded
// radix tree served hits, and an uncached split handed off exactly the
// analytic ΔKV — every prompt token's KV, nothing else.
func (r row) checkPlanes(t *testing.T, g rig, promptTokens int) {
	t.Helper()
	if r.res == radixWarm || r.res == radixPartial {
		if st := g.cache.Snapshot(); st.Hits == 0 || st.BytesSaved == 0 {
			t.Errorf("seeded radix tree: %d hits, %d bytes saved", st.Hits, st.BytesSaved)
		}
	}
	if g.split != nil && g.cache == nil {
		if got, want := g.split.DeltaBytes(), int64(promptTokens)*matrixCfg.KVBytesPerToken(); got != want {
			t.Errorf("split handed off %d ΔKV bytes, want %d (%d tokens x %d B)",
				got, want, promptTokens, matrixCfg.KVBytesPerToken())
		}
	}
}

func residentCounts(nodes []*node) []int64 {
	out := make([]int64, len(nodes))
	for i, n := range nodes {
		out[i] = n.srv.Stats().ResidentCount
	}
	return out
}

func canonicalKeys(scope string, layers int) []string {
	var keys []string
	for i := 0; i < layers; i++ {
		keys = append(keys, scope+models.CacheRef(i, "k"), scope+models.CacheRef(i, "v"))
	}
	sort.Strings(keys)
	return keys
}

func TestSessionParityMatrix(t *testing.T) {
	const steps = 5
	wantA := oracle(t, matrixCfg, matrixPromptA, steps)
	wantB := oracle(t, matrixCfg, matrixPromptB, steps)

	var rows []row
	for place := inProcess; place <= pool3; place++ {
		for res := resNone; res <= radixPartial; res++ {
			for _, mode := range []runtime.Mode{runtime.ModeLocal, runtime.ModeNaive, runtime.ModeDeltaKV, runtime.ModeSemAware} {
				for wire := wireLegacy; wire <= wireFeatAll; wire++ {
					for _, interleaved := range []bool{false, true} {
						if r := (row{place, res, mode, wire, interleaved}); r.valid() {
							rows = append(rows, r)
						}
					}
				}
			}
		}
	}

	// A row's legacy twin runs first (the wire loop above is inside the
	// others); every other tier must have been answered the same sums —
	// except under a hedge, where the losing lane's reply is a race.
	legacyTally := map[row]string{}
	for _, r := range rows {
		t.Run(r.String(), func(t *testing.T) {
			g := r.build(t)
			runner, nodes := g.runner, g.nodes
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			defer func() {
				twin := r
				twin.wire = wireLegacy
				switch {
				case t.Failed() || r.place == splitHedged:
				case r.wire == wireLegacy:
					legacyTally[twin] = g.tally.String()
				case legacyTally[twin] != g.tally.String():
					t.Errorf("backends answered %s; on legacy frames %q", g.tally, legacyTally[twin])
				}
			}()

			// Radix state: warm has seen prompt A in full, partial a prompt
			// that shares A's first six tokens (the hit splits a radix node).
			seed := map[residency][]int64{
				radixWarm:    matrixPromptA,
				radixPartial: append(append([]int64{}, matrixPromptA[:6]...), 60, 61, 62),
			}[r.res]
			if seed != nil {
				s, err := runner.NewScopedSessionCtx(ctx, r.mode, "seed/")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := drive(ctx, s, seed, 2); err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			base := residentCounts(nodes)

			if !r.interleaved {
				// Generate drives an unscoped session with no context at all.
				res, err := runner.Generate(r.mode, matrixPromptA, steps)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(res.Tokens) != fmt.Sprint(wantA) {
					t.Fatalf("tokens %v, oracle %v", res.Tokens, wantA)
				}
				if res.Prefill.GPUBusy <= 0 || res.Decode.GPUBusy <= 0 {
					t.Errorf("GPUBusy prefill=%v decode=%v, want both > 0", res.Prefill.GPUBusy, res.Decode.GPUBusy)
				}
				r.checkPlanes(t, g, len(matrixPromptA))
				return
			}

			// Two scoped sessions on one runner, their steps interleaved at
			// arbitrary boundaries (the engine's continuous batching).
			type live struct {
				s      *runtime.Session
				scope  string
				prompt []int64
				want   []int64
				got    []int64
			}
			sessions := []*live{
				{scope: "reqA/", prompt: matrixPromptA, want: wantA},
				{scope: "reqB/", prompt: matrixPromptB, want: wantB},
			}
			for _, l := range sessions {
				s, err := runner.NewScopedSessionCtx(ctx, r.mode, l.scope)
				if err != nil {
					t.Fatal(err)
				}
				l.s = s
			}
			for _, i := range []int{0, 1, 1, 0, 0, 1, 0, 1, 0, 1} {
				l := sessions[i]
				var tok int64
				var err error
				if len(l.got) == 0 {
					tok, err = l.s.PrefillCtx(ctx, l.prompt)
				} else {
					tok, err = l.s.StepCtx(ctx)
				}
				if err != nil {
					t.Fatalf("%s op %d: %v", l.scope, len(l.got), err)
				}
				l.got = append(l.got, tok)
			}
			for _, l := range sessions {
				if fmt.Sprint(l.got) != fmt.Sprint(l.want) {
					t.Fatalf("%s tokens %v, oracle %v", l.scope, l.got, l.want)
				}
				wantKeys := canonicalKeys(l.scope, matrixCfg.Layers)
				if r.mode == runtime.ModeNaive {
					wantKeys = nil // replays history; no per-session cache state
				}
				keys := append([]string(nil), l.s.ResidentKeys()...)
				sort.Strings(keys)
				if fmt.Sprint(keys) != fmt.Sprint(wantKeys) {
					t.Errorf("%s ResidentKeys %v, want %v", l.scope, keys, wantKeys)
				}
				if m := l.s.Result(); m.Prefill.GPUBusy <= 0 || m.Decode.GPUBusy <= 0 {
					t.Errorf("%s GPUBusy prefill=%v decode=%v, want both > 0", l.scope, m.Prefill.GPUBusy, m.Decode.GPUBusy)
				}
				if err := l.s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if got := residentCounts(nodes); fmt.Sprint(got) != fmt.Sprint(base) {
				t.Errorf("resident objects per backend %v after Close, want %v (weights only)", got, base)
			}
			r.checkPlanes(t, g, len(matrixPromptA)+len(matrixPromptB))
		})
	}
}

// TestUnsupportedModeRejectedAtCreation covers the constructible cells
// valid() excludes: a placed or prefix-cached runner asked for a mode it
// cannot express must say so when the session is opened, whichever
// package built it.
func TestUnsupportedModeRejectedAtCreation(t *testing.T) {
	for _, r := range []row{
		{place: split, res: resHandles, mode: runtime.ModeSemAware, wire: wirePlan},
		{place: pool2, res: resHandles, mode: runtime.ModeSemAware, wire: wirePlan},
		{place: oneEndpoint, res: radixCold, mode: runtime.ModeSemAware, wire: wirePlan},
	} {
		runner := r.build(t).runner
		for _, mode := range []runtime.Mode{runtime.ModeNaive, runtime.ModeDeltaKV} {
			if s, err := runner.NewScopedSession(mode, "x/"); err == nil {
				_ = s.Close()
				t.Errorf("%s runner opened a %s session", placementNames[r.place], mode)
			}
		}
	}
}
