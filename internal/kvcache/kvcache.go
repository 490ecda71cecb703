// Package kvcache is the prefix-reuse plane of the serving stack: a
// radix-tree cache over token sequences mapping shared prompt prefixes
// (system prompts, few-shot templates) to resident KV state, backed by
// fixed-size pages from the tensor arena.
//
// The paper's argument is that network-attached disaggregation survives
// only when the boundary understands state semantics; this package
// applies the same argument to prompt state. A new request's Prefill
// looks up its longest cached prefix, runs only the suffix
// (models.BuildPrefillExtend — bit-identical to a full prefill by the
// offset-causal-mask construction), and inserts the suffix rows back so
// the next request extends further. Keys live on the scoped
// models.CacheRef plane, the same key space every session uses.
//
// The package implements no session of its own. It hands the one
// session executor in runtime the two things that cannot be derived
// there: the prefix Lookup/Insert as a wrapper around prefill
// (Manager.Match, behind Manager.Runner in-process and Manager.RunnerOn
// on an endpoint, where a repeated prefix bind dedups to zero wire
// bytes), and — for the prefill/decode split (NewSplit) — who executes
// a hop: the healthiest prefill lane, then a handoff that ships only the
// ΔKV suffix to the decode endpoint.
package kvcache

import (
	"fmt"
	"sync"

	"genie/internal/models"
	"genie/internal/nn"
	"genie/internal/obs"
	"genie/internal/runtime"
	"genie/internal/tensor"
	"genie/internal/transport"
)

// DefaultPageTokens is the page granularity when Config.PageTokens is 0:
// small enough that a diverging suffix wastes little slack, big enough
// that page bookkeeping stays off the per-token path.
const DefaultPageTokens = 16

// Config sizes a prefix-cache manager.
type Config struct {
	Model *models.GPT
	// BudgetBytes caps resident page bytes; the LRU sweep evicts
	// childless unpinned nodes past it. Zero or negative means no reuse
	// plane — construction fails (turn the cache off by not building one).
	BudgetBytes int64
	// PageTokens is the rows-per-page granularity (DefaultPageTokens if 0).
	PageTokens int
	// Metrics receives hit/miss/eviction/bytes-saved series; nil keeps a
	// private registry (tests).
	Metrics *obs.Registry
}

// Manager owns one radix tree of resident prefixes and hands out
// runners whose prefill consults it. All methods are safe for concurrent use.
type Manager struct {
	cfg Config

	mu    sync.Mutex
	root  *node
	bytes int64
	nodes int
	tick  uint64
	// pins is the live-pin registry: the evict sweep re-matches each
	// pin's token range to derive the protected node set.
	pins map[*Pin]struct{}

	hits, misses, evictions, bytesSaved *obs.Counter
	residentBytes, residentNodes        *obs.Gauge
}

// NewManager builds a prefix-cache manager.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("kvcache: nil model")
	}
	if cfg.BudgetBytes <= 0 {
		return nil, fmt.Errorf("kvcache: non-positive budget %d", cfg.BudgetBytes)
	}
	if cfg.PageTokens <= 0 {
		cfg.PageTokens = DefaultPageTokens
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &Manager{cfg: cfg, root: &node{}, pins: make(map[*Pin]struct{})}
	m.hits = reg.Counter("genie_kvcache_hits_total", "prefix lookups that matched at least one token")
	m.misses = reg.Counter("genie_kvcache_misses_total", "prefix lookups that matched nothing")
	m.evictions = reg.Counter("genie_kvcache_evictions_total", "radix nodes evicted by the LRU sweep")
	m.bytesSaved = reg.Counter("genie_kvcache_bytes_saved_total", "KV bytes served from cache instead of recomputed")
	m.residentBytes = reg.Gauge("genie_kvcache_resident_bytes", "resident page bytes")
	m.residentNodes = reg.Gauge("genie_kvcache_resident_nodes", "live radix nodes")
	return m, nil
}

// Runner returns an LLMRunner whose ModeLocal sessions consult the
// prefix cache: Prefill runs only the uncached suffix over the gathered
// prefix, decode is the plain in-process path. Token sequences are
// bit-identical to the uncached local mode.
func (m *Manager) Runner() *runtime.LLMRunner {
	return runtime.NewPlacedRunner(runtime.LLMRunner{Model: m.cfg.Model}, nil, m)
}

// RunnerOn returns an LLMRunner whose ModeSemAware sessions consult the
// prefix cache while executing on ep as fused RPCs. On a hit, the cached
// prefix enters the graph as dedup-hinted inline binds: over a
// feature-negotiated transport a prefix the connection has seen before
// collapses to a 32-byte hash — zero content bytes on the wire. The
// fresh suffix rows are read back once to feed the tree; decode steps
// bind the remote cache by scoped key exactly like the plain
// semantics-aware mode.
func (m *Manager) RunnerOn(ep runtime.Endpoint, counters *transport.Counters) *runtime.LLMRunner {
	return runtime.NewPlacedRunner(runtime.LLMRunner{Model: m.cfg.Model, EP: ep, Counters: counters}, nil, m)
}

// Match is Lookup and Insert as the session core's prefill wrapper
// (runtime.PrefixCache): the hit's Commit inserts the suffix rows, swaps
// the lookup pin for the session-lifetime one and recycles the gathered
// prefix.
func (m *Manager) Match(prompt []int64) (runtime.PrefixHit, error) {
	pin, prefix, release, matched, err := m.Lookup(prompt)
	if err != nil {
		return runtime.PrefixHit{}, err
	}
	commit := func(newK, newV []*tensor.Tensor) (func(), error) {
		defer release()
		defer pin.Unpin()
		if newK == nil {
			return nil, nil
		}
		held, err := m.Insert(prompt, matched, newK, newV)
		if err != nil {
			return nil, err
		}
		return held.Unpin, nil
	}
	return runtime.PrefixHit{Matched: matched, KV: prefix, Commit: commit}, nil
}

// PageTokens reports the effective page granularity.
func (m *Manager) PageTokens() int { return m.cfg.PageTokens }

// Model returns the model the cache serves.
func (m *Manager) Model() *models.GPT { return m.cfg.Model }

// Pin holds eviction protection over a token range. Sessions hold their
// pin for their lifetime so hot prefixes stay resident; Unpin releases.
// A Pin records the pinned token sequence, and the eviction sweep
// re-matches it against the current tree — so protection covers the full
// range even when a copy-on-extend split later reshapes the path (the
// re-match follows the range into the split tail). It guards residency,
// not content correctness — the session already owns a copy of
// everything it read (Lookup gathers atomically under the tree lock).
type Pin struct {
	m      *Manager
	tokens []int64 // the pinned prefix
	done   bool
}

// pinRange registers eviction protection over tokens[:n]. Caller holds
// m.mu. A zero-length pin protects nothing and skips the registry.
func (m *Manager) pinRange(tokens []int64, n int) *Pin {
	p := &Pin{m: m, tokens: append([]int64(nil), tokens[:n]...)}
	if n > 0 {
		m.pins[p] = struct{}{}
	}
	return p
}

// Tokens is the matched prefix length.
func (p *Pin) Tokens() int {
	if p == nil {
		return 0
	}
	return len(p.tokens)
}

// Unpin releases the pin. Idempotent; safe on nil.
func (p *Pin) Unpin() {
	if p == nil || p.done {
		return
	}
	p.done = true
	p.m.mu.Lock()
	defer p.m.mu.Unlock()
	delete(p.m.pins, p)
	// A pinned path may have held the cache over budget; releasing the
	// pin is what makes those nodes evictable, so sweep now rather than
	// waiting for the next insert.
	if p.m.bytes > p.m.cfg.BudgetBytes {
		p.m.evict()
		p.m.residentBytes.Set(p.m.bytes)
		p.m.residentNodes.Set(int64(p.m.nodes))
	}
}

// Lookup finds the longest cached prefix of tokens, gathers its KV state
// into contiguous caller-owned caches, and pins the matched range. The
// match is clamped to len(tokens)-1: at least one suffix token must run
// so the extend graph has work and a next-token output. On a zero-token
// match prefix is nil and release a no-op; the caller falls back to full
// prefill but still holds (and must Unpin) the empty pin. An empty token
// sequence is rejected — there is no suffix to run.
func (m *Manager) Lookup(tokens []int64) (pin *Pin, prefix []*nn.KVCache, release func(), matched int, err error) {
	if len(tokens) == 0 {
		return nil, nil, nil, 0, fmt.Errorf("kvcache: lookup of empty token sequence")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tick++
	path := m.match(tokens)
	matched = 0
	for _, s := range path {
		matched += s.rows
	}
	if matched >= len(tokens) {
		// Full-prompt hit: drop the final token so the suffix is non-empty.
		over := matched - (len(tokens) - 1)
		matched = len(tokens) - 1
		last := &path[len(path)-1]
		last.rows -= over
		if last.rows == 0 {
			path = path[:len(path)-1]
		}
	}
	pin = m.pinRange(tokens, matched)
	for _, s := range path {
		s.n.lastUse = m.tick
	}
	if matched == 0 {
		m.misses.Inc()
		return pin, nil, func() {}, 0, nil
	}
	prefix, release, err = m.gatherSegs(path, matched)
	if err != nil {
		delete(m.pins, pin)
		pin.done = true
		return nil, nil, nil, 0, err
	}
	m.hits.Inc()
	m.bytesSaved.Add(int64(matched) * m.cfg.Model.Cfg.KVBytesPerToken())
	return pin, prefix, release, matched, nil
}

// gatherSegs materializes a matched path (possibly ending in a partial
// segment) as contiguous per-layer caches of total rows.
func (m *Manager) gatherSegs(path []pathSeg, total int) ([]*nn.KVCache, func(), error) {
	layers, dim := m.cfg.Model.Cfg.Layers, m.cfg.Model.Cfg.Dim
	ks := make([]*tensor.Tensor, layers)
	vs := make([]*tensor.Tensor, layers)
	for i := 0; i < layers; i++ {
		ks[i] = tensor.NewScratch(tensor.F32, total, dim)
		vs[i] = tensor.NewScratch(tensor.F32, total, dim)
	}
	release := func() {
		for i := 0; i < layers; i++ {
			ks[i].Release()
			vs[i].Release()
		}
	}
	at := 0
	for _, s := range path {
		if err := s.n.run.copyRange(ks, vs, 0, s.rows, at); err != nil {
			release()
			return nil, nil, err
		}
		at += s.rows
	}
	caches := make([]*nn.KVCache, layers)
	for i := 0; i < layers; i++ {
		caches[i] = &nn.KVCache{K: ks[i], V: vs[i]}
	}
	return caches, release, nil
}

// Insert extends the tree with the suffix rows of tokens: matched is the
// prefix length Lookup reported, and newK/newV hold per-layer
// [len(tokens)-matched, dim] fresh rows from the suffix computation (the
// caller keeps ownership). Returns a pin over the full token range;
// the caller then Unpins its lookup pin. Concurrent inserts of
// overlapping sequences converge: whatever another session already
// inserted is matched (splitting a node at the divergence point), never
// duplicated.
func (m *Manager) Insert(tokens []int64, matched int, newK, newV []*tensor.Tensor) (*Pin, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tick++
	path := m.match(tokens)
	have := 0
	for _, s := range path {
		have += s.rows
	}
	if have < matched {
		return nil, fmt.Errorf("kvcache: matched prefix shrank from %d to %d during insert (pin missing?)", matched, have)
	}
	if have < len(tokens) {
		cur := m.root
		if len(path) > 0 {
			last := path[len(path)-1]
			if last.rows < len(last.n.label) {
				// Divergence mid-label: copy-on-extend split first.
				if err := m.split(last.n, last.rows); err != nil {
					return nil, err
				}
			}
			cur = last.n
		}
		run := newRun(m.cfg.Model.Cfg.Layers, m.cfg.PageTokens, m.cfg.Model.Cfg.Dim)
		if err := run.appendRows(newK, newV, have-matched, len(tokens)-matched); err != nil {
			run.release()
			return nil, err
		}
		child := &node{
			label:   append([]int64(nil), tokens[have:]...),
			run:     run,
			lastUse: m.tick,
		}
		cur.addChild(child)
		m.bytes += run.bytes()
		m.nodes++
		path = append(path, pathSeg{child, len(child.label)})
	}
	pin := m.pinRange(tokens, len(tokens))
	for _, s := range path {
		s.n.lastUse = m.tick
	}
	m.evict()
	m.residentBytes.Set(m.bytes)
	m.residentNodes.Set(int64(m.nodes))
	return pin, nil
}

// Stats is a point-in-time cache snapshot (the /stats "cache" block).
type Stats struct {
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	HitRatio      float64 `json:"hit_ratio"`
	Evictions     int64   `json:"evictions"`
	BytesSaved    int64   `json:"bytes_saved"`
	ResidentBytes int64   `json:"resident_bytes"`
	ResidentNodes int     `json:"resident_nodes"`
	BudgetBytes   int64   `json:"budget_bytes"`
	PageTokens    int     `json:"page_tokens"`
}

// Snapshot reads the current counters.
func (m *Manager) Snapshot() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{
		Hits:          m.hits.Value(),
		Misses:        m.misses.Value(),
		Evictions:     m.evictions.Value(),
		BytesSaved:    m.bytesSaved.Value(),
		ResidentBytes: m.bytes,
		ResidentNodes: m.nodes,
		BudgetBytes:   m.cfg.BudgetBytes,
		PageTokens:    m.cfg.PageTokens,
	}
	if n := s.Hits + s.Misses; n > 0 {
		s.HitRatio = float64(s.Hits) / float64(n)
	}
	return s
}
