package obs

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The registry is the process-wide metric namespace. Mutating a metric
// is lock-free (padded atomics); looking one up by name goes through a
// lock-striped shard table so the kernel worker pool and every lane
// goroutine can resolve handles concurrently without serializing on one
// mutex. Callers are expected to resolve handles once and hold them —
// the stripes make the occasional dynamic lookup cheap, not the per-
// observation path.

// shardCount stripes the name table; must be a power of two.
const shardCount = 16

// Registry holds counters, gauges, and histograms under Prometheus-
// style names with optional fixed labels.
type Registry struct {
	shards [shardCount]shard

	famMu    sync.Mutex
	families map[string]*family
}

type shard struct {
	mu sync.RWMutex
	m  map[string]any
}

// family is one exposition family: all series sharing a base name.
type family struct {
	name, help, typ string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	r := &Registry{families: map[string]*family{}}
	for i := range r.shards {
		r.shards[i].m = map[string]any{}
	}
	return r
}

// seriesKey renders name plus label pairs into the exposition form,
// e.g. genie_transport_sent_bytes_total{kind="exec"}. Labels are
// key,value pairs; an odd count panics (programming error).
func seriesKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list for %s: %v", name, labels))
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

func (r *Registry) shardFor(key string) *shard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return &r.shards[h.Sum32()&(shardCount-1)]
}

// register resolves or creates the series under key, enforcing that a
// name keeps one metric type for its lifetime.
func (r *Registry) register(name, help, typ, key string, mk func() any) any {
	r.famMu.Lock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
	}
	if f.typ != typ {
		r.famMu.Unlock()
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.typ, typ))
	}
	r.famMu.Unlock()

	s := r.shardFor(key)
	s.mu.RLock()
	m, ok := s.m[key]
	s.mu.RUnlock()
	if ok {
		return m
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.m[key]; ok {
		return m
	}
	m = mk()
	s.m[key] = m
	return m
}

// Counter returns (creating on first use) a monotonically increasing
// counter. labels are fixed key,value pairs baked into the series name.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	key := seriesKey(name, labels)
	return r.register(name, help, "counter", key, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns (creating on first use) a settable gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	key := seriesKey(name, labels)
	return r.register(name, help, "gauge", key, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns (creating on first use) a fixed-bucket histogram.
// bounds are ascending upper bounds; nil uses DefBuckets. The first
// caller's bounds win; later callers must pass identical or nil bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	key := seriesKey(name, labels)
	h := r.register(name, help, "histogram", key, func() any { return newHistogram(bounds) }).(*Histogram)
	return h
}

// pad fills a cache line beyond an 8-byte atomic so adjacent counters
// never false-share.
type pad [56]byte

// Counter is a lock-free monotone counter.
type Counter struct {
	v atomic.Int64
	_ pad
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a programming error; they are not
// checked on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a lock-free instantaneous value.
type Gauge struct {
	v atomic.Int64
	_ pad
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets spans 50µs–20s in roughly 3× steps — wide enough for a
// decode step at one end and a queued batch request at the other.
var DefBuckets = []float64{
	50e-6, 150e-6, 500e-6, 1.5e-3, 5e-3, 15e-3, 50e-3,
	150e-3, 500e-3, 1.5, 5, 20,
}

// Histogram is a fixed-bucket histogram. Observation is lock-free: each
// bucket is its own padded atomic (striping contention across bounds),
// and the sum is a CAS loop over float bits.
type Histogram struct {
	bounds  []float64
	buckets []histCell
	count   atomic.Int64
	_       pad
	sumBits atomic.Uint64
	_       pad
}

type histCell struct {
	n atomic.Int64
	_ pad
}

func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must ascend")
		}
	}
	return &Histogram{bounds: bounds, buckets: make([]histCell, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].n.Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds (the Prometheus
// convention for latency histograms).
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns total observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }
