package transport

import (
	"fmt"
	"sync"

	"genie/internal/tensor"
)

// BufferPool is the pinned, network-ready memory pool — the stand-in for
// DPDK-managed host memory (§3.4). Tensors allocated through the pool are
// born in registered buffers, so sending them requires no reactive
// pinning or staging copy; the ablation bench A4 measures exactly that
// difference against the reactive path.
//
// Buffers are size-class bucketed (powers of two) and recycled.
type BufferPool struct {
	mu      sync.Mutex
	classes map[int][][]byte // sizeClass -> free buffers

	// stats
	allocs  int64
	reuses  int64
	pinned  int64 // bytes currently handed out
	maxHeld int   // per-class free-list cap
}

// NewBufferPool creates a pool that retains at most maxHeldPerClass free
// buffers per size class (0 means a default of 32).
func NewBufferPool(maxHeldPerClass int) *BufferPool {
	if maxHeldPerClass <= 0 {
		maxHeldPerClass = 32
	}
	return &BufferPool{
		classes: make(map[int][][]byte),
		maxHeld: maxHeldPerClass,
	}
}

// sizeClass rounds n up to the next power of two (minimum 64).
func sizeClass(n int) int {
	c := 64
	for c < n {
		c <<= 1
	}
	return c
}

// Get returns a pinned buffer of at least n bytes (sliced to exactly n).
func (p *BufferPool) Get(n int) []byte {
	if n < 0 {
		panic(fmt.Sprintf("transport: negative buffer size %d", n))
	}
	c := sizeClass(n)
	p.mu.Lock()
	defer p.mu.Unlock()
	free := p.classes[c]
	var b []byte
	if len(free) > 0 {
		b = free[len(free)-1]
		p.classes[c] = free[:len(free)-1]
		p.reuses++
	} else {
		b = make([]byte, c)
		p.allocs++
	}
	p.pinned += int64(n)
	return b[:n]
}

// Put returns a buffer obtained from Get.
func (p *BufferPool) Put(b []byte) {
	c := sizeClass(cap(b))
	if c != cap(b) {
		// Not one of ours (or resliced oddly); drop it.
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pinned -= int64(len(b))
	if p.pinned < 0 {
		p.pinned = 0
	}
	if len(p.classes[c]) < p.maxHeld {
		p.classes[c] = append(p.classes[c], b[:cap(b)])
	}
}

// NewTensor allocates a tensor directly in pinned pool memory — the
// proactive-allocation path: the tensor's backing store IS the wire
// buffer.
//
//lint:ignore deadexport ROADMAP item 10 puts pooled tensors on the serving path
func (p *BufferPool) NewTensor(dt tensor.DType, shape ...int) *tensor.Tensor {
	s := tensor.Shape(shape)
	n := s.NumElements() * dt.Size()
	b := p.Get(n)
	for i := range b {
		b[i] = 0
	}
	t, err := tensor.WrapPinned(dt, s, b, func() { p.Put(b) })
	if err != nil {
		panic(err) // sizes are consistent by construction
	}
	return t
}

// PinReactively copies an unpinned tensor into pool memory — the
// reactive pin_memory() path the paper's design avoids. It exists so the
// ablation bench can measure the copy it costs.
//
//lint:ignore deadexport ROADMAP item 10 puts pooled tensors on the serving path
func (p *BufferPool) PinReactively(t *tensor.Tensor) *tensor.Tensor {
	if t.Pinned() {
		return t
	}
	b := p.Get(t.NumBytes())
	copy(b, t.Bytes())
	out, err := tensor.WrapPinned(t.DType(), t.Shape(), b, func() { p.Put(b) })
	if err != nil {
		panic(err)
	}
	return out
}

// PoolStats reports pool counters.
type PoolStats struct {
	Allocs      int64
	Reuses      int64
	PinnedBytes int64
}

// Stats returns a snapshot of pool counters.
func (p *BufferPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Allocs: p.allocs, Reuses: p.reuses, PinnedBytes: p.pinned}
}
