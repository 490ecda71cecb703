// Package compute provides the process-wide worker pool behind Genie's
// CPU kernels. The evaluation's device *timing* comes from the roofline
// cost model, but every mode really executes its graphs on the host CPU
// (that is what makes cross-mode bit-identity checkable), so host kernel
// wall-clock bounds everything built on top: decode steps, the serving
// engine's step loop, the parity suites.
//
// The pool's contract is determinism first: ParallelFor partitions
// [0,n) into fixed, grain-sized index ranges that depend only on n and
// grain — never on the worker count or on scheduling — and every range
// is executed by exactly one goroutine running the same code the serial
// path runs. A kernel whose chunks write disjoint output ranges is
// therefore bit-identical at any worker count, including 1 (the forced
// serial mode, GENIE_KERNEL_WORKERS=1).
package compute

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a fixed-width band of helper goroutines that execute
// ParallelFor chunks. Width w means at most w goroutines compute
// concurrently: w-1 resident helpers plus the calling goroutine, which
// always participates (so a saturated or stopped pool degrades to the
// caller running every chunk serially, never to a deadlock — nested
// ParallelFor calls from inside a chunk are safe for the same reason).
type Pool struct {
	width   int
	tasks   chan func()
	done    chan struct{}
	wg      sync.WaitGroup
	stopped atomic.Bool
}

// NewPool creates a pool of the given width. Width < 1 defaults to
// GOMAXPROCS. Width 1 spawns no goroutines: every ParallelFor runs
// inline on the caller.
func NewPool(width int) *Pool {
	if width < 1 {
		width = runtime.GOMAXPROCS(0)
	}
	p := &Pool{width: width, done: make(chan struct{})}
	if width > 1 {
		// Rendezvous channel: a task handoff succeeds only when an idle
		// helper is already receiving, so no task is ever queued where a
		// Stop could strand it.
		p.tasks = make(chan func())
		for i := 0; i < width-1; i++ {
			p.wg.Add(1)
			go p.work()
		}
	}
	return p
}

// Width reports the pool's parallelism (helpers + caller).
func (p *Pool) Width() int {
	if p == nil {
		return 1
	}
	return p.width
}

// work is one helper's loop: execute handed-off chunk runners until the
// pool stops.
func (p *Pool) work() {
	defer p.wg.Done()
	for {
		select {
		case <-p.done:
			return
		case t := <-p.tasks:
			t()
		}
	}
}

// Stop terminates the helper goroutines and waits for them to exit.
// Idempotent. A ParallelFor in flight finishes normally (its chunks run
// on the caller); ParallelFor calls after Stop run serially.
func (p *Pool) Stop() {
	if p == nil || p.stopped.Swap(true) {
		return
	}
	close(p.done)
	p.wg.Wait()
}

// ParallelFor runs fn over [0,n) split into ⌈n/grain⌉ fixed ranges
// [start,end). Ranges never overlap, cover [0,n) exactly, and are
// independent of the pool width, so kernels whose ranges touch disjoint
// output elements produce bit-identical results at any width. The call
// returns only after every range has executed. fn must not panic;
// chunks run on helper goroutines.
func (p *Pool) ParallelFor(n, grain int, fn func(start, end int)) {
	chunks, grain := forChunks(n, grain)
	if chunks == 0 {
		return
	}
	if chunks == 1 || p == nil || p.width == 1 || p.stopped.Load() {
		// Serial path: same chunk iteration, zero allocations — decode
		// steps at width 1 call this hundreds of times per token.
		for c := 0; c < chunks; c++ {
			end := (c + 1) * grain
			if end > n {
				end = n
			}
			fn(c*grain, end)
		}
		return
	}
	var next atomic.Int64
	run := func() {
		for {
			c := int(next.Add(1)) - 1
			if c >= chunks {
				return
			}
			end := (c + 1) * grain
			if end > n {
				end = n
			}
			fn(c*grain, end)
		}
	}
	p.fanOut(chunks, run)
}

// fanOut hands run to up to width-1 idle helpers, runs it on the caller
// too, and waits for every participant. Handoffs that find no idle
// helper are simply skipped — the claim counter inside run guarantees
// all chunks execute regardless of how many participants join.
func (p *Pool) fanOut(chunks int, run func()) {
	helpers := p.width - 1
	if helpers > chunks-1 {
		helpers = chunks - 1
	}
	var wg sync.WaitGroup
	for i := 0; i < helpers; i++ {
		wg.Add(1)
		t := func() { defer wg.Done(); run() }
		select {
		case p.tasks <- t:
		default:
			wg.Done() // every helper busy: caller absorbs the work
		}
	}
	run()
	wg.Wait()
}

// forChunks normalizes grain and returns the fixed chunk count for n
// alongside the normalized grain.
func forChunks(n, grain int) (int, int) {
	if n <= 0 {
		return 0, grain
	}
	if grain < 1 {
		grain = 1
	}
	return (n + grain - 1) / grain, grain
}
