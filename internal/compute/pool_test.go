package compute

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"genie/internal/metrics"
)

// TestParallelForCoversEveryIndexOnce is the scheduling half of the
// determinism contract: every index in [0,n) is visited exactly once,
// for any (n, grain, width) combination.
func TestParallelForCoversEveryIndexOnce(t *testing.T) {
	for _, width := range []int{1, 2, 3, runtime.NumCPU() + 2} {
		p := NewPool(width)
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			for _, grain := range []int{0, 1, 3, 64, 5000} {
				hits := make([]int32, n)
				p.ParallelFor(n, grain, func(start, end int) {
					if start < 0 || end > n || start >= end {
						t.Errorf("width=%d n=%d grain=%d: bad range [%d,%d)", width, n, grain, start, end)
						return
					}
					for i := start; i < end; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("width=%d n=%d grain=%d: index %d visited %d times", width, n, grain, i, h)
					}
				}
			}
		}
		p.Stop()
	}
}

// TestParallelForRangesAreFixed verifies chunk boundaries depend only
// on (n, grain), not on the pool width — the property parallel kernels
// lean on for bit-identical results.
func TestParallelForRangesAreFixed(t *testing.T) {
	collect := func(p *Pool, n, grain int) map[[2]int]bool {
		var mu sync.Mutex
		got := map[[2]int]bool{}
		p.ParallelFor(n, grain, func(start, end int) {
			mu.Lock()
			got[[2]int{start, end}] = true
			mu.Unlock()
		})
		return got
	}
	serial := NewPool(1)
	wide := NewPool(8)
	defer serial.Stop()
	defer wide.Stop()
	for _, n := range []int{1, 10, 97, 256} {
		for _, grain := range []int{1, 7, 32, 300} {
			a, b := collect(serial, n, grain), collect(wide, n, grain)
			if len(a) != len(b) {
				t.Fatalf("n=%d grain=%d: %d ranges serial vs %d wide", n, grain, len(a), len(b))
			}
			for r := range a {
				if !b[r] {
					t.Fatalf("n=%d grain=%d: range %v missing at width 8", n, grain, r)
				}
			}
		}
	}
}

// TestNestedParallelForDoesNotDeadlock exercises the batched-matmul
// shape: an outer ParallelFor whose chunks issue inner ParallelFors on
// the same pool. The caller-participates design must make progress even
// with every helper busy.
func TestNestedParallelForDoesNotDeadlock(t *testing.T) {
	p := NewPool(2)
	defer p.Stop()
	var total atomic.Int64
	p.ParallelFor(8, 1, func(start, end int) {
		p.ParallelFor(100, 10, func(s, e int) {
			total.Add(int64(e - s))
		})
	})
	if got := total.Load(); got != 800 {
		t.Fatalf("nested sum = %d, want 800", got)
	}
}

// TestConcurrentCallersShareThePool drives one pool from many
// goroutines at once, as concurrent backend connections do.
func TestConcurrentCallersShareThePool(t *testing.T) {
	p := NewPool(4)
	defer p.Stop()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sum atomic.Int64
			p.ParallelFor(1000, 13, func(start, end int) {
				for i := start; i < end; i++ {
					sum.Add(int64(i))
				}
			})
			if got := sum.Load(); got != 499500 {
				t.Errorf("sum = %d, want 499500", got)
			}
		}()
	}
	wg.Wait()
}

// TestStopIsIdempotentAndLeavesSerialPath verifies Stop twice is safe
// and a stopped pool still executes (inline on the caller).
func TestStopIsIdempotentAndLeavesSerialPath(t *testing.T) {
	snap := metrics.SnapGoroutines()
	p := NewPool(4)
	p.Stop()
	p.Stop()
	ran := 0
	p.ParallelFor(10, 2, func(start, end int) { ran += end - start })
	if ran != 10 {
		t.Fatalf("stopped pool ran %d of 10 indices", ran)
	}
	snap.Check(t)
}

// TestPoolStopReleasesGoroutines is the dynamic complement to
// genie-lint's goleak check on the worker loop.
func TestPoolStopReleasesGoroutines(t *testing.T) {
	snap := metrics.SnapGoroutines()
	for i := 0; i < 3; i++ {
		p := NewPool(6)
		p.ParallelFor(100, 1, func(start, end int) {})
		p.Stop()
	}
	snap.Check(t)
}

// TestWidthOneSpawnsNothing: the forced-serial debug mode must not
// start goroutines at all.
func TestWidthOneSpawnsNothing(t *testing.T) {
	snap := metrics.SnapGoroutines()
	p := NewPool(1)
	ran := false
	p.ParallelFor(5, 100, func(start, end int) { ran = start == 0 && end == 5 })
	if !ran {
		t.Fatal("width-1 pool did not run the single chunk inline")
	}
	p.Stop()
	snap.Check(t)
}

func TestDefaultPoolAndConfigure(t *testing.T) {
	if Default() == nil {
		t.Fatal("no default pool")
	}
	if Workers() < 1 {
		t.Fatalf("Workers() = %d", Workers())
	}
	// Swap in a known pool, then restore the original so other tests
	// (and the process default) are unaffected.
	orig := SetDefault(NewPool(2))
	if Workers() != 2 {
		t.Fatalf("Workers() = %d after SetDefault(2)", Workers())
	}
	sum := 0
	ParallelFor(10, 100, func(start, end int) { sum += end - start })
	if sum != 10 {
		t.Fatalf("package ParallelFor covered %d of 10", sum)
	}
	SetDefault(orig).Stop()
}

func TestNilPoolRunsSerially(t *testing.T) {
	var p *Pool
	if p.Width() != 1 {
		t.Fatalf("nil pool width = %d", p.Width())
	}
	ran := 0
	p.ParallelFor(7, 2, func(start, end int) { ran += end - start })
	if ran != 7 {
		t.Fatalf("nil pool ran %d of 7", ran)
	}
	p.Stop() // must not panic
}

// TestEnvWidth checks GENIE_KERNEL_WORKERS parsing: positive integers
// win, anything else falls back to GOMAXPROCS.
func TestEnvWidth(t *testing.T) {
	cases := []struct {
		val  string
		want int
	}{
		{"1", 1},
		{"7", 7},
		{"0", runtime.GOMAXPROCS(0)},
		{"-3", runtime.GOMAXPROCS(0)},
		{"banana", runtime.GOMAXPROCS(0)},
		{"", runtime.GOMAXPROCS(0)},
	}
	for _, c := range cases {
		t.Setenv(EnvWorkers, c.val)
		if got := envWidth(); got != c.want {
			t.Errorf("envWidth with %s=%q: got %d, want %d", EnvWorkers, c.val, got, c.want)
		}
	}
}
