package compute

import (
	"os"
	"runtime"
	"strconv"
	"sync"
)

// EnvWorkers is the environment knob that fixes the default pool's
// width at process start. Unset or invalid means GOMAXPROCS;
// GENIE_KERNEL_WORKERS=1 forces every kernel serial — the debugging
// mode for bisecting a suspected parallelism bug (results must not
// change, by the determinism contract; if they do, the kernel's chunks
// overlap and the parity suite should catch it).
const EnvWorkers = "GENIE_KERNEL_WORKERS"

var (
	defMu sync.Mutex
	def   *Pool
)

// The default pool starts with the process so its helper goroutines
// exist before any test takes a metrics.SnapGoroutines baseline —
// lazily spawning them mid-test would read as a leak.
func init() {
	def = NewPool(envWidth())
}

func envWidth() int {
	if s := os.Getenv(EnvWorkers); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 1 {
			return v
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Default returns the process-wide pool the kernels in
// internal/tensor/ops run on.
func Default() *Pool {
	defMu.Lock()
	defer defMu.Unlock()
	return def
}

// SetDefault installs p as the process-wide pool and returns the
// previous one (which the caller owns and may Stop once quiescent).
// Tests and genie-bench use it to sweep worker counts; the serving
// binaries keep the pool the process started with (GENIE_KERNEL_WORKERS).
func SetDefault(p *Pool) *Pool {
	defMu.Lock()
	old := def
	def = p
	defMu.Unlock()
	return old
}

// Workers reports the default pool's width.
func Workers() int { return Default().Width() }

// ParallelFor runs fn over [0,n) on the default pool. See
// (*Pool).ParallelFor for the determinism contract.
func ParallelFor(n, grain int, fn func(start, end int)) {
	Default().ParallelFor(n, grain, fn)
}
