package metrics

import (
	"fmt"
	"runtime"
	"time"
)

// GoroutineSnapshot is a point-in-time goroutine count, the dynamic
// complement to genie-lint's static goleak check: the analyzer proves
// each serving-layer goroutine has a cancellation path, the snapshot
// proves the paths were actually taken. Take one before building the
// system under test, then Check after tearing it down:
//
//	snap := metrics.SnapGoroutines()
//	... start engine, serve, drain, stop ...
//	snap.Check(t)
type GoroutineSnapshot struct {
	base int
}

// SnapGoroutines records the current goroutine count.
//
//lint:ignore deadexport test reference: goroutine-leak baseline shared by every package's tests
func SnapGoroutines() GoroutineSnapshot {
	return GoroutineSnapshot{base: runtime.NumGoroutine()}
}

// Reporter is the subset of testing.TB the check needs; keeping it an
// interface keeps package testing out of production binaries that link
// metrics.
type Reporter interface {
	Helper()
	Errorf(format string, args ...any)
}

// Check fails rep if goroutines outlive the snapshot. Goroutines wind
// down asynchronously after a drain (deferred closes, netpoll
// teardown), so the count is polled with backoff for up to two seconds
// before the failure is declared; on failure the report carries every
// live stack so the leaked goroutine is identifiable directly from the
// test log.
//
//lint:ignore deadexport test reference: goroutine-leak assertion shared by every package's tests
func (g GoroutineSnapshot) Check(rep Reporter) {
	rep.Helper()
	deadline := time.Now().Add(2 * time.Second)
	var now int
	for {
		now = runtime.NumGoroutine()
		if now <= g.base {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	rep.Errorf("goroutine leak: %d live, %d at snapshot; stacks:\n%s",
		now, g.base, string(buf))
}

// String implements fmt.Stringer for debug logging.
func (g GoroutineSnapshot) String() string {
	return fmt.Sprintf("goroutines(base=%d)", g.base)
}
