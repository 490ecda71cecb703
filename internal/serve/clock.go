package serve

import (
	"sync"
	"time"
)

// Clock abstracts time so the whole engine is deterministic under test:
// deadlines, TTFT, and latency all read through it. The zero Config gets
// the real clock.
type Clock interface {
	Now() time.Time
}

// realClock is the production clock.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// FakeClock is a manually-advanced clock for deterministic tests.
type FakeClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewFakeClock starts a fake clock at an arbitrary fixed instant.
//
//lint:ignore deadexport test fake: deterministic clock for the serving engine's tests
func NewFakeClock() *FakeClock {
	return &FakeClock{t: time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)}
}

// Now returns the current fake instant.
func (f *FakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

// Advance moves the clock forward.
//
//lint:ignore deadexport test fake: deterministic clock for the serving engine's tests
func (f *FakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}
