package health

import (
	"testing"
	"time"
)

// fakeClock is a manually-advanced clock for deterministic dwell tests.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func testSet(clk *fakeClock, over func(*Config)) *Set {
	cfg := Config{Now: clk.now}
	if over != nil {
		over(&cfg)
	}
	return NewSet(cfg)
}

// feed pushes n identical samples.
func feed(t *Tracker, n int, d time.Duration, failed bool) {
	for i := 0; i < n; i++ {
		t.Observe(d, failed)
	}
}

func TestHealthyBaseline(t *testing.T) {
	s := testSet(newFakeClock(), nil)
	a := s.Endpoint("a")
	b := s.Endpoint("b")
	feed(a, 20, time.Millisecond, false)
	feed(b, 20, time.Millisecond, false)
	if st := a.State(); st != Healthy {
		t.Fatalf("a state = %v, want Healthy", st)
	}
	if sc := a.Score(); sc < 0.99 {
		t.Fatalf("a score = %v, want ~1", sc)
	}
	if s.Endpoint("a") != a {
		t.Fatal("Endpoint not idempotent")
	}
}

func TestSlowLaneGraduatesToQuarantine(t *testing.T) {
	s := testSet(newFakeClock(), nil)
	a := s.Endpoint("a")
	b := s.Endpoint("b")
	feed(a, 20, time.Millisecond, false)
	// b starts equally fast, then browns out mildly (4×): that lands in
	// the suspect band and stays there.
	feed(b, 20, time.Millisecond, false)
	for i := 0; i < 40 && b.State() != Suspect; i++ {
		b.Observe(4*time.Millisecond, false)
	}
	if st := b.State(); st != Suspect {
		t.Fatalf("b state = %v after 4x slowdown, want Suspect", st)
	}
	// Then severely (50×): one sample is enough to cross the quarantine
	// ratio once the EWMA folds it in.
	for i := 0; i < 40 && b.State() != Quarantined; i++ {
		b.Observe(50*time.Millisecond, false)
	}
	if st := b.State(); st != Quarantined {
		t.Fatalf("b state = %v, want Quarantined", st)
	}
	if sc := b.Score(); sc != 0 {
		t.Fatalf("quarantined score = %v, want 0", sc)
	}
	if st := a.State(); st != Healthy {
		t.Fatalf("healthy peer state = %v, want Healthy", st)
	}
}

func TestErrorRateQuarantines(t *testing.T) {
	s := testSet(newFakeClock(), nil)
	a := s.Endpoint("a")
	feed(s.Endpoint("b"), 20, time.Millisecond, false)
	feed(a, 10, time.Millisecond, false)
	for i := 0; i < 40 && a.State() != Quarantined; i++ {
		a.Observe(time.Millisecond, true)
	}
	if st := a.State(); st != Quarantined {
		t.Fatalf("a state = %v, want Quarantined (errEwma path)", st)
	}
}

func TestQuarantineDwellAndReinstate(t *testing.T) {
	clk := newFakeClock()
	s := testSet(clk, func(c *Config) {
		c.Cooldown = time.Second
		c.ReinstateStreak = 3
	})
	a := s.Endpoint("a")
	feed(s.Endpoint("b"), 20, time.Millisecond, false)
	feed(a, 20, time.Millisecond, false)
	for i := 0; i < 60 && a.State() != Quarantined; i++ {
		a.Observe(100*time.Millisecond, false)
	}
	if a.State() != Quarantined {
		t.Fatal("setup: a should be Quarantined")
	}
	// Dwell not elapsed: still quarantined.
	clk.advance(500 * time.Millisecond)
	if st := a.State(); st != Quarantined {
		t.Fatalf("state = %v before dwell elapsed, want Quarantined", st)
	}
	clk.advance(600 * time.Millisecond)
	if st := a.State(); st != Reinstating {
		t.Fatalf("state = %v after dwell, want Reinstating", st)
	}
	// Two successes: still on trial. Third: healthy, with the sick-era
	// EWMA forgotten so the next judged call doesn't re-quarantine.
	a.Observe(time.Millisecond, false)
	a.Observe(time.Millisecond, false)
	if st := a.State(); st != Reinstating {
		t.Fatalf("state = %v mid-streak, want Reinstating", st)
	}
	a.Observe(time.Millisecond, false)
	if st := a.State(); st != Healthy {
		t.Fatalf("state = %v after streak, want Healthy", st)
	}
	feed(a, 10, time.Millisecond, false)
	if st := a.State(); st != Healthy {
		t.Fatalf("state = %v after recovery traffic, want Healthy (stale EWMA leaked)", st)
	}
}

func TestReinstateFailureRequarantines(t *testing.T) {
	clk := newFakeClock()
	s := testSet(clk, func(c *Config) { c.Cooldown = time.Second })
	a := s.Endpoint("a")
	feed(s.Endpoint("b"), 20, time.Millisecond, false)
	feed(a, 20, time.Millisecond, false)
	for i := 0; i < 60 && a.State() != Quarantined; i++ {
		a.Observe(100*time.Millisecond, false)
	}
	clk.advance(2 * time.Second)
	if a.State() != Reinstating {
		t.Fatal("setup: a should be Reinstating")
	}
	a.Observe(time.Millisecond, true)
	if st := a.State(); st != Quarantined {
		t.Fatalf("state = %v after trial failure, want Quarantined", st)
	}
}

// TestTripQuarantinesAndDwells: Trip quarantines an endpoint that has
// too few samples to be graded, RetryAfter counts the dwell down on the
// clock and is 0 outside quarantine, a later Trip extends the dwell but
// never shortens it, and a Trip during the trial sends it back.
func TestTripQuarantinesAndDwells(t *testing.T) {
	clk := newFakeClock()
	s := testSet(clk, func(c *Config) { c.ReinstateStreak = 1 })
	a := s.Endpoint("a")
	feed(a, 2, time.Millisecond, true) // below MinSamples: never graded
	if st, ra := a.State(), a.RetryAfter(); st != Healthy || ra != 0 {
		t.Fatalf("before trip: state %v, RetryAfter %v; want Healthy, 0", st, ra)
	}
	a.Trip(time.Second)
	if st, sc := a.State(), a.Score(); st != Quarantined || sc != 0 {
		t.Fatalf("after trip: state %v, score %v; want Quarantined, 0", st, sc)
	}
	if ra := a.RetryAfter(); ra != time.Second {
		t.Fatalf("RetryAfter = %v right after trip, want 1s", ra)
	}
	clk.advance(400 * time.Millisecond)
	if ra := a.RetryAfter(); ra != 600*time.Millisecond {
		t.Fatalf("RetryAfter = %v after 400ms, want 600ms", ra)
	}
	a.Trip(100 * time.Millisecond) // shorter: the running dwell is kept
	if ra := a.RetryAfter(); ra != 600*time.Millisecond {
		t.Fatalf("RetryAfter = %v after a shorter trip, want 600ms kept", ra)
	}
	a.Trip(time.Second) // longer: extended
	if ra := a.RetryAfter(); ra != time.Second {
		t.Fatalf("RetryAfter = %v after a longer trip, want 1s", ra)
	}
	clk.advance(time.Second)
	if st, ra := a.State(), a.RetryAfter(); st != Reinstating || ra != 0 {
		t.Fatalf("after dwell: state %v, RetryAfter %v; want Reinstating, 0", st, ra)
	}
	a.Trip(time.Second)
	if st := a.State(); st != Quarantined {
		t.Fatalf("state = %v after a trip during the trial, want Quarantined", st)
	}
	clk.advance(time.Second)
	a.Observe(time.Millisecond, false)
	if st := a.State(); st != Healthy {
		t.Fatalf("state = %v after one clean trial, want Healthy", st)
	}
}

func TestHealthiestRanking(t *testing.T) {
	s := testSet(newFakeClock(), nil)
	a := s.Endpoint("a")
	b := s.Endpoint("b")
	feed(a, 20, time.Millisecond, false)
	feed(b, 20, 10*time.Millisecond, false)
	ranked := s.Healthiest([]string{"b", "a", "c"})
	if ranked[0] != "a" {
		t.Fatalf("ranked = %v, want a first (fastest)", ranked)
	}
	// c is unknown: score 1, ties with a at the top by name order after a.
	if ranked[len(ranked)-1] != "b" {
		t.Fatalf("ranked = %v, want b last (slowest)", ranked)
	}
}

func TestProbePacing(t *testing.T) {
	clk := newFakeClock()
	s := testSet(clk, func(c *Config) { c.ProbeInterval = 100 * time.Millisecond })
	a := s.Endpoint("a")
	// A fresh tracker is not immediately due: probing at first sight
	// would block a new lane in a ping exactly when traffic arrives.
	if a.ProbeDue() {
		t.Fatal("fresh tracker should wait a full interval before probing")
	}
	clk.advance(150 * time.Millisecond)
	if !a.ProbeDue() {
		t.Fatal("first probe should be due after an idle interval")
	}
	if a.ProbeDue() {
		t.Fatal("second probe immediately after should not be due")
	}
	if w := a.ProbeWait(); w <= 0 || w > 100*time.Millisecond {
		t.Fatalf("ProbeWait = %v, want (0, 100ms]", w)
	}
	clk.advance(150 * time.Millisecond)
	if !a.ProbeDue() {
		t.Fatal("probe should be due after the interval")
	}
	a.ObserveProbe(time.Millisecond, false)
	if got := a.snapshot().Probes; got != 1 {
		t.Fatalf("probe count = %d, want 1", got)
	}
}

func TestDeadlines(t *testing.T) {
	s := testSet(newFakeClock(), nil)
	a := s.Endpoint("a")
	// No baseline yet: hedge uses the floor, op deadline passes the cap
	// through.
	if d := s.HedgeDeadline(5 * time.Millisecond); d != 5*time.Millisecond {
		t.Fatalf("HedgeDeadline floor = %v, want 5ms", d)
	}
	if d := s.OpDeadline(time.Millisecond, time.Second); d != time.Second {
		t.Fatalf("OpDeadline without samples = %v, want cap", d)
	}
	feed(a, 20, time.Millisecond, false)
	// Baseline 1ms, HedgeFactor 4 → 4ms (floor 1ms).
	if d := s.HedgeDeadline(time.Millisecond); d < 3*time.Millisecond || d > 6*time.Millisecond {
		t.Fatalf("HedgeDeadline = %v, want ~4ms", d)
	}
	// Healthy max 1ms × DeadlineFactor 4 = 4ms, floored at 2ms, capped 1s.
	if d := s.OpDeadline(2*time.Millisecond, time.Second); d < 2*time.Millisecond || d > 8*time.Millisecond {
		t.Fatalf("OpDeadline = %v, want ~4ms", d)
	}
	if d := s.OpDeadline(2*time.Millisecond, 3*time.Millisecond); d != 3*time.Millisecond {
		t.Fatalf("OpDeadline cap = %v, want 3ms", d)
	}
}

func TestSnapshot(t *testing.T) {
	s := testSet(newFakeClock(), nil)
	feed(s.Endpoint("a"), 10, 2*time.Millisecond, false)
	snap := s.Snapshot()
	eh, ok := snap["a"]
	if !ok {
		t.Fatal("snapshot missing endpoint a")
	}
	if eh.State != "healthy" || eh.Samples != 10 || eh.P50 != 2*time.Millisecond {
		t.Fatalf("snapshot = %+v", eh)
	}
	if eh.Quarantined {
		t.Fatal("healthy endpoint marked quarantined")
	}
}
