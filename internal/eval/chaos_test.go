package eval

import (
	"context"
	"testing"
	"time"
)

// TestChaosServingRecovers drives the fault-tolerance benchmark at a
// small scale: the faulted run must still complete every request (the
// crash re-queues work to the survivor) with the baseline's tokens, and
// the no-fault baseline must be clean.
func TestChaosServingRecovers(t *testing.T) {
	cfg := DefaultChaosServingConfig()
	cfg.CrashExecAt = 3
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	r, err := RunChaosServing(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Baseline.Completed != int64(cfg.Requests) {
		t.Errorf("baseline completed %d/%d", r.Baseline.Completed, cfg.Requests)
	}
	if r.Faulted.Completed+r.Unavailable != int64(cfg.Requests) {
		t.Errorf("faulted run lost requests: completed %d + unavailable %d != %d",
			r.Faulted.Completed, r.Unavailable, cfg.Requests)
	}
	if r.Faulted.Completed == 0 {
		t.Error("no request survived the crash")
	}
	if !r.TokensMatch {
		t.Error("a request completed in the faulted run with tokens that differ from the baseline's")
	}
	if r.CrashAt <= 0 {
		t.Error("crash never fired")
	}
	if r.Injected["crash_exec"] != 1 {
		t.Errorf("injected = %v, want one crash_exec", r.Injected)
	}
}
