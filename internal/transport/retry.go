package transport

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// ErrClass buckets transport errors by the correct reaction to them.
type ErrClass int

const (
	// ClassOK is a nil error.
	ClassOK ErrClass = iota
	// ClassRetryable marks transient availability failures — timeouts,
	// connection resets, closed conns, refused dials. The operation may
	// succeed if reissued (after redial) or sent to a replica.
	ClassRetryable
	// ClassRemote marks an application-level error reported by a live,
	// protocol-conformant server. Blind retry won't help; the request
	// itself (or the server's state) is the problem.
	ClassRemote
	// ClassFatal marks protocol violations — malformed frames, attestation
	// mismatches, cancelled contexts. Retrying is wrong: the stream or the
	// request can no longer be trusted.
	ClassFatal
)

// String returns the class label used in metrics and logs.
func (c ErrClass) String() string {
	switch c {
	case ClassOK:
		return "ok"
	case ClassRetryable:
		return "retryable"
	case ClassRemote:
		return "remote"
	case ClassFatal:
		return "fatal"
	}
	return "unknown"
}

// Classify maps an error from a transport operation to its class.
// Deadline expiry is retryable (the per-call budget ran out; the peer
// may be slow, not gone), cancellation is fatal (the caller gave up),
// frame corruption is fatal (stream desync), and RemoteError is its own
// class so callers can distinguish "server said no" from "server gone".
func Classify(err error) ErrClass {
	if err == nil {
		return ClassOK
	}
	if errors.Is(err, context.Canceled) {
		return ClassFatal
	}
	if IsFrameError(err) {
		return ClassFatal
	}
	if IsRemote(err) {
		return ClassRemote
	}
	if errors.Is(err, context.DeadlineExceeded) || IsClosed(err) {
		return ClassRetryable
	}
	return ClassFatal
}

// Retryable reports whether err is a transient availability failure
// worth retrying (on a fresh conn or a replica).
func Retryable(err error) bool { return Classify(err) == ClassRetryable }

// IsRemote reports whether err is an application error from the server.
func IsRemote(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}

// IsStateLoss reports whether err means the server is alive but the
// state this client depended on is gone — a stale epoch after a crash,
// a missing resident object, or an injected backend crash. These are
// not retryable in place: the caller must rebuild the lost state (a
// session re-prefills its token log) or move to a replica that has it.
// Matching is on the server's error text, the same pragmatic contract
// IsClosed uses for the net stack's unexported errors.
func IsStateLoss(err error) bool {
	var re *RemoteError
	if !errors.As(err, &re) {
		return false
	}
	return strings.Contains(re.Msg, "stale handle") ||
		strings.Contains(re.Msg, "no resident object") ||
		strings.Contains(re.Msg, "injected backend crash")
}

// Retrier reissues an operation with exponential backoff and jitter.
// The zero value is usable: 4 attempts, 5ms base doubling to a 500ms
// cap, ±20% jitter from a fixed seed so test and bench runs are
// reproducible. Only Retryable-classed errors are retried by default.
//
//lint:ignore deadexport ROADMAP item 15 redials dead conns with this backoff
type Retrier struct {
	// Max is the total number of attempts, including the first
	// (default 4; 1 disables retry).
	Max int
	// Base is the delay before the first retry; each subsequent retry
	// doubles it (default 5ms).
	Base time.Duration
	// Cap bounds the grown delay (default 500ms).
	Cap time.Duration
	// Jitter is the ± fraction applied to each delay (default 0.2).
	Jitter float64
	// Seed fixes the jitter stream for reproducibility (default 1).
	Seed int64
	// Retryable overrides the retry predicate (default Retryable).
	Retryable func(error) bool
	// OnRetry, when set, observes each retry before its backoff sleep.
	OnRetry func(attempt int, delay time.Duration, err error)

	mu  sync.Mutex
	rng *rand.Rand
}

// Do runs op until it succeeds, exhausts the attempt budget, fails with
// a non-retryable error, or ctx is done. The backoff sleep itself is
// interruptible by ctx. The last operation error is returned.
func (r *Retrier) Do(ctx context.Context, op func(ctx context.Context) error) error {
	max := r.Max
	if max <= 0 {
		max = 4
	}
	retryable := r.Retryable
	if retryable == nil {
		retryable = Retryable
	}
	var err error
	for attempt := 1; attempt <= max; attempt++ {
		if ctx != nil {
			if cerr := ctx.Err(); cerr != nil {
				if err != nil {
					return err
				}
				return cerr
			}
		}
		if err = op(ctx); err == nil {
			return nil
		}
		if attempt == max || !retryable(err) {
			return err
		}
		d := r.backoff(attempt)
		if r.OnRetry != nil {
			r.OnRetry(attempt, d, err)
		}
		if !sleepCtx(ctx, d) {
			return err
		}
	}
	return err
}

// backoff computes the jittered exponential delay after attempt (1-based).
func (r *Retrier) backoff(attempt int) time.Duration {
	base := r.Base
	if base <= 0 {
		base = 5 * time.Millisecond
	}
	cap := r.Cap
	if cap <= 0 {
		cap = 500 * time.Millisecond
	}
	d := base
	for i := 1; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	jitter := r.Jitter
	if jitter == 0 {
		jitter = 0.2
	}
	if jitter > 0 {
		r.mu.Lock()
		if r.rng == nil {
			seed := r.Seed
			if seed == 0 {
				seed = 1
			}
			r.rng = rand.New(rand.NewSource(seed))
		}
		u := r.rng.Float64()
		r.mu.Unlock()
		d = time.Duration(float64(d) * (1 + jitter*(2*u-1)))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// sleepCtx sleeps for d, returning false if ctx finished first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	if ctx == nil {
		time.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
