package runtime

import (
	"context"
	"errors"
	"fmt"
)

// ErrStopped reports a generation loop interrupted by Stop or context
// cancellation.
var ErrStopped = errors.New("runtime: generation stopped")

// Token is one streamed generation event. A terminal event carries Err
// (io-style: the channel closes after it); successful completion closes
// the channel without a terminal error event.
type Token struct {
	// Index is the decode step (0-based).
	Index int
	// ID is the generated token.
	ID int64
	// Err, when non-nil, terminates the stream (transport failure,
	// cancellation).
	Err error
}

// Stream generates tokens asynchronously, delivering each as soon as its
// decode step completes — the interactive-serving surface over the same
// mode implementations Generate uses. Cancelling ctx stops the loop at
// the next step boundary.
//
// The returned channel is closed when generation finishes, fails, or is
// cancelled.
func (r *LLMRunner) Stream(ctx context.Context, mode Mode, prompt []int64, steps int) <-chan Token {
	out := make(chan Token, 1)
	go func() {
		defer close(out)
		// A per-stream runner clone so OnToken and stop state never race
		// concurrent streams over the same model/endpoint.
		rr := *r
		idx := 0
		rr.OnToken = func(token int64) bool {
			select {
			case out <- Token{Index: idx, ID: token}:
				idx++
			case <-ctx.Done():
				return false
			}
			select {
			case <-ctx.Done():
				return false
			default:
				return true
			}
		}
		if _, err := rr.Generate(mode, prompt, steps); err != nil {
			if errors.Is(err, ErrStopped) && ctx.Err() != nil {
				err = fmt.Errorf("%w: %v", ErrStopped, ctx.Err())
			}
			select {
			case out <- Token{Index: idx, Err: err}:
			case <-ctx.Done():
			}
		}
	}()
	return out
}

// emit runs the OnToken hook (if any); a false return requests stop.
func (r *LLMRunner) emit(token int64) error {
	if r.OnToken == nil {
		return nil
	}
	if !r.OnToken(token) {
		return ErrStopped
	}
	return nil
}
