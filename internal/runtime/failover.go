package runtime

import "genie/internal/transport"

// Failover configures endpoint-loss recovery for a runner's sessions.
// When a hop fails with a rebindable error — the conn died, the call
// timed out, or the server reports lost state — the session core's one
// repair loop (Session.forward) invokes Rebind, which must repair or
// replace whoever executes the hop (typically a lineage.TrackedEndpoint
// failing over to a replacement from the cluster pool, replaying
// exactly the lost KV chains; a Placement supplies its own per Route),
// and then reissues the hop. Deterministic replay makes the reissued
// hop bind bit-identical state, so recovered sessions continue their
// token sequences exactly.
type Failover struct {
	// Rebind repairs or replaces the runner's endpoint after err. A nil
	// return means the failed call may be reissued. Called serially per
	// execution attempt; implementations guard their own state.
	Rebind func(err error) error
	// MaxRebinds bounds rebind attempts per execution (default 1).
	MaxRebinds int
	// Rebindable classifies errors that justify a rebind. Default:
	// transient availability failures (transport.Retryable) and
	// server-alive state loss (transport.IsStateLoss). Application
	// errors and protocol violations are final.
	Rebindable func(error) bool
	// OnRebind, when set, observes each successful rebind (metrics).
	OnRebind func(cause error)
}

func (f *Failover) maxRebinds() int {
	if f.MaxRebinds > 0 {
		return f.MaxRebinds
	}
	return 1
}

func (f *Failover) rebindable(err error) bool {
	if f.Rebindable != nil {
		return f.Rebindable(err)
	}
	return transport.Retryable(err) || transport.IsStateLoss(err)
}
