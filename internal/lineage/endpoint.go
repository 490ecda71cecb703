package lineage

import (
	"context"
	"fmt"
	"sync"

	"genie/internal/runtime"
	"genie/internal/tensor"
	"genie/internal/transport"
)

// TrackedEndpoint adapts a Manager to runtime.Endpoint: uploads and
// executions route through the manager's provenance tracking against a
// *current* named backend, and Failover atomically replays lost state
// onto a replacement and rebinds. Hand one to runtime.LLMRunner.EP and
// every session op becomes recoverable — the glue that puts §3.5's
// lineage story in the online path without the runtime package ever
// importing lineage (the dependency points the other way).
type TrackedEndpoint struct {
	m *Manager

	mu   sync.Mutex
	name string
	// rebinds counts completed Failover calls (visible in tests/stats).
	rebinds int
}

// TrackedEndpoint returns a runtime.Endpoint view of the manager bound
// to the named (registered) backend.
func (m *Manager) TrackedEndpoint(name string) (*TrackedEndpoint, error) {
	if _, ok := m.Endpoint(name); !ok {
		return nil, fmt.Errorf("lineage: unknown endpoint %q", name)
	}
	return &TrackedEndpoint{m: m, name: name}, nil
}

// Name returns the currently bound backend name.
func (t *TrackedEndpoint) Name() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.name
}

// Rebinds returns how many failovers this endpoint has completed.
func (t *TrackedEndpoint) Rebinds() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rebinds
}

// current resolves the bound name and its raw endpoint.
func (t *TrackedEndpoint) current() (string, runtime.Endpoint, error) {
	name := t.Name()
	ep, ok := t.m.Endpoint(name)
	if !ok {
		return "", nil, fmt.Errorf("lineage: unknown endpoint %q", name)
	}
	return name, ep, nil
}

// Upload installs data under key with upload provenance, so recovery
// can re-install it anywhere.
func (t *TrackedEndpoint) Upload(key string, data *tensor.Tensor) (*transport.UploadOK, error) {
	name := t.Name()
	if err := t.m.UploadTracked(name, key, data); err != nil {
		return nil, err
	}
	epoch, _ := t.m.EpochOf(key)
	return &transport.UploadOK{Epoch: epoch, Bytes: int64(data.NumBytes())}, nil
}

// Exec runs x with tracked provenance; binding epochs are corrected
// from lineage state, which is what lets a session resume with stale
// client-side epochs right after a failover.
func (t *TrackedEndpoint) Exec(x *transport.Exec) (*transport.ExecOK, error) {
	return t.ExecCtx(nil, x)
}

// ExecCtx is Exec bounded and traced by ctx (nil allowed), so a
// session's per-op deadline reaches the backend through the tracking.
func (t *TrackedEndpoint) ExecCtx(ctx context.Context, x *transport.Exec) (*transport.ExecOK, error) {
	return t.m.ExecTracked(ctx, t.Name(), x)
}

// Fetch reads a resident object from the bound backend.
func (t *TrackedEndpoint) Fetch(key string, epoch uint32) (*tensor.Tensor, error) {
	_, ep, err := t.current()
	if err != nil {
		return nil, err
	}
	return ep.Fetch(key, epoch)
}

// Free releases the object remotely and drops its lineage, so a later
// failover does not resurrect per-session state the session already
// released.
func (t *TrackedEndpoint) Free(key string) error {
	_, ep, err := t.current()
	if err != nil {
		return err
	}
	err = ep.Free(key)
	t.m.Forget(key)
	return err
}

// Stats reports the bound backend's counters.
func (t *TrackedEndpoint) Stats() (*transport.Stats, error) {
	_, ep, err := t.current()
	if err != nil {
		return nil, err
	}
	return ep.Stats()
}

// Failover replays every tracked object lost on the currently bound
// backend onto the named replacement and rebinds to it. It returns how
// many keys were regenerated. The replacement must be registered with
// the manager. Safe to call when nothing was lost (rebinds only).
func (t *TrackedEndpoint) Failover(onto string) (int, error) {
	t.mu.Lock()
	failed := t.name
	t.mu.Unlock()
	if _, ok := t.m.Endpoint(onto); !ok {
		return 0, fmt.Errorf("lineage: unknown replacement endpoint %q", onto)
	}
	n, err := t.m.RecoverFrom(failed, onto)
	if err != nil {
		return n, err
	}
	t.mu.Lock()
	t.name = onto
	t.rebinds++
	t.mu.Unlock()
	return n, nil
}
