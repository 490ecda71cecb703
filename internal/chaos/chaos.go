// Package chaos provides deterministic, seedable fault injection for
// Genie's network datapath and backends — the failure-as-input
// discipline of §3.5's fault-tolerance story. A Plan decides, from a
// fixed seed, which operations to sabotage: frames dropped, corrupted,
// or delayed in flight; peers stalled; connections killed; backends
// crashed at exactly the Nth execution.
//
// Faults inject at two seams, chosen so no production code path knows
// chaos exists:
//
//   - Plan.WrapConn wraps any net.Conn before it is handed to
//     transport.NewConn, sabotaging reads and writes.
//   - Plan.ExecHook produces a backend.Server exec hook that crashes
//     the server at a chosen call number.
//
// Determinism: a Plan draws every decision from one seeded PRNG, so a
// fixed seed and a fixed operation order reproduce the same fault
// sequence. Set the seed explicitly in tests; FromEnv reads
// GENIE_CHAOS_SEED so bench runs are reproducible from the shell.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// EnvSeed is the environment variable FromEnv reads the seed from.
const EnvSeed = "GENIE_CHAOS_SEED"

// ErrInjectedKill is the error surfaced by a connection the plan chose
// to kill mid-operation. It wraps net.ErrClosed so the transport's
// classifier treats it like the peer reset it emulates (retryable).
var ErrInjectedKill = fmt.Errorf("chaos: injected connection kill: %w", net.ErrClosed)

// ErrInjectedCrash is the error an exec hook returns when the plan
// crashes the backend; transport.IsStateLoss matches its text once it
// crosses the wire as a RemoteError.
var ErrInjectedCrash = errors.New("chaos: injected backend crash")

// Config sets fault rates and deterministic trigger points. All
// probabilities are per-operation in [0,1]; zero values inject nothing.
type Config struct {
	// DropWriteProb swallows a write: the caller sees success, the peer
	// never sees the bytes — a silent partition that only per-call
	// deadlines can unwedge.
	DropWriteProb float64
	// CorruptWriteProb flips one byte of the written buffer in flight,
	// exercising the receiver's malformed-frame handling.
	CorruptWriteProb float64
	// DelayProb holds an operation for Delay before proceeding.
	DelayProb float64
	Delay     time.Duration
	// StallProb holds an operation for Stall — long enough to trip
	// per-call deadlines, emulating a hung peer that is alive but
	// unresponsive.
	StallProb float64
	Stall     time.Duration
	// KillProb closes the connection instead of performing the
	// operation, emulating a peer reset.
	KillProb float64
	// CrashExecAt, when > 0, crashes the backend on exactly that
	// (1-based) Exec call via the hook from ExecHook.
	CrashExecAt int64

	// Brownout modes — fail-slow degradation (DESIGN §13). Unlike the
	// probabilistic faults above, these never draw from the plan's PRNG:
	// they are scheduled by per-connection operation counts and byte
	// counts alone, so arming a brownout cannot shift the seeded fault
	// stream of an existing experiment.

	// ThrottleBytesPerSec paces the conn to at most this throughput by
	// charging each operation a sleep proportional to its bytes — a
	// degraded NIC or an oversubscribed ToR link. Zero = unthrottled.
	ThrottleBytesPerSec int64
	// PauseEvery stalls every Nth conn operation for PauseDur — the
	// periodic multi-millisecond freeze of a GC-pausing peer. Zero
	// disables.
	PauseEvery int64
	PauseDur   time.Duration
	// CreepStep inflates every operation's latency by one more CreepStep
	// than the last, capped at CreepMax — the slow drift of a failing
	// component that no threshold check catches until it is far gone.
	CreepStep time.Duration
	CreepMax  time.Duration
}

// Plan is a deterministic fault schedule. Create with NewPlan or
// FromEnv; share one Plan across the conns and backends of an
// experiment so all draws come from the same seeded stream.
type Plan struct {
	cfg  Config
	seed int64
	// disarmed suspends all injection while set; see SetActive.
	disarmed atomic.Bool

	mu       sync.Mutex
	rng      *rand.Rand
	injected map[string]int64
}

// NewPlan builds a plan drawing every fault decision from seed.
func NewPlan(seed int64, cfg Config) *Plan {
	if seed == 0 {
		seed = 1
	}
	return &Plan{
		cfg:      cfg,
		seed:     seed,
		rng:      rand.New(rand.NewSource(seed)),
		injected: make(map[string]int64),
	}
}

// FromEnv builds a plan seeded from GENIE_CHAOS_SEED (default 1 when
// unset or unparsable), so shell-driven runs are reproducible.
func FromEnv(cfg Config) *Plan {
	seed := int64(1)
	if v := os.Getenv(EnvSeed); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n != 0 {
			seed = n
		}
	}
	return NewPlan(seed, cfg)
}

// Seed returns the plan's seed (for experiment reports).
func (p *Plan) Seed() int64 { return p.seed }

// SetActive arms (true, the default) or disarms the plan. A disarmed
// plan injects nothing and draws nothing from its PRNG stream, so an
// experiment can set up cleanly — install weights, warm caches — and
// then arm faults for exactly the measured window without perturbing
// determinism.
func (p *Plan) SetActive(active bool) { p.disarmed.Store(!active) }

// Injected snapshots how many faults of each kind fired so far, keyed
// by kind: drop_write, corrupt_write, delay, stall, kill, crash_exec.
func (p *Plan) Injected() map[string]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int64, len(p.injected))
	for k, v := range p.injected {
		out[k] = v
	}
	return out
}

// count records one injected fault; callers hold p.mu or call via note.
func (p *Plan) note(kind string) {
	p.mu.Lock()
	p.injected[kind]++
	p.mu.Unlock()
}

// draw returns one uniform sample from the plan's stream.
func (p *Plan) draw() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rng.Float64()
}

// writeFault is the plan's decision for one write.
type writeFault int

const (
	writeOK writeFault = iota
	writeDrop
	writeCorrupt
	writeDelay
	writeStall
	writeKill
)

// decideWrite draws one decision for a write operation. Fault classes
// are checked in a fixed order against disjoint probability bands so a
// single draw decides, keeping the stream alignment independent of
// which faults are enabled.
func (p *Plan) decideWrite() writeFault {
	if p.disarmed.Load() {
		return writeOK
	}
	c := p.cfg
	total := c.DropWriteProb + c.CorruptWriteProb + c.DelayProb + c.StallProb + c.KillProb
	if total <= 0 {
		return writeOK
	}
	u := p.draw()
	switch {
	case u < c.DropWriteProb:
		return writeDrop
	case u < c.DropWriteProb+c.CorruptWriteProb:
		return writeCorrupt
	case u < c.DropWriteProb+c.CorruptWriteProb+c.DelayProb:
		return writeDelay
	case u < c.DropWriteProb+c.CorruptWriteProb+c.DelayProb+c.StallProb:
		return writeStall
	case u < total:
		return writeKill
	}
	return writeOK
}

// decideRead draws one decision for a read operation (reads can delay,
// stall, or kill; drop/corrupt are write-side faults).
func (p *Plan) decideRead() writeFault {
	if p.disarmed.Load() {
		return writeOK
	}
	c := p.cfg
	total := c.DelayProb + c.StallProb + c.KillProb
	if total <= 0 {
		return writeOK
	}
	u := p.draw()
	switch {
	case u < c.DelayProb:
		return writeDelay
	case u < c.DelayProb+c.StallProb:
		return writeStall
	case u < total:
		return writeKill
	}
	return writeOK
}

// ExecHook returns a backend exec hook that crashes the server (via
// crash) at the plan's CrashExecAt call and fails that exec with
// ErrInjectedCrash. Install with backend.Server.SetExecHook.
func (p *Plan) ExecHook(crash func()) func(call int64) error {
	return func(call int64) error {
		if !p.disarmed.Load() && p.cfg.CrashExecAt > 0 && call == p.cfg.CrashExecAt {
			p.note("crash_exec")
			crash()
			return fmt.Errorf("%w (exec %d)", ErrInjectedCrash, call)
		}
		return nil
	}
}

// WrapConn wraps c so the plan's conn-level faults apply to its reads
// and writes. Pass the result to transport.NewConn.
func (p *Plan) WrapConn(c net.Conn) net.Conn {
	return &faultConn{Conn: c, p: p}
}

// faultConn sabotages a net.Conn per its plan.
type faultConn struct {
	net.Conn
	p  *Plan
	bo brownoutState
}

func (f *faultConn) Write(b []byte) (int, error) {
	f.brownoutDelay()
	f.throttle(len(b))
	switch f.p.decideWrite() {
	case writeDrop:
		// The bytes vanish; the caller believes they were sent. The peer
		// hangs waiting — exactly the failure per-call deadlines exist for.
		f.p.note("drop_write")
		return len(b), nil
	case writeCorrupt:
		f.p.note("corrupt_write")
		cp := make([]byte, len(b))
		copy(cp, b)
		if len(cp) >= 4 {
			// Flip the top bit of the fourth byte: on a frame boundary that
			// is the length prefix's most significant byte, turning it into
			// an oversize length the receiver must reject as malformed.
			cp[3] ^= 0x80
		} else if len(cp) > 0 {
			cp[0] ^= 0x80
		}
		return f.Conn.Write(cp)
	case writeDelay:
		f.p.note("delay")
		time.Sleep(f.p.cfg.Delay)
	case writeStall:
		f.p.note("stall")
		time.Sleep(f.p.cfg.Stall)
	case writeKill:
		f.p.note("kill")
		_ = f.Conn.Close()
		return 0, ErrInjectedKill
	}
	return f.Conn.Write(b)
}

func (f *faultConn) Read(b []byte) (int, error) {
	f.brownoutDelay()
	switch f.p.decideRead() {
	case writeDelay:
		f.p.note("delay")
		time.Sleep(f.p.cfg.Delay)
	case writeStall:
		f.p.note("stall")
		time.Sleep(f.p.cfg.Stall)
	case writeKill:
		f.p.note("kill")
		_ = f.Conn.Close()
		return 0, ErrInjectedKill
	}
	n, err := f.Conn.Read(b)
	// Throttle on the bytes actually received (unknown before the read).
	f.throttle(n)
	return n, err
}
