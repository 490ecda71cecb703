package runtime

import (
	"errors"
	"fmt"
	"testing"

	"genie/internal/backend"
	"genie/internal/transport"
)

// lossyPlacement routes every hop to one backend whose execs can be made
// to fail; its Repair crashes the backend (all resident state lost) and
// re-installs the weights, as a pool re-placing onto a fresh member
// would.
type lossyPlacement struct {
	r      *LLMRunner // installs weights on the backend
	srv    *backend.Server
	fail   func(call int) bool
	calls  int
	repair int
}

func (p *lossyPlacement) Route(bool, int) (Route, error) {
	return Route{Hi: p.r.Model.Cfg.Layers, EP: p, Repair: func(error) error {
		p.repair++
		p.srv.Crash()
		_, err := p.r.InstallModelWeights()
		return err
	}}, nil
}

func (p *lossyPlacement) Free(key string) error { return p.r.EP.Free(key) }

func (p *lossyPlacement) Exec(x *transport.Exec) (*transport.ExecOK, error) {
	p.calls++
	if p.fail(p.calls) {
		return nil, fmt.Errorf("injected loss on exec %d", p.calls)
	}
	return p.r.EP.Exec(x)
}

func newLossy(t *testing.T, fail func(call int) bool) (*LLMRunner, *lossyPlacement) {
	t.Helper()
	r, srv := newRunner(t, 21)
	p := &lossyPlacement{r: r, srv: srv, fail: fail}
	if _, err := r.InstallModelWeights(); err != nil {
		t.Fatal(err)
	}
	return NewPlacedRunner(LLMRunner{Model: r.Model, WeightsResident: true}, p, nil), p
}

// TestRepairResumesFromTokenLog: a repaired pass restarts from hop 0 —
// a prefill re-runs, a decode step first rebuilds the lost KV with one
// prefill over the token log — and the session emits the tokens of a
// fault-free run. Repairs are bounded, and a resume that does not
// reproduce the step's input token stops the session.
func TestRepairResumesFromTokenLog(t *testing.T) {
	const steps = 5
	ref, _ := newRunner(t, 21)
	want, err := ref.Generate(ModeSemAware, testPrompt, steps)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name         string
		failAt       int
		execs        int // execs that reached the backend
		wantRepaired int
	}{
		{"prefill", 1, steps, 1},           // the prefill simply re-runs
		{"step3", 4, steps + 1, 1},         // + one prefill over the log
		{"last_step", steps, steps + 1, 1}, // depth does not matter
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, p := newLossy(t, func(call int) bool { return call == tc.failAt })
			res, err := r.Generate(ModeSemAware, testPrompt, steps)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(res.Tokens) != fmt.Sprint(want.Tokens) {
				t.Fatalf("tokens %v across the repair, fault-free %v", res.Tokens, want.Tokens)
			}
			if p.repair != tc.wantRepaired || p.calls-1 != tc.execs {
				t.Errorf("%d repairs, %d execs reached the backend; want %d and %d", p.repair, p.calls-1, tc.wantRepaired, tc.execs)
			}
		})
	}

	t.Run("bounded", func(t *testing.T) {
		r, p := newLossy(t, func(call int) bool { return call > 1 })
		s, err := r.NewSession(ModeSemAware)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Prefill(testPrompt); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Step(); err == nil {
			t.Fatal("a step that always fails succeeded")
		}
		if p.repair != maxRepairs {
			t.Errorf("%d repairs before the error surfaced, want %d", p.repair, maxRepairs)
		}
	})

	t.Run("diverged", func(t *testing.T) {
		r, _ := newLossy(t, func(call int) bool { return call == 2 })
		s, err := r.NewSession(ModeSemAware)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Prefill(testPrompt); err != nil {
			t.Fatal(err)
		}
		s.next++ // the step's input is not what the log's prefill yields
		_, err = s.Step()
		var d *divergedError
		if !errors.As(err, &d) {
			t.Fatalf("step after a diverged resume: %v, want a divergedError", err)
		}
	})
}
