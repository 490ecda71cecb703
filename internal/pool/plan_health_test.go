package pool

import (
	"testing"
	"time"

	"genie/internal/device"
	"genie/internal/health"
)

// TestPlanPrefersHealthyMembers: with both members able to hold the
// whole model, first-fit packing must land every layer on the healthy
// one when the other is quarantined — regardless of offered order.
func TestPlanPrefersHealthyMembers(t *testing.T) {
	m := testGPT()
	cands := []Candidate{
		{Name: "sick", Spec: device.A100, Link: testLink, Quarantined: true},
		{Name: "ok", Spec: device.A100, Link: testLink, HealthScore: 0.9},
	}
	p, err := BuildPlan(m, cands, StrategyMemory, 1)
	if err != nil {
		t.Fatal(err)
	}
	if members := p.Members(); len(members) != 1 || members[0] != "ok" {
		t.Fatalf("placement uses %v, want all layers on the healthy member", members)
	}

	// A quarantined-only pool still plans: better a sick member than none.
	only := []Candidate{{Name: "sick", Spec: device.A100, Link: testLink, Quarantined: true}}
	if _, err := BuildPlan(m, only, StrategyMemory, 1); err != nil {
		t.Fatalf("quarantined-only pool must stay feasible: %v", err)
	}
}

// TestPlanEstimateFoldsHealth: the cost model must charge a degraded
// member 1/score on its kernel time, with the divisor floored so
// estimates stay finite.
func TestPlanEstimateFoldsHealth(t *testing.T) {
	m := testGPT()
	one := func(score float64, quarantined bool) time.Duration {
		p, err := BuildPlan(m, []Candidate{{
			Name: "a", Spec: device.A100, Link: testLink,
			HealthScore: score, Quarantined: quarantined,
		}}, StrategyMemory, 1)
		if err != nil {
			t.Fatal(err)
		}
		return p.estimate
	}
	healthy := one(0, false)
	halved := one(0.5, false)
	floored := one(0.000001, false)
	quarantined := one(0, true)
	if halved <= healthy {
		t.Errorf("score 0.5 estimate %v not above healthy %v", halved, healthy)
	}
	// Kernel time doubles; link terms don't, so the ratio is in (1, 2].
	if halved > 2*healthy {
		t.Errorf("score 0.5 estimate %v more than doubled healthy %v", halved, healthy)
	}
	if want := one(minPlanScore, false); floored != want {
		t.Errorf("near-zero score estimate %v, want floored-at-%v value %v", floored, minPlanScore, want)
	}
	if quarantined != floored {
		t.Errorf("quarantined estimate %v != floored estimate %v", quarantined, floored)
	}
}

// TestManagerCandidatesCarryHealth: a Manager wired with a health set
// surfaces member scores to the planner and the status document.
func TestManagerCandidatesCarryHealth(t *testing.T) {
	hs := health.NewSet(health.Config{})
	mgr, err := NewManager(Config{Model: testGPT(), Health: hs})
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := newPoolBackend(nil), newPoolBackend(nil)
	defer pa.stop()
	defer pb.stop()
	if err := mgr.Join("a", pa.ep, device.A100, testLink); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Join("b", pb.ep, device.A100, testLink); err != nil {
		t.Fatal(err)
	}

	// Brown out "a": fast baseline on b, 50× samples on a.
	for i := 0; i < 10; i++ {
		hs.Endpoint("b").Observe(time.Millisecond, false)
	}
	for i := 0; i < 100 && hs.Endpoint("a").State() != health.Quarantined; i++ {
		hs.Endpoint("a").Observe(50*time.Millisecond, false)
	}
	if hs.Endpoint("a").State() != health.Quarantined {
		t.Fatal("could not quarantine member a")
	}

	var sawSick, sawOK bool
	for _, c := range mgr.candidates("") {
		switch c.Name {
		case "a":
			sawSick = true
			if !c.Quarantined {
				t.Error("candidate a not marked quarantined")
			}
		case "b":
			sawOK = true
			if c.Quarantined || c.HealthScore <= 0 {
				t.Errorf("candidate b = %+v, want healthy with a positive score", c)
			}
		}
	}
	if !sawSick || !sawOK {
		t.Fatal("candidates missing a member")
	}
	for _, ms := range mgr.Status().Members {
		if ms.Name == "a" && ms.Health != "quarantined" {
			t.Errorf("status for a = %+v, want quarantined", ms)
		}
		if ms.Name == "b" && ms.Health != "healthy" {
			t.Errorf("status for b = %+v, want healthy", ms)
		}
	}
}
