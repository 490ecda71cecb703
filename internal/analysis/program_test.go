package analysis

import (
	"strings"
	"testing"
)

// progsumProgram loads the progsum fixture and builds a Program over it
// and everything it pulled in.
func progsumProgram(t *testing.T) *Program {
	t.Helper()
	_, loader := loadFixture(t, fixtureDir("internal", "progsum"))
	return BuildProgram(loader.Packages())
}

// summaryOf finds the summary of the progsum function with the given
// name.
func summaryOf(t *testing.T, prog *Program, name string) Summary {
	t.Helper()
	for _, fn := range prog.order {
		if fn.Name() != name {
			continue
		}
		if pkg := fn.Pkg(); pkg == nil || !strings.HasSuffix(pkg.Path(), "/progsum") {
			continue
		}
		sum, ok := prog.Summary(fn)
		if !ok {
			t.Fatalf("no summary for %s", name)
		}
		return sum
	}
	t.Fatalf("function %s not found in program", name)
	return Summary{}
}

func TestSummaryBlocksPropagation(t *testing.T) {
	prog := progsumProgram(t)
	for _, name := range []string{"parkDirect", "parkOnce", "parkTwice"} {
		sum := summaryOf(t, prog, name)
		if !sum.Blocks {
			t.Errorf("%s: Blocks = false, want true", name)
		}
		if sum.BlockReason != "WaitGroup.Wait" {
			t.Errorf("%s: BlockReason = %q, want WaitGroup.Wait", name, sum.BlockReason)
		}
	}
	if sum := summaryOf(t, prog, "pollOnly"); sum.Blocks {
		t.Errorf("pollOnly: Blocks = true (a select with default is a poll), reason %q", sum.BlockReason)
	}
}

func TestSummaryRemotePropagation(t *testing.T) {
	prog := progsumProgram(t)
	for _, name := range []string{"callWire", "callWireDeep"} {
		sum := summaryOf(t, prog, name)
		if !sum.Remote {
			t.Errorf("%s: Remote = false, want true", name)
		}
		if sum.RemoteName != "transport.Call" {
			t.Errorf("%s: RemoteName = %q, want transport.Call", name, sum.RemoteName)
		}
	}
}

func TestSummaryLoopsForever(t *testing.T) {
	prog := progsumProgram(t)
	if sum := summaryOf(t, prog, "spinForever"); !sum.LoopsForever {
		t.Error("spinForever: LoopsForever = false, want true")
	}
	if sum := summaryOf(t, prog, "spinWrapped"); !sum.LoopsForever {
		t.Error("spinWrapped: LoopsForever must propagate one call up")
	}
	if sum := summaryOf(t, prog, "loopWithExit"); sum.LoopsForever {
		t.Error("loopWithExit: LoopsForever = true, but the loop returns")
	}
}

func TestSummaryTimerLeak(t *testing.T) {
	prog := progsumProgram(t)
	if sum := summaryOf(t, prog, "leakTimer"); !sum.TimerLeak {
		t.Error("leakTimer: TimerLeak = false, want true")
	}
	if sum := summaryOf(t, prog, "stopTimer"); sum.TimerLeak {
		t.Errorf("stopTimer: TimerLeak = true (reason %q), but the timer is stopped", sum.TimerReason)
	}
}

func TestSummaryRebuildsPlan(t *testing.T) {
	prog := progsumProgram(t)
	if sum := summaryOf(t, prog, "swap"); !sum.RebuildsPlan {
		t.Error("swap: RebuildsPlan = false, want true")
	}
	if sum := summaryOf(t, prog, "swapDeep"); !sum.RebuildsPlan {
		t.Error("swapDeep: RebuildsPlan must propagate one call up")
	}
	if sum := summaryOf(t, prog, "callWire"); sum.RebuildsPlan {
		t.Error("callWire: RebuildsPlan = true, want false")
	}
}

func TestSummaryKVSinkParams(t *testing.T) {
	prog := progsumProgram(t)
	if sum := summaryOf(t, prog, "bindKey"); !sum.KVSinkParams[1] {
		t.Errorf("bindKey: KVSinkParams = %v, want param 1 marked", sum.KVSinkParams)
	}
	if sum := summaryOf(t, prog, "keepKey"); !sum.KVSinkParams[2] {
		t.Errorf("keepKey: KVSinkParams = %v, want param 2 marked", sum.KVSinkParams)
	}
	sum := summaryOf(t, prog, "bindViaHelper")
	if !sum.KVSinkParams[1] {
		t.Errorf("bindViaHelper: KVSinkParams = %v, want param 1 via argument flow", sum.KVSinkParams)
	}
	if sum.KVSinkParams[0] {
		t.Error("bindViaHelper: param 0 (the Exec) must not be marked as a key sink")
	}
}

func TestSummaryEndsSpanParams(t *testing.T) {
	prog := progsumProgram(t)
	if sum := summaryOf(t, prog, "endIt"); !sum.EndsSpanParams[0] {
		t.Errorf("endIt: EndsSpanParams = %v, want param 0 marked", sum.EndsSpanParams)
	}
	if sum := summaryOf(t, prog, "endViaHelper"); !sum.EndsSpanParams[0] {
		t.Errorf("endViaHelper: EndsSpanParams = %v, want param 0 via argument flow", sum.EndsSpanParams)
	}
	if sum := summaryOf(t, prog, "keepsOpen"); sum.EndsSpanParams[0] {
		t.Error("keepsOpen: EndsSpanParams marks param 0, but SetAttr does not end the span")
	}
}
