package analysis

import "testing"

// One fixture package per analyzer, positives and negatives pinned by
// `// want` comments.

func TestCtxflowFixture(t *testing.T) {
	runWantTest(t, "ctxflow", fixtureDir("internal", "ctxflow"))
}

func TestLockscopeFixture(t *testing.T) {
	runWantTest(t, "lockscope", fixtureDir("internal", "lockscope"))
}

func TestGoleakFixture(t *testing.T) {
	runWantTest(t, "goleak", fixtureDir("internal", "serve", "goleakdata"))
}

func TestGoleakHedgeFixture(t *testing.T) {
	runWantTest(t, "goleak", fixtureDir("internal", "health", "hedgeleakdata"))
}

func TestErrcheckFixture(t *testing.T) {
	runWantTest(t, "errcheck", fixtureDir("internal", "errcheckdata"))
}

func TestTensormutFixture(t *testing.T) {
	runWantTest(t, "tensormut", fixtureDir("internal", "tmut"))
}

func TestRetrynakedFixture(t *testing.T) {
	runWantTest(t, "retrynaked", fixtureDir("internal", "retrynaked"))
}

func TestKvscopeFixture(t *testing.T) {
	runWantTest(t, "kvscope", fixtureDir("internal", "pool", "kvscopedata"))
}

func TestKvscopeOwnerFixture(t *testing.T) {
	runWantTest(t, "kvscope", fixtureDir("internal", "serve", "kvownerdata"))
}

func TestKvscopePrefixCacheFixture(t *testing.T) {
	runWantTest(t, "kvscope", fixtureDir("internal", "kvcache", "prefixkeydata"))
}

func TestPlanverFixture(t *testing.T) {
	runWantTest(t, "planver", fixtureDir("internal", "pool", "planverdata"))
}

func TestSpanbalanceFixture(t *testing.T) {
	runWantTest(t, "spanbalance", fixtureDir("internal", "serve", "spandata"))
}

func TestAtomicmixFixture(t *testing.T) {
	runWantTest(t, "atomicmix", fixtureDir("internal", "serve", "atomicmixdata"))
}

func TestTimerleakFixture(t *testing.T) {
	runWantTest(t, "timerleak", fixtureDir("internal", "serve", "timerleakdata"))
}

// TestFixtureScopeMapping pins the testdata/src path translation that
// makes fixture packages land inside each analyzer's scope.
func TestFixtureScopeMapping(t *testing.T) {
	pkg, _ := loadFixture(t, fixtureDir("internal", "serve", "goleakdata"))
	assertFixtureScoped(t, pkg, "genie/internal/serve/goleakdata")
}

// TestScopeGates verifies analyzers skip out-of-scope packages: goleak
// covers the goroutine-spawning layers (including simnet and eval, whose
// pumps must observe drain), and the plan/KV analyzers stay module-wide
// with ownership enforced inside the analyzer, not the gate.
func TestScopeGates(t *testing.T) {
	if !GoleakAnalyzer.AppliesTo("genie/internal/eval") {
		t.Error("goleak must apply to the eval harness")
	}
	if !GoleakAnalyzer.AppliesTo("genie/internal/simnet") {
		t.Error("goleak must apply to the simulator fabric")
	}
	if GoleakAnalyzer.AppliesTo("genie/internal/models") {
		t.Error("goleak should not apply to genie/internal/models")
	}
	if !GoleakAnalyzer.AppliesTo("genie/internal/serve") {
		t.Error("goleak must apply to genie/internal/serve")
	}
	if !GoleakAnalyzer.AppliesTo("genie/internal/compute") {
		t.Error("goleak must apply to the kernel worker pool")
	}
	if !GoleakAnalyzer.AppliesTo("genie/internal/obs") {
		t.Error("goleak must apply to the trace recorder")
	}
	if !CtxflowAnalyzer.AppliesTo("genie/internal/obs") {
		t.Error("ctxflow must apply to the observability package")
	}
	if CtxflowAnalyzer.AppliesTo("genie/cmd/genie-bench") {
		t.Error("ctxflow must not apply to binaries")
	}
	if TensormutAnalyzer.AppliesTo("genie/internal/nn") {
		t.Error("tensormut must not apply to the nn kernels")
	}
	if !TensormutAnalyzer.AppliesTo("genie/internal/serve") {
		t.Error("tensormut must apply outside the kernel packages")
	}
	if !GoleakAnalyzer.AppliesTo("genie/internal/chaos") {
		t.Error("goleak must apply to the fault injector")
	}
	if !GoleakAnalyzer.AppliesTo("genie/internal/pool") {
		t.Error("goleak must apply to the backend pool")
	}
	if !GoleakAnalyzer.AppliesTo("genie/internal/kvcache") {
		t.Error("goleak must apply to the prefix cache")
	}
	if !GoleakAnalyzer.AppliesTo("genie/internal/health") {
		t.Error("goleak must apply to the health scorer's probe and hedge paths")
	}
	if !kvOwnerScope("genie/internal/kvcache") {
		t.Error("kvcache is a KV plan owner — its strategies place prefix KV on backends")
	}
	if kvOwnerScope("genie/internal/serve") {
		t.Error("serve must not be a KV plan owner")
	}
	if !CtxflowAnalyzer.AppliesTo("genie/internal/chaos") {
		t.Error("ctxflow must apply to the fault injector")
	}
	if !RetrynakedAnalyzer.AppliesTo("genie/internal/pool") {
		t.Error("retrynaked must apply to internal packages")
	}
	if RetrynakedAnalyzer.AppliesTo("genie/cmd/genie-bench") {
		t.Error("retrynaked must not apply to binaries")
	}
	if !KvscopeAnalyzer.AppliesTo("genie/internal/serve") {
		t.Error("kvscope must apply everywhere internal — ownership is judged inside the analyzer")
	}
	if !PlanverAnalyzer.AppliesTo("genie/internal/pool") {
		t.Error("planver must apply to the pool")
	}
	if !SpanbalanceAnalyzer.AppliesTo("genie/internal/runtime") {
		t.Error("spanbalance must apply to the runtime")
	}
	if SpanbalanceAnalyzer.AppliesTo("genie/cmd/genie-lint") {
		t.Error("spanbalance must not apply to binaries")
	}
	if !TimerleakAnalyzer.AppliesTo("genie/internal/transport") {
		t.Error("timerleak must apply to the transport retry paths")
	}
}
