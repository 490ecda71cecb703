// Benchmarks regenerating every table and figure in the paper's
// evaluation (§4) plus DESIGN.md's ablations. Each benchmark reports the
// experiment's headline numbers as custom metrics so `go test -bench`
// output IS the reproduction record:
//
//	go test -bench=. -benchmem
//
// Paper-scale experiments (GPT-J 6B / A100 / 25 Gbps) run on the
// discrete-event simulator; correctness-plane benchmarks (pinning,
// resume recovery, transport) measure real execution.
package genie

import (
	"math/rand"
	"net"
	"strconv"
	"testing"

	"genie/internal/eval"
	"genie/internal/models"
	"genie/internal/nn"
	"genie/internal/runtime"
	"genie/internal/scheduler"
	"genie/internal/srg"
	"genie/internal/tensor"
	"genie/internal/transport"
)

// --- Table 1 ---

// BenchmarkTable1Workloads builds, annotates, and schedules all four
// Table-1 workload families, asserting each row's key optimization
// fires.
func BenchmarkTable1Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Table1()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Applied {
				b.Fatalf("%s: key optimization did not apply", r.Workload)
			}
		}
	}
}

// --- Table 2 ---

func reportPhase(b *testing.B, prefix string, r eval.PhaseRow) {
	b.ReportMetric(r.Latency.Seconds(), prefix+"_s")
	b.ReportMetric(float64(r.NetBytes)/1e6, prefix+"_MB")
	b.ReportMetric(r.Util()*100, prefix+"_util%")
}

// BenchmarkTable2Prefill regenerates the prefill block of Table 2.
func BenchmarkTable2Prefill(b *testing.B) {
	cfg := eval.PaperConfig()
	for _, mode := range []runtime.Mode{runtime.ModeLocal, runtime.ModeNaive, runtime.ModeDeltaKV, runtime.ModeSemAware} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			var r eval.Result
			for i := 0; i < b.N; i++ {
				r = cfg.Run(mode)
			}
			reportPhase(b, "prefill", r.Prefill)
		})
	}
}

// BenchmarkTable2Decode regenerates the decode block of Table 2.
func BenchmarkTable2Decode(b *testing.B) {
	cfg := eval.PaperConfig()
	for _, mode := range []runtime.Mode{runtime.ModeLocal, runtime.ModeNaive, runtime.ModeDeltaKV, runtime.ModeSemAware} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			var r eval.Result
			for i := 0; i < b.N; i++ {
				r = cfg.Run(mode)
			}
			reportPhase(b, "decode", r.Decode)
		})
	}
	// The paper-calibrated naive variant (amortized weight re-uploads).
	b.Run("naive_amortized", func(b *testing.B) {
		c := cfg
		c.NaiveReuploadPeriod = 6.5
		var r eval.Result
		for i := 0; i < b.N; i++ {
			r = c.Run(runtime.ModeNaive)
		}
		reportPhase(b, "decode", r.Decode)
	})
}

// --- Table 3 ---

// BenchmarkTable3 regenerates decode-latency scaling for N ∈
// {50,100,150,200}.
func BenchmarkTable3(b *testing.B) {
	cfg := eval.PaperConfig()
	for _, mode := range []runtime.Mode{runtime.ModeDeltaKV, runtime.ModeSemAware} {
		for _, n := range []int{50, 100, 150, 200} {
			mode, n := mode, n
			b.Run(mode.String()+"/N="+strconv.Itoa(n), func(b *testing.B) {
				c := cfg
				c.DecodeLen = n
				var r eval.Result
				for i := 0; i < b.N; i++ {
					r = c.Run(mode)
				}
				b.ReportMetric(r.Decode.Latency.Seconds(), "decode_s")
			})
		}
	}
}

// --- Fig. 1 ---

// BenchmarkFig1NarrowWaist quantifies the semantic translation gap: the
// SRG retains phases/residency/modality that a driver-level lowering
// erases.
func BenchmarkFig1NarrowWaist(b *testing.B) {
	var rows []eval.NarrowWaistResult
	for i := 0; i < b.N; i++ {
		rows = eval.Fig1NarrowWaist()
	}
	var srgFacts, driverFacts int
	for _, r := range rows {
		srgFacts += r.SRGPhases + r.SRGResidency + r.SRGModalities
	}
	b.ReportMetric(float64(srgFacts), "srg_semantic_facts")
	b.ReportMetric(float64(driverFacts), "driver_semantic_facts")
}

// --- Ablations ---

// BenchmarkAblationColocation measures the cost of losing stateful
// co-location (A1).
func BenchmarkAblationColocation(b *testing.B) {
	cfg := eval.PaperConfig()
	var r eval.ColocationResult
	for i := 0; i < b.N; i++ {
		r = eval.AblationColocation(cfg)
	}
	b.ReportMetric(float64(r.MovedLatency)/float64(r.ColocatedLatency), "slowdown_x")
	b.ReportMetric(float64(r.MovedBytes)/float64(r.ColocatedBytes), "traffic_x")
}

// BenchmarkAblationPipeline measures pipelined-CNN stream speedup (A2).
func BenchmarkAblationPipeline(b *testing.B) {
	cfg := eval.PaperConfig()
	for _, devs := range []int{2, 4} {
		devs := devs
		b.Run("devices="+strconv.Itoa(devs), func(b *testing.B) {
			var r eval.PipelineResult
			for i := 0; i < b.N; i++ {
				r = eval.AblationPipeline(cfg.Device, devs, 256)
			}
			b.ReportMetric(r.Speedup(), "speedup_x")
		})
	}
}

// BenchmarkAblationRecompute finds the congestion crossover where
// recomputation beats fetching (A3).
func BenchmarkAblationRecompute(b *testing.B) {
	cfg := eval.PaperConfig()
	congestion := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	var points []eval.RecomputePoint
	for i := 0; i < b.N; i++ {
		points = eval.AblationRecompute(cfg.Device, cfg.Link,
			scheduler.RDMAProfile, 64<<20, 3e11, congestion)
	}
	crossover := 1.0
	for _, p := range points {
		if p.ChoseRecomp {
			crossover = p.Congestion
			break
		}
	}
	b.ReportMetric(crossover, "crossover_congestion")
}

// BenchmarkAblationPinning measures proactive pinned allocation vs
// reactive pinning (A4) — real copies, real memory.
func BenchmarkAblationPinning(b *testing.B) {
	const tensorBytes = 1 << 20
	shape := tensor.Shape{tensorBytes / 4}

	b.Run("proactive", func(b *testing.B) {
		pool := transport.NewBufferPool(64)
		b.SetBytes(tensorBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Tensor is born in network-ready memory: zero extra copies.
			t := pool.NewTensor(tensor.F32, shape...)
			sink(t.Bytes())
			t.Release()
		}
	})
	b.Run("reactive", func(b *testing.B) {
		pool := transport.NewBufferPool(64)
		b.SetBytes(tensorBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Tensor allocated unpinned, then copied into pinned memory
			// at send time (the pin_memory() path the paper avoids).
			t := tensor.New(tensor.F32, shape...)
			p := pool.PinReactively(t)
			sink(p.Bytes())
			p.Release()
		}
	})
}

var sinkByte byte

func sink(b []byte) {
	if len(b) > 0 {
		sinkByte ^= b[0]
	}
}

// BenchmarkResumeRecovery measures real end-to-end recovery of a decode
// loop's state after a crash (A5) over a live TCP backend: re-install
// the weights, then one prefill over the token log (prompt ‖ emitted
// tokens) rebuilds every lost KV row.
func BenchmarkResumeRecovery(b *testing.B) {
	srv := newBenchServer(b)
	r := &runtime.LLMRunner{Model: models.NewGPT(rand.New(rand.NewSource(9)), models.TinyGPT), EP: dialBench(b, srv.addr)}
	prompt := []int64{1, 2, 3, 4}
	res, err := r.Generate(runtime.ModeSemAware, prompt, 4)
	if err != nil {
		b.Fatal(err)
	}
	tokenLog := append(append([]int64(nil), prompt...), res.Tokens...)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.srv.Crash()
		if _, err := r.InstallModelWeights(); err != nil {
			b.Fatal(err)
		}
		s, err := r.NewSession(runtime.ModeSemAware)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Prefill(tokenLog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGlobalBatching sweeps cross-tenant decode batch sizes (A6).
func BenchmarkGlobalBatching(b *testing.B) {
	cfg := eval.PaperConfig()
	var points []eval.BatchingPoint
	for i := 0; i < b.N; i++ {
		points = eval.AblationGlobalBatching(cfg.Device, models.GPTJ6B, 100,
			[]int{1, 2, 4, 8, 16, 32})
	}
	for _, p := range points {
		if p.Batch == 8 {
			b.ReportMetric(p.Speedup, "batch8_speedup_x")
		}
	}
}

// BenchmarkServingPolicies runs the A8 multi-request serving simulation
// across scheduling policies.
func BenchmarkServingPolicies(b *testing.B) {
	cfg := eval.DefaultServingConfig()
	for _, pol := range []eval.ServingPolicy{eval.ServeBlindFCFS, eval.ServePhaseAware, eval.ServePhaseAwareBatched} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			var r eval.ServingResult
			for i := 0; i < b.N; i++ {
				r = eval.RunServing(cfg, pol)
			}
			b.ReportMetric(r.Throughput, "req/s")
			b.ReportMetric(r.P95Lat.Seconds(), "p95_s")
			b.ReportMetric(r.P95TTFT.Seconds(), "p95_ttft_s")
		})
	}
}

// BenchmarkRPCOverheadSweep projects Table 2 onto a zero-copy transport
// (A7): orderings hold, the gap to local collapses.
func BenchmarkRPCOverheadSweep(b *testing.B) {
	for _, prof := range []scheduler.RPCProfile{scheduler.TensorPipeProfile, scheduler.RDMAProfile} {
		prof := prof
		b.Run(prof.Name, func(b *testing.B) {
			cfg := eval.PaperConfig()
			cfg.RPC = prof
			var sem eval.Result
			for i := 0; i < b.N; i++ {
				sem = cfg.Run(runtime.ModeSemAware)
			}
			b.ReportMetric(sem.Decode.Latency.Seconds(), "sem_decode_s")
			b.ReportMetric(sem.Decode.Util()*100, "sem_util%")
		})
	}
}

// --- real-transport microbenchmarks ---

// BenchmarkTransportExecRoundTrip measures one remote subgraph execution
// over a live TCP socket (per-op overhead of the real wire path).
func BenchmarkTransportExecRoundTrip(b *testing.B) {
	srv := newBenchServer(b)
	client := dialBench(b, srv.addr)
	if _, err := srv.srv.Upload("w", tensor.FromF32(tensor.Shape{64, 64}, make([]float32, 4096))); err != nil {
		b.Fatal(err)
	}

	bl := newBuilderAlias("bench")
	x := bl.Input("x", tensor.New(tensor.F32, 8, 64))
	w := bl.Param("w", tensor.New(tensor.F32, 64, 64))
	y := bl.MatMul(x, w)
	xt, _ := bl.InputData("x")
	ex := &transport.Exec{
		Graph: bl.Graph(),
		Binds: []transport.Binding{{Ref: "x", Inline: xt}},
		Want:  []srg.NodeID{y.ID()},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Exec(ex); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSRGEncode measures SRG wire-format serialization (shipped on
// every semantics-aware call).
func BenchmarkSRGEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := models.NewGPT(rng, models.TinyGPT)
	db, _ := m.BuildDecodeStep(1, 8, 8, emptyBenchCaches(m))
	g := db.Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c countWriter
		if err := g.Encode(&c); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(c.n)
	}
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// --- helpers ---

type builderAlias = Builder

func newBuilderAlias(name string) *builderAlias { return NewBuilder(name) }

type benchServer struct {
	srv  *Server
	addr string
}

func newBenchServer(b *testing.B) *benchServer {
	b.Helper()
	srv := NewServer(A100)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	go func() { _ = srv.Listen(l) }()
	return &benchServer{srv: srv, addr: l.Addr().String()}
}

func dialBench(b *testing.B, addr string) *Client {
	b.Helper()
	client, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { client.Close() })
	return client
}

func emptyBenchCaches(m *models.GPT) []*nn.KVCache {
	caches := make([]*nn.KVCache, m.Cfg.Layers)
	for i := range caches {
		caches[i] = &nn.KVCache{}
	}
	return caches
}

// BenchmarkAblationFusion measures the graph-shrink and modeled
// launch-overhead savings of elementwise fusion on a transformer capture.
func BenchmarkAblationFusion(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	m := models.NewGPT(rng, models.TinyGPT)
	bld, _ := m.BuildPrefill([]int64{1, 2, 3, 4, 5, 6, 7, 8})
	g := bld.Graph()
	var fusedNodes int
	var after int
	for i := 0; i < b.N; i++ {
		g2, fused := scheduler.FuseElementwise{}.Apply(g)
		fusedNodes = fused
		after = g2.Len()
	}
	_ = fusedNodes
	b.ReportMetric(float64(g.Len()), "nodes_before")
	b.ReportMetric(float64(after), "nodes_after")
	// Each swallowed interior node is one kernel launch saved.
	b.ReportMetric(float64(g.Len()-after), "launches_saved")
}

// BenchmarkLearnedLexicon measures §5's learned-recognizer training +
// held-out classification.
func BenchmarkLearnedLexicon(b *testing.B) {
	var res eval.LearnedLexiconResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.LearnedLexicon()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Accuracy()*100, "heldout_acc%")
}
