// Command genie-bench regenerates every table and figure in the paper's
// evaluation plus the ablation experiments from DESIGN.md, printing the
// same rows the paper reports.
//
// Usage:
//
//	genie-bench                 # everything
//	genie-bench -table 2        # just Table 2
//	genie-bench -table 3 -rpc rdma
//	genie-bench -ablations      # A1..A7
//	genie-bench -naive-reupload 6.5   # paper-calibrated naive mode
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	goruntime "runtime"
	"strings"
	"time"

	"genie/internal/backend"
	"genie/internal/cluster"
	"genie/internal/compute"
	"genie/internal/device"
	"genie/internal/eval"
	"genie/internal/models"
	"genie/internal/obs"
	"genie/internal/pool"
	"genie/internal/runtime"
	"genie/internal/scheduler"
	"genie/internal/tensor"
	"genie/internal/tensor/ops"
	"genie/internal/transport"
)

func main() {
	table := flag.Int("table", 0, "print only this table (1, 2, or 3); 0 = all")
	ablations := flag.Bool("ablations", false, "print only the ablation experiments")
	kernels := flag.Bool("kernels", false, "print only the host kernel throughput section")
	obsSection := flag.Bool("obs", false, "print only the observability section (tracing cost, span + metrics demo)")
	chaosSection := flag.Bool("chaos", false,
		"print only the fault-tolerance section (goodput under a backend crash vs no-fault baseline; GENIE_CHAOS_SEED pins the schedule)")
	brownoutSection := flag.Bool("brownout", false,
		"print only the fail-slow section (p99 TTFT and goodput with one lane browned out "+
			"~50x: health off vs health scoring vs hedged prefill)")
	shardSection := flag.Bool("shard-report", false,
		"print only the sharded-placement section (per-op shard report + live pool sharding at 1/2/4 ways)")
	wireSection := flag.Bool("wire", false,
		"print only the raw-speed tier section (int8/f16 decode kernels vs f32; "+
			"bytes-on-wire with and without negotiated dedup+delta+compression)")
	prefixSection := flag.Bool("prefix", false,
		"print only the prefix-cache section (TTFT/tokens-per-sec at 0/50/90% "+
			"prefix share, cache on/off; split prefill/decode ΔKV bytes on wire)")
	rpc := flag.String("rpc", "tensorpipe", "transport profile: tensorpipe | rdma")
	naiveReupload := flag.Float64("naive-reupload", 1,
		"calls per weight re-upload in Naive mode (1 = paper's stated policy; ~6.5 matches its measured decode)")
	flag.Parse()

	cfg := eval.PaperConfig()
	cfg.NaiveReuploadPeriod = *naiveReupload
	switch *rpc {
	case "tensorpipe":
		cfg.RPC = scheduler.TensorPipeProfile
	case "rdma":
		cfg.RPC = scheduler.RDMAProfile
	default:
		fmt.Fprintf(os.Stderr, "unknown -rpc %q\n", *rpc)
		os.Exit(2)
	}

	all := *table == 0 && !*ablations && !*kernels && !*obsSection && !*chaosSection && !*brownoutSection && !*shardSection && !*wireSection && !*prefixSection
	if all || *kernels {
		printKernels()
	}
	if all || *wireSection {
		printWire()
	}
	if all || *prefixSection {
		printPrefix()
	}
	if all || *obsSection {
		printObs()
	}
	if all || *chaosSection {
		printChaos()
	}
	if all || *brownoutSection {
		printBrownout()
	}
	if all || *shardSection {
		printShardReport()
	}
	if all || *table == 1 {
		printTable1()
	}
	if all || *table == 2 {
		printTable2(cfg)
	}
	if all || *table == 3 {
		printTable3(cfg)
	}
	if all {
		printFig1()
	}
	if all || *ablations {
		printAblations(cfg)
	}
}

// printKernels reports real host-kernel throughput: the tiled matmul at
// serial vs full pool width, and end-to-end local decode tokens/sec.
// These are wall-clock numbers for the Go kernels underneath every mode
// — distinct from the tables' roofline-modeled GPU times, which this
// pool does not influence.
func printKernels() {
	fmt.Printf("== K: host kernel throughput (%d-wide pool, GOMAXPROCS=%d) ==\n",
		compute.Workers(), goruntime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{256, 512} {
		a, b := tensor.New(tensor.F32, n, n), tensor.New(tensor.F32, n, n)
		a.RandN(rng, 1)
		b.RandN(rng, 1)
		serial := timeKernel(1, a, b)
		pooled := timeKernel(0, a, b)
		gflops := 2 * float64(n) * float64(n) * float64(n) / 1e9
		fmt.Printf("matmul %4dx%[1]dx%[1]d: serial %8.2fms (%6.2f GFLOP/s) | pooled %8.2fms (%6.2f GFLOP/s) | %.2fx\n",
			n, serial.Seconds()*1e3, gflops/serial.Seconds(),
			pooled.Seconds()*1e3, gflops/pooled.Seconds(),
			float64(serial)/float64(pooled))
	}
	r := &runtime.LLMRunner{Model: models.NewGPT(rng, models.TinyGPT)}
	start := time.Now()
	const decodeTokens = 40
	if _, err := r.Generate(runtime.ModeLocal, []int64{1, 2, 3, 4}, decodeTokens); err != nil {
		log.Fatal(err)
	}
	el := time.Since(start)
	fmt.Printf("local decode (TinyGPT): %d tokens in %v = %.0f tok/s\n\n",
		decodeTokens, el.Round(time.Microsecond), decodeTokens/el.Seconds())
}

// printObs measures the tracing tax on the decode hot path live
// (untraced vs traced session, best of 3 runs), then shows what the
// subsystem produces: the span ring's contents and a slice of the
// Prometheus exposition — the same data the gateway serves at
// /debug/trace and /metrics.
func printObs() {
	fmt.Println("== O: observability (internal/obs) — tracing cost + span/metrics demo ==")
	r := &runtime.LLMRunner{Model: models.NewGPT(rand.New(rand.NewSource(9)), models.TinyGPT)}
	const steps = 200
	timeDecode(r, nil, steps/4) // warm caches off the clock
	untraced := timeDecode(r, nil, steps)

	tr := obs.NewTracer(obs.TracerConfig{Proc: "bench", Capacity: 2048})
	defer tr.Stop()
	ctx, root := tr.StartRoot(context.Background(), "bench.decode")
	traced := timeDecode(r, ctx, steps)
	root.End()

	perU := untraced / steps
	perT := traced / steps
	fmt.Printf("decode step: untraced %v | traced %v | delta %+.1f%% (contract: <5%%, DESIGN.md §8)\n",
		perU.Round(time.Microsecond), perT.Round(time.Microsecond),
		100*(float64(traced)-float64(untraced))/float64(untraced))

	spans := tr.Snapshot()
	fmt.Printf("span ring: %d spans recorded, %d dropped; tail:\n", len(spans), tr.Dropped())
	for i := len(spans) - 3; i < len(spans); i++ {
		if i < 0 {
			continue
		}
		s := spans[i]
		fmt.Printf("  %-16s %10v  trace=%016x parent=%016x\n",
			s.Name, s.Dur.Round(time.Microsecond), s.Trace, s.Parent)
	}

	reg := obs.NewRegistry()
	reg.Counter("genie_bench_decode_steps_total", "decode steps timed above").Add(2 * steps)
	reg.Histogram("genie_bench_decode_step_seconds", "per-step decode latency", nil).
		ObserveDuration(perT)
	var buf strings.Builder
	_ = reg.WritePrometheus(&buf) // strings.Builder cannot fail
	fmt.Println("metrics exposition (the gateway serves this at /metrics):")
	for _, line := range strings.SplitN(buf.String(), "\n", 8)[:7] {
		fmt.Printf("  %s\n", line)
	}
	fmt.Println()
}

// timeDecode measures steps decode steps through a session carrying ctx
// (nil = untraced), best of 3 runs, rolling sessions over before the
// tiny model's context cap.
func timeDecode(r *runtime.LLMRunner, ctx context.Context, steps int) time.Duration {
	prompt := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < 3; rep++ {
		var el time.Duration
		hist := 0
		var s *runtime.Session
		for i := 0; i < steps; i++ {
			if s == nil || hist+1 >= models.TinyGPT.MaxSeq {
				var err error
				if s, err = r.NewScopedSessionCtx(ctx, runtime.ModeLocal, ""); err != nil {
					log.Fatal(err)
				}
				if _, err = s.Prefill(prompt); err != nil {
					log.Fatal(err)
				}
				hist = len(prompt) + 1
			}
			start := time.Now()
			if _, err := s.Step(); err != nil {
				log.Fatal(err)
			}
			el += time.Since(start)
			hist++
		}
		if el < best {
			best = el
		}
	}
	return best
}

// timeKernel times one MatMul at the given pool width (0 = default
// width), taking the best of three runs.
func timeKernel(width int, a, b *tensor.Tensor) time.Duration {
	p := compute.NewPool(width)
	old := compute.SetDefault(p)
	defer func() {
		compute.SetDefault(old)
		p.Stop()
	}()
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		out, err := ops.MatMul(a, b)
		if err != nil {
			log.Fatal(err)
		}
		if el := time.Since(start); el < best {
			best = el
		}
		out.Release()
	}
	return best
}

// printChaos measures serving goodput under a mid-run backend crash:
// the same open-loop load runs fault-free, then with backend 0 wiped at
// its 40th exec call. Requests in flight on the dead backend re-queue
// to the survivor and regenerate; the section reports what that costs.
func printChaos() {
	fmt.Println("== C: fault tolerance (backend crash mid-run vs no-fault baseline) ==")
	r, err := eval.RunChaosServing(context.Background(), eval.DefaultChaosServingConfig())
	if err != nil {
		fmt.Printf("chaos serving failed: %v\n\n", err)
		return
	}
	fmt.Printf("chaos seed %d (replay: GENIE_CHAOS_SEED=%d); injected: %v\n",
		r.ChaosSeed, r.ChaosSeed, r.Injected)
	fmt.Printf("%-10s %9s %6s %6s %9s %11s %11s %10s\n",
		"run", "completed", "requeue", "shed", "tok/s", "p95 lat", "p95 TTFT", "makespan")
	fmt.Printf("%-10s %6d/%-2d %7s %6d %9.0f %11v %11v %10v\n",
		"no-fault", r.Baseline.Completed, r.Baseline.Requests, "-", r.Baseline.Shed,
		r.Baseline.TokensPerSec, r.Baseline.P95Lat.Round(time.Microsecond),
		r.Baseline.P95TTFT.Round(time.Microsecond), r.Baseline.Makespan.Round(time.Microsecond))
	fmt.Printf("%-10s %6d/%-2d %7d %6d %9.0f %11v %11v %10v\n",
		"crash", r.Faulted.Completed, r.Faulted.Requests, r.Requeued,
		r.Faulted.Shed+r.Unavailable, r.Faulted.TokensPerSec,
		r.Faulted.P95Lat.Round(time.Microsecond), r.Faulted.P95TTFT.Round(time.Microsecond),
		r.Faulted.Makespan.Round(time.Microsecond))
	if r.CrashAt > 0 {
		fmt.Printf("backend b0 crashed at +%v; first post-crash completion %v later\n",
			r.CrashAt.Round(time.Microsecond), r.Recovery.Round(time.Microsecond))
	} else {
		fmt.Println("backend b0 never reached the crash point (run too short for the schedule)")
	}
	fmt.Println("(goodput = completed requests; re-queued work resumes on the survivor")
	fmt.Println(" with one prefill over prompt + delivered tokens, so the crash costs one")
	fmt.Println(" prefill per victim, not correctness — CPU wall-clock numbers, not the")
	fmt.Println(" paper's modeled GPU times)")
	fmt.Println()
}

// printBrownout measures serving under a fail-slow lane: one backend's
// conn pauses on every operation (the ~50x brownout), and the same
// open-loop load replays with nothing defending, with health scoring
// quarantining the lane, and with hedged prefill racing a spare. Tokens
// are checked bit-for-bit against the healthy run in every arrangement.
func printBrownout() {
	fmt.Println("== B: fail-slow tolerance (one lane browned out ~50x) ==")
	r, err := eval.RunBrownoutServing(context.Background(), eval.DefaultBrownoutServingConfig())
	if err != nil {
		fmt.Printf("brownout serving failed: %v\n\n", err)
		return
	}
	fmt.Printf("brownout: lane b0 pauses %v per conn op (seed %d)\n", r.PauseDur, r.ChaosSeed)
	fmt.Printf("%-12s %9s %7s %10s %10s %9s %10s %7s %6s\n",
		"run", "completed", "requeue", "p50 TTFT", "p99 TTFT", "tok/s", "makespan", "tokens", "notes")
	row := func(b eval.BrownoutRun, notes string) {
		match := "match"
		if !b.TokensMatch {
			match = "DIFFER"
		}
		fmt.Printf("%-12s %6d/%-2d %7d %10v %10v %9.0f %10v %7s %s\n",
			b.Name, b.Completed, b.Completed+b.Failed, b.Requeued,
			b.P50TTFT.Round(10*time.Microsecond), b.P99TTFT.Round(10*time.Microsecond),
			b.Goodput, b.Makespan.Round(time.Millisecond), match, notes)
	}
	row(r.Healthy, "-")
	row(r.HealthOff, "nothing defends; slow lane serves at crawl")
	row(r.HealthOn, fmt.Sprintf("%d lane(s) demoted (%d quarantined)",
		r.HealthOn.Demoted, r.HealthOn.Quarantined))
	row(r.Hedged, fmt.Sprintf("%d prefills hedged, %d backup wins", r.Hedged.Hedged, r.Hedged.HedgeWins))
	fmt.Printf("p99 TTFT vs healthy: health off %.1fx | health on %.1fx | hedged %.1fx\n",
		float64(r.HealthOff.P99TTFT)/float64(r.Healthy.P99TTFT),
		float64(r.HealthOn.P99TTFT)/float64(r.Healthy.P99TTFT),
		float64(r.Hedged.P99TTFT)/float64(r.Healthy.P99TTFT))
	fmt.Println("(a browned lane fails no request in any arrangement — fail-slow never")
	fmt.Println(" becomes fail-stop for the client; health scoring reclaims latency by")
	fmt.Println(" quarantining the lane, hedged prefill by racing a spare per request)")
	fmt.Println()
}

// printShardReport covers both sharding layers: the per-op scheduler
// placement (seed policy, ShardReport's per-shard bytes and cut edges)
// and the pool layer's live sharded serving at 1/2/4 ways — real
// backends over net.Pipe, measured tokens/sec, cross-shard activation
// traffic, and the wall-clock cost of re-placing shards when a member
// leaves mid-service.
func printShardReport() {
	fmt.Println("== S: sharded placement (scheduler per-op report + live pool) ==")

	// Per-op shard report: the prefill graph on a pool whose members
	// each hold 2/3 of the model, forcing a memory-driven split.
	rng := rand.New(rand.NewSource(5))
	gpt := models.NewGPT(rng, models.TinyGPT)
	b, _ := gpt.BuildPrefill([]int64{3, 14, 15, 9, 2, 6})
	cs := cluster.NewState()
	small := device.A100
	small.MemBytes = gpt.Cfg.WeightBytes() * 2 / 3
	for i := 0; i < 3; i++ {
		if err := cs.AddAccelerator(&cluster.Accelerator{
			ID:   cluster.AcceleratorID(fmt.Sprint("gpu", i)),
			Spec: small,
			Link: cluster.Link{Bandwidth: 25e9 / 8, RTT: 200 * time.Microsecond},
		}); err != nil {
			log.Fatal(err)
		}
	}
	plan, err := scheduler.Schedule(b.Graph(), cs, scheduler.SemanticsAware{},
		scheduler.NewCostModel(scheduler.RDMAProfile))
	if err != nil {
		log.Fatal(err)
	}
	report := scheduler.ShardReport(plan)
	fmt.Printf("per-op placement (TinyGPT prefill, member cap %d B of %d B weights):\n",
		small.MemBytes, gpt.Cfg.WeightBytes())
	for i := 0; i < 3; i++ {
		id := cluster.AcceleratorID(fmt.Sprint("gpu", i))
		st := report.PerDevice[id]
		fmt.Printf("  %-6s %3d compute nodes, %6d weight bytes\n", id, st.Ops, st.WeightBytes)
	}
	fmt.Printf("  cut: %d edges, %d activation bytes\n\n", report.CutEdges, report.CutBytes)

	// Live pool: a 4-layer tiny model pipelined across 1, 2, and 4
	// members, plus a hot spare that absorbs a mid-service departure.
	cfg4 := models.GPTConfig{
		Layers: 4, Dim: 32, Heads: 4, Hidden: 64,
		Vocab: 96, MaxSeq: 64, WeightBytesPerParam: 4,
	}
	fmt.Printf("live pool (4-layer tiny GPT, %d B weights, pipeline strategy):\n", cfg4.WeightBytes())
	fmt.Printf("%-6s %8s %10s %16s %16s\n", "ways", "tok/s", "shards", "cross-shard B", "leave rebuild")
	for _, ways := range []int{1, 2, 4} {
		row, err := livePoolRow(cfg4, ways)
		if err != nil {
			fmt.Printf("%-6d pool failed: %v\n", ways, err)
			continue
		}
		fmt.Printf("%-6d %8.0f %10d %16d %16v\n",
			ways, row.tokensPerSec, row.shards, row.crossBytes, row.rebuild.Round(10*time.Microsecond))
	}
	fmt.Println("(host wall-clock over net.Pipe backends; cross-shard B is activation")
	fmt.Println(" traffic for the whole run, leave rebuild is Leave() wall time incl.")
	fmt.Println(" re-installing the departed member's weights on the spare; sessions rebuild their own KV)")
	fmt.Println()
}

type poolRow struct {
	tokensPerSec float64
	shards       int
	crossBytes   int64
	rebuild      time.Duration
}

// livePoolRow serves one generation over a pool of `ways` members, then
// times a member departure. Backends are real backend.Servers reached
// through transport over net.Pipe.
func livePoolRow(cfg models.GPTConfig, ways int) (poolRow, error) {
	gpt := models.NewGPT(rand.New(rand.NewSource(5)), cfg)
	// RebalanceOnJoin spreads stages as members arrive (the members are
	// not memory-constrained here); once the session below is live, its
	// KV pins the plan, so the late "spare" join stays a spare.
	mgr, err := pool.NewManager(pool.Config{
		Model: gpt, Strategy: pool.StrategyPipeline, RebalanceOnJoin: true,
	})
	if err != nil {
		return poolRow{}, err
	}
	link := cluster.Link{Bandwidth: 25e9 / 8}
	var closers []func()
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	add := func(name string) error {
		rawC, rawS := net.Pipe()
		cconn := transport.NewConn(rawC, nil, nil)
		sconn := transport.NewConn(rawS, nil, nil)
		srv := backend.NewServer(device.A100)
		go func() { _ = srv.Serve(sconn) }()
		closers = append(closers, func() { _ = cconn.Close(); _ = sconn.Close() })
		return mgr.Join(name, transport.NewClient(cconn), device.A100, link)
	}
	for i := 0; i < ways; i++ {
		if err := add(fmt.Sprint("m", i)); err != nil {
			return poolRow{}, err
		}
	}

	const steps = 32
	s, err := mgr.Runner().NewScopedSessionCtx(context.Background(), runtime.ModeSemAware, "bench/")
	if err != nil {
		return poolRow{}, err
	}
	start := time.Now()
	if _, err := s.Prefill([]int64{3, 14, 15, 9, 2, 6}); err != nil {
		return poolRow{}, err
	}
	for i := 0; i < steps; i++ {
		if _, err := s.Step(); err != nil {
			return poolRow{}, err
		}
	}
	el := time.Since(start)

	// A spare joins (plan unchanged), then a shard owner departs; the
	// Leave call covers plan rebuild + re-installing the departed
	// member's shard weights on the spare, with a session still live.
	if err := add("spare"); err != nil {
		return poolRow{}, err
	}
	victim := mgr.Plan().Owners[0]
	rebuildStart := time.Now()
	if err := mgr.Leave(victim); err != nil {
		return poolRow{}, err
	}
	rebuild := time.Since(rebuildStart)
	if _, err := s.Step(); err != nil {
		return poolRow{}, fmt.Errorf("post-leave step: %w", err)
	}
	_ = s.Close()

	st := mgr.Status()
	return poolRow{
		tokensPerSec: float64(steps+1) / el.Seconds(),
		shards:       len(st.Shards),
		crossBytes:   st.CrossShardBytes,
		rebuild:      rebuild,
	}, nil
}

func printTable1() {
	fmt.Println("== Table 1: semantic characteristics of representative AI workloads ==")
	rows, err := eval.Table1()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-16s %-44s %-50s %s\n", "Workload", "Detected phases", "Key optimization", "Applied")
	for _, r := range rows {
		fmt.Printf("%-16s %-44s %-50s %v\n", r.Workload, fmt.Sprint(r.DetectedPhases), r.KeyOptimization, r.Applied)
	}
	fmt.Println()
}

func printTable2(cfg eval.LLMSimConfig) {
	fmt.Printf("== Table 2: GPT-J 6B, %d-token prompt + %d-token decode, %s transport ==\n",
		cfg.PromptLen, cfg.DecodeLen, cfg.RPC.Name)
	fmt.Printf("(paper values in parentheses; see EXPERIMENTS.md for deviations)\n")
	rows := eval.Table2(cfg)
	paperPrefill := map[runtime.Mode][3]string{
		runtime.ModeLocal:    {"0.21", "0.0", "100.0"},
		runtime.ModeNaive:    {"216", "149,258", "0.1"},
		runtime.ModeDeltaKV:  {"110", "4.31", "0.2"},
		runtime.ModeSemAware: {"111", "5.56", "0.2"},
	}
	paperDecode := map[runtime.Mode][3]string{
		runtime.ModeLocal:    {"1.53", "0.0", "99.1"},
		runtime.ModeNaive:    {"783", "95,438", "0.3"},
		runtime.ModeDeltaKV:  {"131", "52.3", "1.5"},
		runtime.ModeSemAware: {"116", "11.3", "1.8"},
	}
	fmt.Println("-- Prefill (72-token prompt) --")
	fmt.Printf("%-18s %14s %16s %12s\n", "Mode", "Latency [s]", "Net [MB]", "GPU Util [%]")
	for _, r := range rows {
		p := paperPrefill[r.Prefill.Mode]
		fmt.Printf("%-18s %8.2f (%s) %9.2f (%s) %6.1f (%s)\n", r.Prefill.Mode,
			r.Prefill.Latency.Seconds(), p[0],
			float64(r.Prefill.NetBytes)/1e6, p[1],
			r.Prefill.Util()*100, p[2])
	}
	fmt.Println("-- Decode (50 tokens) --")
	fmt.Printf("%-18s %14s %16s %12s\n", "Mode", "Latency [s]", "Net [MB]", "GPU Util [%]")
	for _, r := range rows {
		p := paperDecode[r.Decode.Mode]
		fmt.Printf("%-18s %8.2f (%s) %9.2f (%s) %6.1f (%s)\n", r.Decode.Mode,
			r.Decode.Latency.Seconds(), p[0],
			float64(r.Decode.NetBytes)/1e6, p[1],
			r.Decode.Util()*100, p[2])
	}
	fmt.Println()
}

func printTable3(cfg eval.LLMSimConfig) {
	fmt.Printf("== Table 3: decode latency scaling, %s transport ==\n", cfg.RPC.Name)
	paper := map[string]map[int]string{
		"delta_kv":        {50: "132.0", 100: "159.9", 150: "181.8", 200: "204.3"},
		"semantics_aware": {50: "114.0", 100: "118.4", 150: "118.5", 200: "119.2"},
	}
	lengths := []int{50, 100, 150, 200}
	points := eval.Table3(cfg, lengths)
	byMode := map[runtime.Mode]map[int]float64{}
	for _, p := range points {
		if byMode[p.Mode] == nil {
			byMode[p.Mode] = map[int]float64{}
		}
		byMode[p.Mode][p.N] = p.Latency.Seconds()
	}
	fmt.Printf("%-18s", "Mode")
	for _, n := range lengths {
		fmt.Printf(" %16s", fmt.Sprintf("N=%d", n))
	}
	fmt.Println()
	for _, mode := range []runtime.Mode{runtime.ModeDeltaKV, runtime.ModeSemAware} {
		fmt.Printf("%-18s", mode)
		for _, n := range lengths {
			fmt.Printf(" %8.1f (%s)", byMode[mode][n], paper[mode.String()][n])
		}
		fmt.Println()
	}
	fmt.Println()
}

func printFig1() {
	fmt.Println("== Fig. 1: the framework layer as the narrow waist ==")
	fmt.Println("(semantic facts visible per layer: SRG vs driver-level call stream)")
	fmt.Printf("%-12s %10s %12s %12s %12s\n", "Workload", "SRG phases", "residencies", "modalities", "driver sees")
	for _, r := range eval.Fig1NarrowWaist() {
		fmt.Printf("%-12s %10d %12d %12d %9d ops (phases=0, residency=0, modality=0)\n",
			r.Workload, r.SRGPhases, r.SRGResidency, r.SRGModalities, r.DriverOps)
	}
	fmt.Println()
}

func printAblations(cfg eval.LLMSimConfig) {
	fmt.Println("== A1: stateful co-location (50-token decode, GPT-J scale) ==")
	col := eval.AblationColocation(cfg)
	fmt.Printf("co-located:  %8.1fs %10.1f MB\n", col.ColocatedLatency.Seconds(), float64(col.ColocatedBytes)/1e6)
	fmt.Printf("cache moved: %8.1fs %10.1f MB  (%.1fx slower, %.0fx more traffic)\n",
		col.MovedLatency.Seconds(), float64(col.MovedBytes)/1e6,
		float64(col.MovedLatency)/float64(col.ColocatedLatency),
		float64(col.MovedBytes)/float64(col.ColocatedBytes))

	fmt.Println("\n== A2: pipelined CNN inference (ResNet-like, 256-image stream) ==")
	for _, n := range []int{2, 4} {
		p := eval.AblationPipeline(cfg.Device, n, 256)
		fmt.Printf("%d devices: sequential %8.1fms, pipelined %8.1fms (%.2fx)\n",
			n, p.Sequential.Seconds()*1e3, p.Pipelined.Seconds()*1e3, p.Speedup())
	}

	fmt.Println("\n== A3: dynamic recomputation under congestion ==")
	fmt.Println("(64 MB intermediate, 3e11-FLOP producer, zero-copy transport)")
	points := eval.AblationRecompute(cfg.Device, cfg.Link, scheduler.RDMAProfile,
		64<<20, 3e11, []float64{0, 0.25, 0.5, 0.75, 0.9})
	fmt.Printf("%-12s %12s %12s %s\n", "congestion", "fetch", "recompute", "decision")
	for _, p := range points {
		decision := "fetch"
		if p.ChoseRecomp {
			decision = "recompute"
		}
		fmt.Printf("%-12.2f %12v %12v %s\n", p.Congestion,
			p.FetchTime.Round(10e3), p.RecompTime.Round(10e3), decision)
	}

	fmt.Println("\n== A5: resume from the token log vs full restart ==")
	fmt.Printf("%-8s %14s %14s\n", "depth", "resume prefill", "full restart")
	for _, p := range eval.AblationLineageRecovery(cfg, []int{10, 50, 200}) {
		fmt.Printf("%-8d %13.1fs %13.1fs\n", p.Depth, p.ReplayCost.Seconds(), p.FullRestart.Seconds())
	}

	fmt.Println("\n== A6: cross-tenant decode batching (same model, hist=100) ==")
	for _, p := range eval.AblationGlobalBatching(cfg.Device, models.GPTJ6B, 100, []int{1, 2, 4, 8, 16, 32}) {
		fmt.Printf("batch %3d: %6.2fx decode throughput\n", p.Batch, p.Speedup)
	}

	fmt.Println("\n== A8: serving simulation (64 GPT-J requests, 4×A100 pool) ==")
	fmt.Printf("%-22s %12s %12s %12s %10s\n", "policy", "mean lat", "p95 lat", "p95 TTFT", "req/s")
	for _, pol := range []eval.ServingPolicy{eval.ServeBlindFCFS, eval.ServePhaseAware, eval.ServePhaseAwareBatched} {
		r := eval.RunServing(eval.DefaultServingConfig(), pol)
		fmt.Printf("%-22s %11.2fs %11.2fs %11.2fs %10.2f\n", pol,
			r.MeanLat.Seconds(), r.P95Lat.Seconds(), r.P95TTFT.Seconds(), r.Throughput)
	}

	fmt.Println("\n== A10: online serving engine (live continuous batching, TinyGPT) ==")
	if r, err := eval.RunOnlineServing(context.Background(), eval.DefaultOnlineServingConfig()); err == nil {
		fmt.Printf("%d requests on %s: %d completed, occupancy mean %.2f / max %d\n",
			r.Requests, runtime.ModeSemAware, r.Completed, r.MeanOccupancy, r.MaxOccupancy)
		fmt.Printf("p50 lat %v | p95 lat %v | p95 TTFT %v | %.0f tok/s | makespan %v\n",
			r.P50Lat.Round(time.Microsecond), r.P95Lat.Round(time.Microsecond),
			r.P95TTFT.Round(time.Microsecond), r.TokensPerSec,
			r.Makespan.Round(time.Microsecond))
		fmt.Println("(measured engine counterpart to A8's scheduling simulation:")
		fmt.Println(" A8 predicts batching gains from the roofline; A10 observes the")
		fmt.Println(" merge factor the real engine achieves on the same open-loop load)")
	} else {
		fmt.Printf("online serving failed: %v\n", err)
	}

	fmt.Println("\n== A9: learned semantic lexicon (§5) ==")
	if lex, err := eval.LearnedLexicon(); err == nil {
		fmt.Printf("trained on %d labeled graphs; held-out accuracy %d/%d = %.0f%%\n",
			lex.TrainGraphs, lex.Correct, lex.TestGraphs, lex.Accuracy()*100)
	}

	fmt.Println("\n== A7: RPC-overhead sweep (decode, 50 tokens) ==")
	for _, prof := range []scheduler.RPCProfile{scheduler.TensorPipeProfile, scheduler.RDMAProfile} {
		c := cfg
		c.RPC = prof
		local := c.Run(runtime.ModeLocal)
		sem := c.Run(runtime.ModeSemAware)
		dkv := c.Run(runtime.ModeDeltaKV)
		fmt.Printf("%-20s local %7.2fs | sem %8.2fs (util %4.1f%%) | delta_kv %8.2fs\n",
			prof.Name, local.Decode.Latency.Seconds(),
			sem.Decode.Latency.Seconds(), sem.Decode.Util()*100,
			dkv.Decode.Latency.Seconds())
	}
}
