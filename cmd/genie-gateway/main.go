// Command genie-gateway fronts one or more genie-server backends with
// the online serving engine: a stdlib HTTP API with per-tenant fair
// queuing, bounded admission (429 on overload), and continuous decode
// batching per backend.
//
// Endpoints:
//
//	POST /v1/generate  {"tenant","prompt":[ids],"max_tokens","slo","timeout_ms","stream"}
//	GET  /healthz      200 while serving; 503 while draining or while any
//	                   lane is quarantined (JSON lists the sick lanes)
//	GET  /stats        queue depth, batch occupancy, TTFT/latency percentiles,
//	                   per-lane gate state and score (full scorer block with -health)
//	GET  /metrics      Prometheus text: serve/transport counters, gauges, histograms
//	GET  /debug/trace  Chrome trace JSON of the span ring buffer (chrome://tracing)
//
// Every backend must be a running genie-server; the gateway builds the
// model weights from -seed (all replicas must share it so any lane
// yields identical tokens) and installs them on each backend at start.
//
// Usage:
//
//	genie-gateway -addr :8080 -backends 127.0.0.1:7009,127.0.0.1:7010 \
//	  -mode semantics_aware -seed 1 -queue 64 -batch 8
//
// With -pool-backends the listed servers instead form one sharded
// backend pool: the model splits across members (pipeline/tensor/memory
// placement via -shard-strategy), members may join or leave at runtime,
// and /stats exposes the live shard plan under "pool".
//
//	genie-gateway -addr :8080 -pool-backends 127.0.0.1:7009,127.0.0.1:7010 \
//	  -shard-strategy auto -pool-mem-bytes 70000
//
// -prefix-cache-bytes enables the radix prefix KV cache (local and
// semantics_aware modes): requests sharing a prompt prefix prefill only
// their suffix, and /stats exposes hit ratio and residency under
// "cache". -split-prefill disaggregates the two inference phases across
// the -backends — the last holds decode state, the others run prefill —
// shipping only the ΔKV suffix between them.
//
//	genie-gateway -addr :8080 -backends 127.0.0.1:7009,127.0.0.1:7010 \
//	  -split-prefill -prefix-cache-bytes 67108864 -wire-compress
//
// Fail-slow tolerance (-health, on by default) scores every lane's
// latency and error rate against the best member: Suspect lanes yield
// to healthy ones and Quarantined lanes drain through failover with no
// state loss. The thresholds are relative to the best lane, so none is
// a flag. With -split-prefill and three or more -backends, the first
// n-1 become prefill lanes and every prefill races a second lane once
// the first runs past the adaptive health deadline (never below 25ms):
//
//	genie-gateway -addr :8080 \
//	  -backends 127.0.0.1:7009,127.0.0.1:7010,127.0.0.1:7011 \
//	  -split-prefill
//
// SIGINT/SIGTERM drains gracefully: admission closes, queued and
// running requests finish, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"genie/internal/cluster"
	"genie/internal/device"
	"genie/internal/health"
	"genie/internal/kvcache"
	"genie/internal/models"
	"genie/internal/obs"
	"genie/internal/pool"
	"genie/internal/quant"
	"genie/internal/runtime"
	"genie/internal/serve"
	"genie/internal/transport"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "HTTP address to serve on")
	backends := flag.String("backends", "127.0.0.1:7009", "comma-separated genie-server addresses")
	modeName := flag.String("mode", runtime.ModeSemAware.String(),
		"disaggregation mode (local, naive, delta_kv, semantics_aware)")
	seed := flag.Int64("seed", 1, "model weight seed (must match across replicas)")
	queue := flag.Int("queue", 64, "admission queue bound (requests beyond it get 429)")
	batch := flag.Int("batch", 8, "max requests per continuous decode batch, per backend")
	maxTokens := flag.Int("max-tokens", 32, "default generation cap per request")
	deadline := flag.Duration("deadline", 0, "default per-request deadline (0 = none)")
	retryBudget := flag.Int("retry-budget", 1,
		"re-queues per request after backend loss before shedding 503 (0 = fail fast)")
	opTimeout := flag.Duration("op-timeout", 2*time.Second,
		"per-RPC deadline on prefill/decode ops (0 = none; bounds hung-peer stalls)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound")
	trace := flag.Bool("trace", true, "record request-scoped spans (GET /debug/trace)")
	traceDump := flag.String("trace-dump", "", "write Chrome trace JSON to this file at shutdown")
	poolBackends := flag.String("pool-backends", "",
		"comma-separated genie-server addresses forming ONE sharded backend pool "+
			"(the model splits across them; mutually exclusive with -backends lanes)")
	shardStrategy := flag.String("shard-strategy", "auto",
		"pool shard placement: memory, tensor, pipeline, or auto (cheapest feasible)")
	poolRebalance := flag.Bool("pool-rebalance-on-join", false,
		"re-place shards when a member joins (only while no session KV is live); "+
			"default keeps newcomers as hot spares")
	poolMemBytes := flag.Int64("pool-mem-bytes", 0,
		"per-member memory capacity the shard planner assumes, in bytes "+
			"(0 = the modeled device default; small values force multi-member sharding)")
	quantMode := flag.String("quant", "off",
		"weight tier installed on backends: off (f32), int8 (per-column symmetric), f16")
	prefixCacheBytes := flag.Int64("prefix-cache-bytes", 0,
		"radix prefix KV cache budget in bytes (0 = off); requests sharing a "+
			"prompt prefix prefill only their suffix")
	splitPrefill := flag.Bool("split-prefill", false,
		"disaggregate prefill/decode across two or more -backends: the last holds "+
			"decode KV, the others run prefill, and two or more prefill lanes hedge "+
			"each prefill past the adaptive health deadline (semantics_aware mode only)")
	wireCompress := flag.Bool("wire-compress", false,
		"negotiate wire features (compression, dedup, resident plans) with each backend; "+
			"backends that refuse stay on the legacy protocol")
	healthOn := flag.Bool("health", true,
		"graded fail-slow health scoring on every lane: Suspect lanes demote, "+
			"Quarantined lanes drain through failover, idle lanes are probed and "+
			"ops get an adaptive deadline; /stats gains a health block "+
			"(false = trip-only gate: 3 consecutive failures quarantine a lane for 1s)")
	flag.Parse()

	mode, err := runtime.ParseMode(*modeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	qm, err := quant.ParseMode(*quantMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// One process-wide metrics registry (served at /metrics) and, unless
	// -trace=false, one tracer whose spans cover the whole stack: HTTP
	// handler, queue wait, prefill/decode phases, transport RPCs.
	reg := obs.NewRegistry()
	var tracer *obs.Tracer
	if *trace {
		tracer = obs.NewTracer(obs.TracerConfig{Proc: "gateway"})
		defer tracer.Stop()
	}
	tel := transport.NewTelemetry(reg)

	// One health set scores every endpoint the gateway touches — serving
	// lanes, pool members, and split prefill lanes — so the latency
	// baseline ("what does healthy look like here") is shared and the
	// /stats health block covers the whole stack.
	var hs *health.Set
	if *healthOn {
		hs = health.NewSet(health.Config{Metrics: reg})
	}

	// With -wire-compress the gateway offers the full wire feature set to
	// each backend right after dialing; whatever subset the server grants
	// is installed on that connection (legacy servers grant nothing).
	negotiate := func(c *transport.Client, baddr string) {
		if !*wireCompress {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		granted, err := c.Negotiate(ctx, transport.FeatAll)
		if err != nil {
			log.Fatalf("genie-gateway: negotiate with %s: %v", baddr, err)
		}
		log.Printf("genie-gateway: %s granted wire features %#x", baddr, granted)
	}

	// Two backend topologies: the default gives each -backends address its
	// own lane with a full model replica; -pool-backends instead shards ONE
	// model across every listed address behind a single pool.Manager lane,
	// so models larger than any one member's memory still serve.
	var lanes []serve.Backend
	var poolStats, cacheStats func() any

	// The prefix cache and the split runner both need ONE shared model
	// instance (the cache keys KV state against it); plain lanes build
	// their own replica from the same seed.
	var cacheMgr *kvcache.Manager
	if *prefixCacheBytes > 0 {
		if *poolBackends != "" {
			log.Fatal("genie-gateway: -prefix-cache-bytes does not compose with -pool-backends yet")
		}
		if mode != runtime.ModeLocal && mode != runtime.ModeSemAware {
			log.Fatalf("genie-gateway: -prefix-cache-bytes needs mode local or semantics_aware, not %s "+
				"(the cache speaks the scoped-KV protocol)", mode)
		}
		var err error
		cacheMgr, err = kvcache.NewManager(kvcache.Config{
			Model:       models.NewGPT(rand.New(rand.NewSource(*seed)), models.TinyGPT),
			BudgetBytes: *prefixCacheBytes,
			Metrics:     reg,
		})
		if err != nil {
			log.Fatalf("genie-gateway: %v", err)
		}
		cacheStats = func() any { return cacheMgr.Snapshot() }
	}

	if *poolBackends != "" {
		if mode == runtime.ModeLocal {
			log.Fatal("genie-gateway: -pool-backends needs a remote mode (the pool shards across backends)")
		}
		strat, err := pool.ParseStrategy(*shardStrategy)
		if err != nil {
			log.Fatalf("genie-gateway: %v", err)
		}
		mgr, err := pool.NewManager(pool.Config{
			Model:           models.NewGPT(rand.New(rand.NewSource(*seed)), models.TinyGPT),
			Strategy:        strat,
			Metrics:         reg,
			RebalanceOnJoin: *poolRebalance,
			Health:          hs,
		})
		if err != nil {
			log.Fatalf("genie-gateway: %v", err)
		}
		// The paper's 25 Gbps network path; member capacity defaults to the
		// modeled A100 unless -pool-mem-bytes narrows it.
		link := cluster.Link{Bandwidth: 3.125e9}
		spec := device.A100
		if *poolMemBytes > 0 {
			spec.MemBytes = *poolMemBytes
		}
		for _, baddr := range strings.Split(*poolBackends, ",") {
			baddr = strings.TrimSpace(baddr)
			if baddr == "" {
				continue
			}
			conn, err := transport.Dial(baddr, nil, nil)
			if err != nil {
				log.Fatalf("genie-gateway: pool member %s: %v", baddr, err)
			}
			defer conn.Close()
			conn.SetTelemetry(tel)
			member := transport.NewClient(conn)
			negotiate(member, baddr)
			if err := mgr.Join(baddr, member, spec, link); err != nil {
				log.Fatalf("genie-gateway: pool member %s: %v", baddr, err)
			}
		}
		plan := mgr.Plan()
		if plan == nil {
			log.Fatal("genie-gateway: pool has no feasible shard plan (add members or raise -pool-mem-bytes)")
		}
		log.Printf("genie-gateway: pool sharded %s across %d member(s), %d cut edge(s)",
			strat, len(plan.Members()), len(plan.Shards())-1)
		lanes = append(lanes, serve.Backend{Name: "pool", Runner: mgr.Runner()})
		poolStats = func() any { return mgr.Status() }
	} else if *splitPrefill {
		if mode != runtime.ModeSemAware {
			log.Fatalf("genie-gateway: -split-prefill needs mode semantics_aware, not %s "+
				"(decode holds resident scoped KV)", mode)
		}
		var eps []runtime.Endpoint
		var ctrs []*transport.Counters
		var names []string
		for _, baddr := range strings.Split(*backends, ",") {
			baddr = strings.TrimSpace(baddr)
			if baddr == "" {
				continue
			}
			conn, err := transport.Dial(baddr, nil, nil)
			if err != nil {
				log.Fatalf("genie-gateway: backend %s: %v", baddr, err)
			}
			defer conn.Close()
			conn.SetTelemetry(tel)
			lc := transport.NewClient(conn)
			negotiate(lc, baddr)
			eps = append(eps, lc)
			ctrs = append(ctrs, conn.Counters())
			names = append(names, baddr)
		}
		if len(eps) < 2 {
			log.Fatalf("genie-gateway: -split-prefill needs at least two -backends "+
				"(prefill lanes, then the decode lane), got %d", len(eps))
		}
		model := models.NewGPT(rand.New(rand.NewSource(*seed)), models.TinyGPT)
		if cacheMgr != nil {
			model = cacheMgr.Model()
		}
		scfg := kvcache.SplitConfig{
			Model:          model,
			Decode:         eps[len(eps)-1],
			DecodeCounters: ctrs[len(ctrs)-1],
			Cache:          cacheMgr,
			Metrics:        reg,
			Health:         hs,
		}
		// The backend count decides hedging: one prefill lane runs every
		// prefill, two or more race the healthiest two.
		hedged := len(eps) > 2
		if hedged {
			for i := 0; i < len(eps)-1; i++ {
				scfg.Lanes = append(scfg.Lanes, kvcache.PrefillLane{Name: names[i], EP: eps[i]})
			}
		} else {
			scfg.Prefill = eps[0]
		}
		sp, err := kvcache.NewSplit(scfg)
		if err != nil {
			log.Fatalf("genie-gateway: %v", err)
		}
		if err := sp.InstallWeights(); err != nil {
			log.Fatalf("genie-gateway: install weights: %v", err)
		}
		decName := names[len(names)-1]
		if hedged {
			log.Printf("genie-gateway: hedged prefill across %s, decode on %s",
				strings.Join(names[:len(names)-1], ","), decName)
		} else {
			log.Printf("genie-gateway: split prefill on %s, decode on %s", names[0], decName)
		}
		lanes = append(lanes, serve.Backend{Name: "split:" + decName, Runner: sp.Runner()})
	} else {
		for _, baddr := range strings.Split(*backends, ",") {
			baddr = strings.TrimSpace(baddr)
			if baddr == "" {
				continue
			}
			var r *runtime.LLMRunner
			switch {
			case cacheMgr != nil && mode == runtime.ModeLocal:
				r = cacheMgr.Runner()
			case mode == runtime.ModeLocal:
				r = &runtime.LLMRunner{
					Model: models.NewGPT(rand.New(rand.NewSource(*seed)), models.TinyGPT),
				}
			default:
				conn, err := transport.Dial(baddr, nil, nil)
				if err != nil {
					log.Fatalf("genie-gateway: backend %s: %v", baddr, err)
				}
				defer conn.Close()
				conn.SetTelemetry(tel)
				lc := transport.NewClient(conn)
				negotiate(lc, baddr)
				if cacheMgr != nil {
					r = cacheMgr.RunnerOn(lc, conn.Counters())
				} else {
					r = &runtime.LLMRunner{
						Model:    models.NewGPT(rand.New(rand.NewSource(*seed)), models.TinyGPT),
						EP:       lc,
						Counters: conn.Counters(),
					}
				}
			}
			lanes = append(lanes, serve.Backend{Name: baddr, Runner: r})
		}
	}
	if len(lanes) == 0 {
		log.Fatal("genie-gateway: no backends")
	}

	// The engine reads RetryBudget 0 as "use the default"; the flag's 0
	// means fail fast, which the config spells as negative.
	budget := *retryBudget
	if budget <= 0 {
		budget = -1
	}

	engine, err := serve.NewEngine(serve.Config{
		Mode:             mode,
		MaxQueue:         *queue,
		MaxBatch:         *batch,
		DefaultMaxTokens: *maxTokens,
		DefaultDeadline:  *deadline,
		RetryBudget:      budget,
		OpTimeout:        *opTimeout,
		Tracer:           tracer,
		Metrics:          reg,
		PoolStats:        poolStats,
		CacheStats:       cacheStats,
		Quant:            qm,
		Health:           hs,
	}, lanes)
	if err != nil {
		log.Fatalf("genie-gateway: %v", err)
	}
	engine.Start()

	srv := &http.Server{Addr: *addr, Handler: serve.NewHandler(engine)}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("genie-gateway: serving %s on %s (%d backend(s), queue %d, batch %d)",
		mode, *addr, len(lanes), *queue, *batch)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("genie-gateway: %v", err)
	case sig := <-sigc:
		log.Printf("genie-gateway: %s, draining (bound %v)", sig, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := engine.Drain(ctx); err != nil {
		log.Printf("genie-gateway: drain incomplete: %v", err)
	}
	engine.Stop()
	_ = srv.Shutdown(ctx)
	if *traceDump != "" && tracer != nil {
		if err := dumpTrace(*traceDump, tracer); err != nil {
			log.Printf("genie-gateway: trace dump: %v", err)
		} else {
			log.Printf("genie-gateway: wrote trace to %s (open in chrome://tracing)", *traceDump)
		}
	}
	log.Printf("genie-gateway: drained, exiting")
}

// dumpTrace writes the span ring buffer as Chrome trace JSON.
func dumpTrace(path string, tracer *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, tracer.Snapshot()); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
