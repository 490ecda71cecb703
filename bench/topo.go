package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"genie/internal/backend"
	"genie/internal/cluster"
	"genie/internal/device"
	"genie/internal/health"
	"genie/internal/kvcache"
	"genie/internal/models"
	"genie/internal/obs"
	"genie/internal/pool"
	"genie/internal/runtime"
	"genie/internal/serve"
	"genie/internal/transport"
)

// node is one in-process backend.Server reached over loopback TCP: the
// host loopback interface, not a real link and not net.Pipe, so framing
// and syscalls are paid as a gateway pays them.
type node struct {
	name string
	srv  *backend.Server
	ln   net.Listener
	done chan error // backend.Server.Listen's return
	conn *transport.Conn
	cli  *transport.Client
	ep   runtime.Endpoint // cli, or its traced decorator
}

// topology is one assembled serving stack: what cmd/genie-gateway
// builds from its flags, with the backends in-process.
type topology struct {
	w     *workload
	nodes []*node
	tel   *transport.Telemetry
	hs    *health.Set
	cache *kvcache.Manager
	split *kvcache.Split
	pool  *pool.Manager
	// runners are the lanes' runners, in lane order.
	runners []*runtime.LLMRunner
	engine  *serve.Engine

	// Traced runs only. probe is a second connection to the first
	// backend, and direct a runner for engine-less sessions: a Conn
	// carries one call at a time, and with health scoring on an idle
	// lane pings its own connection, so the probes must not share it.
	probeConn *transport.Conn
	probe     *transport.Client
	direct    *runtime.LLMRunner

	httpLn   net.Listener
	httpSrv  *http.Server
	httpDone chan error
	client   *http.Client
	url      string
}

// opTimeout is the gateway's -op-timeout default.
const opTimeout = 2 * time.Second

func newModel(cfg models.GPTConfig) *models.GPT {
	return models.NewGPT(rand.New(rand.NewSource(weightSeed)), cfg)
}

// startNode listens on a loopback port, serves a fresh backend on it
// and dials it. negotiate asks for every wire feature, as the gateway's
// -wire-compress does.
func startNode(name string, tel *transport.Telemetry, rec *recorder, negotiate bool) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("bench: listen for %s: %w", name, err)
	}
	n := &node{name: name, srv: backend.NewServer(device.A100), ln: ln, done: make(chan error, 1)}
	go func() { n.done <- n.srv.Listen(ln) }()
	conn, err := transport.Dial(ln.Addr().String(), nil, nil)
	if err != nil {
		n.stop()
		return nil, err
	}
	conn.SetTelemetry(tel)
	n.conn, n.cli = conn, transport.NewClient(conn)
	if negotiate {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err := n.cli.Negotiate(ctx, transport.FeatAll)
		cancel()
		if err != nil {
			n.stop()
			return nil, fmt.Errorf("bench: negotiate with %s: %w", name, err)
		}
	}
	n.ep = n.cli
	if rec != nil {
		n.ep = &tracedEP{name: name, inner: n.cli, ctr: conn.Counters(), rec: rec}
	}
	return n, nil
}

// stop closes the connection, drains the server and waits for its
// accept loop and every connection goroutine to end.
func (n *node) stop() {
	if n.conn != nil {
		_ = n.conn.Close()
	}
	n.srv.Drain()
	_ = n.ln.Close()
	<-n.done
}

// buildTopology assembles the workload's stack and starts its engine.
// rec is nil for the untraced run: the runners then hold the bare
// transport clients and nothing of bench/ sits in the request path.
func buildTopology(w *workload, rec *recorder) (_ *topology, err error) {
	reg := obs.NewRegistry()
	t := &topology{w: w, tel: transport.NewTelemetry(reg)}
	// A failed build stops whatever it had started. t is a local, so it
	// is still the half-built topology after `return nil, err`.
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	if w.health {
		// The gateway's -quarantine-* defaults.
		t.hs = health.NewSet(health.Config{
			QuarantineFactor: 8, QuarantineErrRate: 0.5, Cooldown: 2 * time.Second, Metrics: reg,
		})
	}
	add := func(name string, negotiate bool) (*node, error) {
		n, err := startNode(name, t.tel, rec, negotiate)
		if err == nil {
			t.nodes = append(t.nodes, n)
		}
		return n, err
	}

	var lanes []serve.Backend
	var poolStats, cacheStats func() any
	switch w.topo {
	case topoReplicas:
		for i := 0; i < w.backends; i++ {
			n, err := add(fmt.Sprintf("lane%d", i), false)
			if err != nil {
				return nil, err
			}
			r := &runtime.LLMRunner{Model: newModel(w.model), EP: n.ep, Counters: n.conn.Counters()}
			lanes = append(lanes, serve.Backend{Name: n.name, Runner: r})
		}
	case topoSplit:
		pre, err := add("prefill", true)
		if err != nil {
			return nil, err
		}
		dec, err := add("decode", true)
		if err != nil {
			return nil, err
		}
		t.cache, err = kvcache.NewManager(kvcache.Config{
			Model: newModel(w.model), BudgetBytes: w.cacheBytes, PageTokens: w.pageTokens, Metrics: reg,
		})
		if err != nil {
			return nil, err
		}
		cacheStats = func() any { return t.cache.Snapshot() }
		t.split, err = kvcache.NewSplit(kvcache.SplitConfig{
			Model: t.cache.Model(), Prefill: pre.ep, Decode: dec.ep,
			DecodeCounters: dec.conn.Counters(), Cache: t.cache, Metrics: reg, Health: t.hs,
		})
		if err != nil {
			return nil, err
		}
		if err := t.split.InstallWeights(); err != nil {
			return nil, fmt.Errorf("bench: install weights: %w", err)
		}
		lanes = append(lanes, serve.Backend{Name: "split:decode", Runner: t.split.Runner()})
	case topoPool:
		t.pool, err = pool.NewManager(pool.Config{
			Model: newModel(w.model), Strategy: pool.StrategyPipeline,
			Metrics: reg, RebalanceOnJoin: true, Health: t.hs,
		})
		if err != nil {
			return nil, err
		}
		for i := 0; i < w.backends; i++ {
			n, err := add(fmt.Sprintf("member%d", i), false)
			if err != nil {
				return nil, err
			}
			// The gateway's 25 Gbps link and modeled A100.
			if err := t.pool.Join(n.name, n.ep, device.A100, cluster.Link{Bandwidth: 3.125e9}); err != nil {
				return nil, fmt.Errorf("bench: pool member %s: %w", n.name, err)
			}
		}
		plan := t.pool.Plan()
		if plan == nil || len(plan.Members()) != w.backends {
			return nil, fmt.Errorf("bench: pool did not shard across %d members", w.backends)
		}
		lanes = append(lanes, serve.Backend{Name: "pool", Runner: t.pool.Runner()})
		poolStats = func() any { return t.pool.Status() }
	}
	for _, l := range lanes {
		t.runners = append(t.runners, l.Runner)
	}
	if rec != nil {
		t.probeConn, err = transport.Dial(t.nodes[0].ln.Addr().String(), nil, nil)
		if err != nil {
			return nil, err
		}
		t.probe = transport.NewClient(t.probeConn)
		// Sessions of a split or a pool span several endpoints; only
		// their lane's runner can drive one, and those lanes have no
		// health prober. A replica's weights are resident server-side,
		// so a second connection serves it as well as the lane's.
		t.direct = t.runners[0]
		if w.topo == topoReplicas {
			t.direct = &runtime.LLMRunner{Model: newModel(w.model), EP: t.probe, WeightsResident: true}
		}
	}

	// The gateway's flag defaults, except the obs tracer: it stays nil
	// (the engine's zero-cost path), since per-layer numbers here come
	// from outside the program.
	t.engine, err = serve.NewEngine(serve.Config{
		Mode: runtime.ModeSemAware, MaxQueue: 64, MaxBatch: maxBatch,
		DefaultMaxTokens: 32, RetryBudget: 1, RetryAfter: time.Second,
		OpTimeout: opTimeout, BreakerThreshold: 3, BreakerCooldown: time.Second,
		Metrics: reg, PoolStats: poolStats, CacheStats: cacheStats, Health: t.hs,
	}, lanes)
	if err != nil {
		return nil, err
	}
	t.engine.Start()

	if w.http {
		t.httpLn, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("bench: listen for gateway: %w", err)
		}
		t.httpSrv = &http.Server{Handler: serve.NewHandler(t.engine)}
		t.httpDone = make(chan error, 1)
		go func() { t.httpDone <- t.httpSrv.Serve(t.httpLn) }()
		t.url = "http://" + t.httpLn.Addr().String() + "/v1/generate"
		// Keep-alive connections for every in-flight request, so the
		// steady state pays no dial.
		t.client = &http.Client{Transport: &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64}}
	}
	return t, nil
}

// close drains and stops everything the topology started and waits for
// each goroutine: no listener or goroutine outlives a workload.
func (t *topology) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if t.httpSrv != nil {
		_ = t.httpSrv.Shutdown(ctx)
		<-t.httpDone
		t.client.CloseIdleConnections()
	}
	t.stopEngine(ctx)
	if t.probeConn != nil {
		_ = t.probeConn.Close()
	}
	for _, n := range t.nodes {
		n.stop()
	}
}

// stopEngine drains and stops the lanes; idempotent. The probes call it
// before they drive the runners' connections themselves.
func (t *topology) stopEngine(ctx context.Context) {
	if t.engine == nil {
		return
	}
	_ = t.engine.Drain(ctx)
	t.engine.Stop()
}

// counters sums the client-side traffic counters of every backend conn.
func (t *topology) counters() (sent, recv, calls int64) {
	for _, n := range t.nodes {
		s, r, c := n.conn.Counters().Snapshot()
		sent, recv, calls = sent+s, recv+r, calls+c
	}
	return sent, recv, calls
}
