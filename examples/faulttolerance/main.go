// Command faulttolerance demonstrates §3.5's lineage-based recovery: a
// GPT decode loop runs against one backend with weights and KV caches
// tracked by the lineage manager; mid-generation the server crashes
// (losing all resident state); the manager detects the stale epochs,
// replays exactly the lost provenance chains onto a standby backend, and
// the loop continues — producing the same tokens a failure-free run
// would, without the client recomputing anything itself.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"
	"time"

	"genie"
	"genie/internal/models"
	"genie/internal/nn"
	"genie/internal/srg"
	"genie/internal/transport"
)

func main() {
	primarySrv, primary := startServer()
	standbySrv, standby := startServer()
	_ = standbySrv

	mgr := genie.NewLineageManager()
	mgr.RegisterEndpoint("primary", primary)
	mgr.RegisterEndpoint("standby", standby)

	rng := rand.New(rand.NewSource(2026))
	model := genie.NewGPTModel(rng, genie.TinyGPT)
	prompt := []int64{9, 41, 7, 23, 60}

	// Install weights under lineage tracking.
	pb, _ := model.BuildPrefill(prompt)
	for _, n := range pb.Graph().Nodes() {
		if n.Op == "param" {
			data, _ := pb.ParamData(n.Ref)
			if err := mgr.UploadTracked("primary", n.Ref, data); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("installed %d weight objects on primary\n", len(pb.Graph().Params()))

	ep := "primary"
	step := func(b *genie.Builder, out models.LLMOutputs) int64 {
		ex := &transport.Exec{Graph: b.Graph(), Keep: map[srg.NodeID]string{}}
		for _, n := range b.Graph().Nodes() {
			if n.Op != "input" {
				continue
			}
			if n.Residency == genie.ResidencyStatefulKVCache {
				ex.Binds = append(ex.Binds, transport.Binding{Ref: n.Ref, Key: n.Ref})
				continue
			}
			data, _ := b.InputData(n.Ref)
			ex.Binds = append(ex.Binds, transport.Binding{Ref: n.Ref, Inline: data})
		}
		for i := range out.CacheK {
			ex.Keep[out.CacheK[i]] = models.CacheRef(i, "k")
			ex.Keep[out.CacheV[i]] = models.CacheRef(i, "v")
		}
		ex.Want = []srg.NodeID{out.NextToken}
		ok, err := mgr.ExecTracked(context.Background(), ep, ex)
		if err != nil {
			log.Fatal(err)
		}
		return ok.Results[out.NextToken].I64()[0]
	}

	b, out := model.BuildPrefill(prompt)
	next := step(b, out)
	hist := len(prompt)
	var tokens []int64

	decode := func() {
		tokens = append(tokens, next)
		db, dout := model.BuildDecodeStep(next, hist, hist, emptyCaches(model))
		next = step(db, dout)
		hist++
	}

	decode()
	decode()
	decode()
	fmt.Printf("generated %v, then PRIMARY CRASHES (all resident state lost)\n", tokens)
	primarySrv.Crash()

	start := time.Now()
	lost, err := mgr.DetectLost("primary")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lineage detected %d lost objects (weights + per-layer caches)\n", len(lost))
	if err := mgr.Recover(lost, "standby"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed provenance onto standby in %v (wall clock, real replay)\n",
		time.Since(start).Round(time.Millisecond))

	ep = "standby"
	decode()
	decode()
	decode()
	fmt.Printf("resumed generation: %v\n", tokens)

	// Cross-check against an uninterrupted run.
	want := referenceRun(prompt, len(tokens))
	for i := range want {
		if tokens[i] != want[i] {
			log.Fatalf("recovered run diverged at %d: %v vs %v", i, tokens, want)
		}
	}
	fmt.Println("tokens identical to a failure-free run — decode recovered without restarting prefill at the client")
}

func startServer() (*genie.Server, *genie.Client) {
	srv := genie.NewServer(genie.A100)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = genie.Serve(srv, l) }()
	client, err := genie.Dial(l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	return srv, client
}

func emptyCaches(m *genie.GPT) []*nn.KVCache {
	caches := make([]*nn.KVCache, m.Cfg.Layers)
	for i := range caches {
		caches[i] = &nn.KVCache{}
	}
	return caches
}

func referenceRun(prompt []int64, steps int) []int64 {
	srv := genie.NewServer(genie.A100)
	_ = srv
	rng := rand.New(rand.NewSource(2026))
	model := genie.NewGPTModel(rng, genie.TinyGPT)
	b, out := model.BuildPrefill(prompt)
	vals, err := genie.ExecuteLocal(b)
	if err != nil {
		log.Fatal(err)
	}
	caches := emptyCaches(model)
	for i := range out.CacheK {
		caches[i].Append(vals[out.CacheK[i]], vals[out.CacheV[i]])
	}
	next := vals[out.NextToken].I64()[0]
	hist := len(prompt)
	var tokens []int64
	for s := 0; s < steps; s++ {
		tokens = append(tokens, next)
		db, dout := model.BuildDecodeStep(next, hist, hist, caches)
		dvals, err := genie.ExecuteLocal(db)
		if err != nil {
			log.Fatal(err)
		}
		for i := range caches {
			caches[i].K = dvals[dout.CacheK[i]]
			caches[i].V = dvals[dout.CacheV[i]]
		}
		next = dvals[dout.NextToken].I64()[0]
		hist++
	}
	return tokens
}
