// Command visionpipeline demonstrates §3.3's "Pipelined CNN inference":
// the frontend recognizes consecutive convolutional stages in a captured
// CNN, and the semantics-aware scheduler spreads them across two
// accelerators so a stream of images overlaps communication and
// computation. The example compares simulated stream completion time for
// single-device vs pipelined plans, then runs one image for real over
// two in-process backends through the plan executor to show the plan
// executes correctly.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"genie"
	"genie/internal/runtime"
	"genie/internal/simnet"
	"genie/internal/srg"
	"genie/internal/transport"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	model := genie.NewCNNModel(rng, genie.TinyCNN)
	img := genie.NewTensor(genie.F32, 3, 32, 32)
	img.RandN(rng, 1)

	b, out := model.BuildForward(img)
	rep := genie.Annotate(b.Graph())
	fmt.Printf("frontend tagged %d conv-pipeline nodes\n", rep.Tagged["conv_pipeline"])

	pool := genie.NewCluster()
	for _, id := range []genie.AcceleratorID{"gpu0", "gpu1"} {
		if err := pool.AddAccelerator(&genie.Accelerator{
			ID: id, Spec: genie.A100,
			Link: genie.Link{Bandwidth: 25e9 / 8, RTT: 100 * time.Microsecond},
		}); err != nil {
			log.Fatal(err)
		}
	}

	model2 := genie.NewCostModel(genie.RDMAProfile)
	pipelined, err := genie.Schedule(b.Graph(), pool, genie.SemanticsAware{}, model2)
	if err != nil {
		log.Fatal(err)
	}
	sequential, err := genie.Schedule(b.Graph(), pool,
		genie.SemanticsAware{DisablePipeline: true}, model2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline stages: %d across 2 devices\n", len(pipelined.PipelineStages))

	// Stream throughput on the simulator: per-request stage times come
	// from the cost model; the pipeline overlaps stages across devices.
	const stream = 64
	seqDone := simulateStream(sequential, model2, pool, stream, false)
	pipeDone := simulateStream(pipelined, model2, pool, stream, true)
	fmt.Printf("simulated %d-image stream: sequential %v, pipelined %v (%.2fx)\n",
		stream, seqDone, pipeDone, float64(seqDone)/float64(pipeDone))

	// Execute the plan for real: each device's segment runs as one Exec
	// on its own in-process backend, activations crossing between them.
	eps := map[genie.AcceleratorID]runtime.Endpoint{}
	for _, id := range []genie.AcceleratorID{"gpu0", "gpu1"} {
		cconn, sconn := transport.Pipe(nil, nil)
		srv := genie.NewServer(genie.A100)
		go func() { _ = srv.Serve(sconn) }()
		client := transport.NewClient(cconn)
		defer client.Close()
		eps[id] = client
	}
	pe := &runtime.PlanExecutor{EPs: eps}
	vals, err := pe.Execute(pipelined, b, []srg.NodeID{out.Logits})
	if err != nil {
		log.Fatal(err)
	}
	logits := vals[out.Logits]
	fmt.Printf("real 2-backend execution: logits %v, argmax class %d\n",
		logits.Shape(), argmax(logits.F32()))
}

func simulateStream(plan *genie.Plan, model *genie.CostModel, pool *genie.Cluster, n int, pipelined bool) time.Duration {
	// Stage service times per device.
	if !pipelined || len(plan.PipelineStages) < 2 {
		var per time.Duration
		for _, node := range plan.Graph.Nodes() {
			per += model.NodeCompute(plan, pool, node.ID)
		}
		r := simnet.NewResource("gpu0")
		var end time.Duration
		for i := 0; i < n; i++ {
			_, end = r.ReserveAt(0, per)
		}
		return end
	}
	stageTime := make([]time.Duration, len(plan.PipelineStages))
	for si, stage := range plan.PipelineStages {
		for _, id := range stage {
			stageTime[si] += model.NodeCompute(plan, pool, id)
		}
	}
	res := make([]*simnet.Resource, len(plan.PipelineStages))
	for i := range res {
		res[i] = simnet.NewResource(fmt.Sprint("gpu", i%2))
	}
	var end time.Duration
	for i := 0; i < n; i++ {
		at := time.Duration(0)
		for si := range plan.PipelineStages {
			_, e := res[si].ReserveAt(at, stageTime[si])
			at = e
		}
		end = at
	}
	return end
}

func argmax(v []float32) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}
