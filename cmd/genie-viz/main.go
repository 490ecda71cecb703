// Command genie-viz renders Semantically Rich Graphs: it builds one of
// the library's workload models (or decodes a serialized .srg file),
// runs the frontend annotation pipeline, and emits Graphviz DOT or JSON.
//
// Usage:
//
//	genie-viz -model gpt-prefill -out dot > g.dot
//	genie-viz -model cnn -out json
//	genie-viz -in graph.srg -out dot
//	genie-viz -model gpt-decode -save graph.srg   # write the wire format
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"genie/internal/cluster"
	"genie/internal/device"
	"genie/internal/frontend"
	"genie/internal/models"
	"genie/internal/nn"
	"genie/internal/scheduler"
	"genie/internal/srg"
	"genie/internal/tensor"
)

func main() {
	model := flag.String("model", "gpt-prefill",
		"graph to build: gpt-prefill | gpt-decode | cnn | dlrm | multimodal")
	in := flag.String("in", "", "read a serialized SRG from this file instead of building a model")
	out := flag.String("out", "dot", "output format: dot | json | stats | plan")
	devices := flag.Int("devices", 2, "pool size for -out plan")
	save := flag.String("save", "", "also write the SRG wire format to this file")
	annotate := flag.Bool("annotate", true, "run the frontend annotation pipeline")
	flag.Parse()

	var g *srg.Graph
	var err error
	if *in != "" {
		data, err2 := os.ReadFile(*in)
		if err2 != nil {
			log.Fatal(err2)
		}
		g, err = srg.Decode(data)
		if err != nil {
			log.Fatalf("genie-viz: decode %s: %v", *in, err)
		}
	} else {
		g, err = buildModel(*model)
		if err != nil {
			log.Fatal(err)
		}
	}

	if *annotate {
		frontend.Annotate(g)
	}
	if *save != "" {
		data, err := g.AppendBinary(nil)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*save, data, 0o666); err != nil {
			log.Fatal(err)
		}
		log.Printf("genie-viz: wrote %s", *save)
	}

	switch *out {
	case "dot":
		fmt.Print(g.DOT())
	case "json":
		data, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(data))
	case "stats":
		printStats(g)
	case "plan":
		if err := printPlan(g, *devices); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("genie-viz: unknown -out %q", *out)
	}
}

// printPlan schedules the graph with the semantics-aware policy over a
// synthetic pool and prints the placement: policy, estimate, per-device
// node counts, keeps, pipeline stages, and cross-device transfers.
func printPlan(g *srg.Graph, devices int) error {
	cs := cluster.NewState()
	for i := 0; i < devices; i++ {
		if err := cs.AddAccelerator(&cluster.Accelerator{
			ID:   cluster.AcceleratorID(fmt.Sprint("gpu", i)),
			Spec: device.A100,
			Link: cluster.Link{Bandwidth: 25e9 / 8, RTT: 200 * time.Microsecond},
		}); err != nil {
			return err
		}
	}
	plan, err := scheduler.Schedule(g, cs, scheduler.SemanticsAware{},
		scheduler.NewCostModel(scheduler.RDMAProfile))
	if err != nil {
		return err
	}
	fmt.Printf("policy: %s\nestimate: %v\n", plan.Policy, plan.Estimate)
	report := scheduler.ShardReport(plan)
	fmt.Println("placement:")
	for i := 0; i < devices; i++ {
		id := cluster.AcceleratorID(fmt.Sprint("gpu", i))
		st := report.PerDevice[id]
		fmt.Printf("  %-6s %d compute nodes, %d weight bytes\n", id, st.Ops, st.WeightBytes)
	}
	fmt.Printf("cut edges: %d (%d activation bytes)\n", report.CutEdges, report.CutBytes)
	fmt.Printf("keep-remote: %d objects\n", len(plan.KeepRemote))
	fmt.Printf("pipeline stages: %d\n", len(plan.PipelineStages))
	fmt.Printf("cross-device transfers: %d edges\n", len(plan.CrossDeviceEdges()))
	return nil
}

func buildModel(name string) (*srg.Graph, error) {
	rng := rand.New(rand.NewSource(1))
	switch name {
	case "gpt-prefill":
		m := models.NewGPT(rng, models.TinyGPT)
		b, _ := m.BuildPrefill([]int64{1, 2, 3, 4, 5, 6, 7, 8})
		return b.Graph(), nil
	case "gpt-decode":
		m := models.NewGPT(rng, models.TinyGPT)
		caches := make([]*nn.KVCache, m.Cfg.Layers)
		for i := range caches {
			caches[i] = &nn.KVCache{
				K: tensor.New(tensor.F32, 8, m.Cfg.Dim),
				V: tensor.New(tensor.F32, 8, m.Cfg.Dim),
			}
		}
		b, _ := m.BuildDecodeStep(1, 8, 8, caches)
		return b.Graph(), nil
	case "cnn":
		m := models.NewCNN(rng, models.TinyCNN)
		b, _ := m.BuildForward(tensor.New(tensor.F32, 3, 32, 32))
		return b.Graph(), nil
	case "dlrm":
		m := models.NewDLRM(rng, models.TinyDLRM)
		b, _ := m.BuildForward(models.DLRMRequest{
			Dense:     tensor.New(tensor.F32, 1, models.TinyDLRM.DenseFeatures),
			SparseIDs: [][]int64{{1, 2}, {3}, {4, 5}},
		})
		return b.Graph(), nil
	case "multimodal":
		m := models.NewMultiModal(rng, models.TinyCNN, 64, 16, 8)
		b, _ := m.BuildForward(tensor.New(tensor.F32, 3, 32, 32), []int64{1, 2, 3})
		return b.Graph(), nil
	}
	return nil, fmt.Errorf("genie-viz: unknown model %q", name)
}

func printStats(g *srg.Graph) {
	byOp := map[string]int{}
	byPhase := map[srg.Phase]int{}
	for _, n := range g.Nodes() {
		byOp[n.Op]++
		byPhase[n.Phase]++
	}
	fmt.Printf("graph %q: %d nodes, %d edges, fingerprint %s\n",
		g.Name, g.Len(), len(g.Edges()), g.Fingerprint())
	cost := g.TotalCost()
	fmt.Printf("total cost: %.2f MFLOPs, %.2f MB touched\n", cost.FLOPs/1e6, float64(cost.Bytes)/1e6)
	fmt.Println("ops:")
	for op, n := range byOp {
		fmt.Printf("  %-14s %d\n", op, n)
	}
	fmt.Println("phases:")
	for p, n := range byPhase {
		name := string(p)
		if name == "" {
			name = "(untagged)"
		}
		fmt.Printf("  %-14s %d\n", name, n)
	}
}
