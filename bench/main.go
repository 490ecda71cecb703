// Command bench is the serving benchmark: a self-contained load
// generator and harness that assembles the topologies cmd/genie-gateway
// builds — serve.NewEngine over lanes of plain runtime.LLMRunners,
// kvcache.NewSplit and pool.Manager — against in-process backends on
// loopback TCP, drives six named workloads, checks token correctness
// and prints every metric by name with its unit.
//
//	go run ./bench -workload all -seed 11 -out a.json     # end-to-end metrics
//	go run ./bench -workload decode_rpc -trace 1          # per-layer metrics + token budget
//	go run ./bench -compare a.json b.json                 # regression verdicts
//	go run ./bench -sweep                                 # chat_open at 6/12/18/24 req/s
//
// See README.md in this directory for the workloads, the metrics and
// how a later change states a claim against them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"genie/internal/compute"
)

// header makes a result file self-describing.
type header struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"compute_workers"`
	// KernelWorkersEnv is GENIE_KERNEL_WORKERS as found (normally unset).
	KernelWorkersEnv string `json:"genie_kernel_workers"`
	Seed             int64  `json:"seed"`
	// Requests is the timed request count of each workload.
	Requests map[string]int `json:"requests"`
}

func newHeader(seed int64) header {
	h := header{
		Commit: commit(), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: compute.Workers(),
		KernelWorkersEnv: os.Getenv(compute.EnvWorkers),
		Seed:             seed, Requests: map[string]int{},
	}
	for _, w := range workloads {
		h.Requests[w.name] = w.requests
	}
	return h
}

// commit is the revision the binary was built from: the toolchain's VCS
// stamp, else $BENCH_COMMIT (go run does not stamp), else "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func (h header) print() {
	fmt.Printf("# bench: commit %s, %s, nproc %d, GOMAXPROCS %d, compute.Workers %d, GENIE_KERNEL_WORKERS=%q, seed %d\n",
		h.Commit, h.GoVersion, h.NProc, h.GOMAXPROCS, h.Workers, h.KernelWorkersEnv, h.Seed)
	var parts []string
	for _, w := range workloads {
		parts = append(parts, fmt.Sprintf("%s=%d", w.name, h.Requests[w.name]))
	}
	fmt.Printf("# timed requests: %s\n", strings.Join(parts, " "))
	fmt.Println("# cpu_s_per_ktok, alloc_kb_per_tok and heap_peak_mb cover the whole process: generator + gateway side + in-process backends")
}

// resultFile is what -out writes and -compare reads: a header and every
// run appended to the file so far.
type resultFile struct {
	Header header       `json:"header"`
	Runs   []*runResult `json:"runs"`
}

// appendResults adds runs to the file at path, creating it if needed.
func appendResults(path string, h header, runs []*runResult) error {
	var doc resultFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("bench: %s: %w", path, err)
		}
	}
	doc.Header = h
	doc.Runs = append(doc.Runs, runs...)
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// contractLine is the machine-readable last line of standard output.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractOf carries the metrics BENCHMARK.json names for the runs'
// mode: the gated end-to-end metrics of untraced runs, every metric of
// traced ones. It covers every workload that ran: attempted and failed
// are summed, and when several workloads ran each metric is named
// <workload>.<metric>.
func contractOf(runs []*runResult) contractLine {
	line := contractLine{Correct: true, Metrics: map[string]contractValue{}}
	gated := map[string]bool{}
	for _, d := range gatedEndToEnd() {
		gated[d.name] = true
	}
	for _, r := range runs {
		line.Correct = line.Correct && r.correct()
		line.Attempted += r.Timed.Sent
		line.Failed += r.failed()
		for _, m := range r.Metrics {
			if !r.Trace && !gated[m.Name] {
				continue
			}
			name := m.Name
			if len(runs) > 1 {
				name = r.Workload + "." + m.Name
			}
			line.Metrics[name] = contractValue{Value: m.Value, Unit: m.Unit}
		}
	}
	return line
}

func (r *runResult) print() {
	mode := "end-to-end (untraced)"
	if r.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Printf("\n== %s: %s, seed %d, %d requests ==\n", r.Workload, mode, r.Seed, r.Requests)
	fmt.Printf("requests  warm-up: sent %d ok %d failed %d refused %d | timed: sent %d ok %d failed %d refused %d | parity: %d checked, %d mismatched\n",
		r.Warmup.Sent, r.Warmup.OK, r.Warmup.Failed, r.Warmup.Refused,
		r.Timed.Sent, r.Timed.OK, r.Timed.Failed, r.Timed.Refused, r.ParityChecks, r.ParityFails)
	if r.FirstError != "" {
		fmt.Printf("first error: %s\n", r.FirstError)
	}
	fmt.Printf("tokens_sha256 %s\n", r.TokensSHA256)
	printMetrics := func(ms []metric) {
		for _, m := range ms {
			n := ""
			if m.N > 0 {
				n = fmt.Sprintf("  (n=%d)", m.N)
			}
			if m.NA {
				fmt.Printf("  %-38s %14s %-10s\n", m.Name, "n/a", m.Unit)
				continue
			}
			fmt.Printf("  %-38s %14.6g %-10s%s\n", m.Name, m.Value, m.Unit, n)
		}
	}
	printMetrics(r.Metrics)
	if len(r.Diagnostics) > 0 {
		fmt.Println(" diagnostics (not gated):")
		printMetrics(r.Diagnostics)
	}
	if r.Budget != nil {
		r.Budget.print()
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", 11, "workload seed: prompts, lengths and arrivals (weights are fixed)")
		_            = flag.Int("seconds", 0, "accepted because the benchmark driver passes it; a run's work is its workload's fixed request count")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics and token budget from a traced run")
		out          = flag.String("out", "", "append the runs to this JSON result file")
		spans        = flag.String("spans", "", "with -trace 1: write the recorded spans to this JSON file")
		compare      = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
		sweep        = flag.Bool("sweep", false, "rerun chat_open at 6/12/18/24 req/s and report the highest rate meeting the SLO")
	)
	flag.Parse()
	ctx := context.Background()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	h := newHeader(*seed)
	h.print()
	if *sweep {
		return runSweep(ctx, *seed)
	}

	todo := workloads
	if *workloadName != "all" {
		w, err := findWorkload(*workloadName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		todo = []*workload{w}
	}
	sc := fullScale
	sc.spansOut = *spans
	var runs []*runResult
	code := 0
	for _, w := range todo {
		var res *runResult
		var err error
		if *trace != 0 {
			res, err = runTraced(ctx, w, *seed, sc)
		} else {
			res, err = runUntraced(ctx, w, *seed, sc)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		res.print()
		runs = append(runs, res)
		if !res.correct() {
			code = 1
		}
	}
	if *out != "" {
		if err := appendResults(*out, h, runs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if code != 0 {
		fmt.Fprintln(os.Stderr, "bench: FAILED: a request failed, was refused or served wrong tokens")
		return code
	}
	// The machine-readable result is the last line of standard output.
	line, err := json.Marshal(contractOf(runs))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("\n%s\n", line)
	return 0
}
