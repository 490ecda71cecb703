package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"genie/internal/backend"
	"genie/internal/device"
	"genie/internal/models"
	"genie/internal/quant"
	"genie/internal/runtime"
	"genie/internal/tensor"
	"genie/internal/tensor/ops"
	"genie/internal/transport"
)

// printWire measures the raw-speed tier (DESIGN.md §11) live: the
// quantized decode-step kernels against f32, and bytes-on-wire for the
// blind disaggregation modes with and without the negotiated wire
// features (dedup + compression + resident plans). Real kernels, real
// framed bytes over an in-process pipe — wall-clock CPU numbers, not
// the tables' modeled GPU times.
func printWire() {
	fmt.Println("== W: raw-speed tier (quantized kernels + wire features) ==")
	printWireKernels()
	printWireBytes()
}

// timeDecodeMatMul times the m=1 GEMV-shaped matmul (one decode step's
// dominant kernel), best of 5.
func timeDecodeMatMul(a, w *tensor.Tensor) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 5; i++ {
		start := time.Now()
		out, err := ops.MatMul(a, w)
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

func printWireKernels() {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range [][2]int{{1024, 4096}, {2048, 2048}} {
		k, n := dims[0], dims[1]
		a := tensor.New(tensor.F32, 1, k)
		a.RandN(rng, 1)
		w := tensor.New(tensor.F32, k, n)
		w.RandN(rng, 0.02)
		qw, err := quant.QuantizeLinear(w, 1)
		if err != nil {
			log.Fatal(err)
		}
		hw := w.ToF16()
		f32t := timeDecodeMatMul(a, w)
		i8t := timeDecodeMatMul(a, qw)
		f16t := timeDecodeMatMul(a, hw)
		fmt.Printf("decode matmul 1x%dx%d: f32 %7.1fµs | int8 %7.1fµs (%.2fx) | f16 %7.1fµs (%.2fx)\n",
			k, n,
			float64(f32t.Microseconds()), float64(i8t.Microseconds()),
			float64(f32t)/float64(i8t),
			float64(f16t.Microseconds()), float64(f32t)/float64(f16t))
	}
	fmt.Println("(m=1 decode shape; int8 runs the packed SWAR kernel — four weight columns per")
	fmt.Println(" 64-bit multiply, exact int32 dots, dequant on store. f16 stays slower than f32")
	fmt.Println(" at m=1: its k*n widen pass amortizes over one output row — pick f16 for")
	fmt.Println(" capacity, int8 for speed)")
}

// wireRun generates tokens in one mode over a fresh in-process backend
// and reports total on-wire bytes (both directions) and tokens moved.
func wireRun(mode runtime.Mode, negotiate bool) (bytesTotal int64, tokens int) {
	srv := backend.NewServer(device.A100)
	ctr := &transport.Counters{}
	cc, sc := transport.Pipe(ctr, nil)
	defer cc.Close()
	go func() { _ = srv.Serve(sc) }()
	client := transport.NewClient(cc)
	if negotiate {
		if _, err := client.Negotiate(nil, transport.FeatAll); err != nil {
			log.Fatal(err)
		}
	}
	r := &runtime.LLMRunner{
		Model:    models.NewGPT(rand.New(rand.NewSource(1)), models.TinyGPT),
		EP:       client,
		Counters: ctr,
	}
	const steps = 8
	res, err := r.Generate(mode, []int64{3, 14, 15, 9}, steps)
	if err != nil {
		log.Fatal(err)
	}
	return ctr.Total(), len(res.Tokens)
}

func printWireBytes() {
	fmt.Printf("%-16s %14s %14s %9s\n", "mode", "legacy B/tok", "feats B/tok", "reduction")
	for _, m := range []runtime.Mode{runtime.ModeNaive, runtime.ModeDeltaKV} {
		legacyB, legacyTok := wireRun(m, false)
		featB, featTok := wireRun(m, true)
		lpt := float64(legacyB) / float64(legacyTok)
		fpt := float64(featB) / float64(featTok)
		fmt.Printf("%-16s %14.0f %14.0f %8.1fx\n", m, lpt, fpt, lpt/fpt)
	}
	fmt.Println("(8 decode steps over TinyGPT on an in-process pipe; feats = dedup +")
	fmt.Println(" compression + resident plans negotiated via MsgHello. Naive mode")
	fmt.Println(" re-ships every weight per call, so dedup collapses repeats to 32-byte")
	fmt.Println(" refs — the reduction shrinks toward compression-only as runs lengthen")
	fmt.Println(" past the first full send)")
	fmt.Println()
}
