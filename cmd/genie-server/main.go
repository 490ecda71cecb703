// Command genie-server runs a disaggregated accelerator backend: it
// answers the Genie wire protocol on a TCP address, holding remote
// resident objects (weights, KV caches) and executing SRG subgraphs
// shipped by clients.
//
// SIGINT/SIGTERM triggers a graceful shutdown: the listener closes (no
// new connections), requests already in flight get their replies, then
// the process exits.
//
// With -metrics-addr set, a second HTTP listener serves GET /metrics
// (Prometheus text: exec/upload counters, GPU-busy time, resident
// bytes) and GET /debug/trace (Chrome trace JSON). Per-RPC spans carry
// the trace/span IDs clients send in frame envelopes, so a gateway's
// trace and the server's stitch into one tree.
//
// Usage:
//
//	genie-server -addr :7009 -device a100-80g -metrics-addr :9009
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"genie/internal/backend"
	"genie/internal/compute"
	"genie/internal/device"
	"genie/internal/obs"
	"genie/internal/quant"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7009", "TCP address to listen on")
	dev := flag.String("device", "a100-80g", "modeled device (a100-80g, h100-80g, a10g-24g, cpu-host)")
	metricsAddr := flag.String("metrics-addr", "",
		"HTTP address for GET /metrics and /debug/trace (empty = observability off)")
	memBytes := flag.Int64("mem-bytes", 0,
		"override the modeled device memory capacity in bytes (0 = device default; "+
			"small values force a pool gateway to shard the model across backends)")
	quantMode := flag.String("quant", "off",
		"weight quantization policy applied at upload admission: off, int8, f16 "+
			"(rank-2 f32 tensors under *.w keys are stored in the cheap dtype)")
	wireCompress := flag.Bool("wire-compress", true,
		"offer wire features (compression, dedup, resident plans) to clients that negotiate; "+
			"false pins every connection to the legacy byte-identical protocol")
	flag.Parse()

	qm, err := quant.ParseMode(*quantMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	spec, err := device.ByName(*dev)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *memBytes > 0 {
		spec.MemBytes = *memBytes
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("genie-server: %v", err)
	}
	log.Printf("genie-server: %s backend listening on %s (%d kernel workers)",
		spec.Name, l.Addr(), compute.Workers())
	srv := backend.NewServer(spec)
	srv.SetQuantPolicy(qm)
	if !*wireCompress {
		srv.SetWireFeatures(0)
	}

	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		srv.Instrument(reg)
		tracer := obs.NewTracer(obs.TracerConfig{Proc: "server"})
		defer tracer.Stop()
		srv.SetTracer(tracer)
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg)
		mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = obs.WriteChromeTrace(w, tracer.Snapshot())
		})
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				log.Printf("genie-server: metrics listener: %v", err)
			}
		}()
		log.Printf("genie-server: metrics on http://%s/metrics", *metricsAddr)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		log.Printf("genie-server: %s, draining (in-flight requests finish, then exit)", sig)
		_ = l.Close() // stop accepting
		srv.Drain()   // close idle conns; busy conns finish their reply
	}()

	// Listen returns only after every per-connection Serve loop exits.
	if err := srv.Listen(l); err != nil {
		log.Fatalf("genie-server: %v", err)
	}
	log.Printf("genie-server: drained, exiting")
}
