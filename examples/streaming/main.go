// Command streaming demonstrates the production serving surface on top
// of semantics-aware disaggregation: tokens stream to the caller as each
// remote decode step completes, and the context cancels generation
// mid-stream. Everything runs against a real TCP backend.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"
	"time"

	"genie"
)

func main() {
	srv := genie.NewServer(genie.A100)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	go func() { _ = genie.Serve(srv, l) }()

	client, err := genie.Dial(l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	rng := rand.New(rand.NewSource(7))
	runner := &genie.LLMRunner{
		Model:    genie.NewGPTModel(rng, genie.TinyGPT),
		EP:       client,
		Counters: client.Conn().Counters(),
	}
	prompt := []int64{11, 42, 7, 3, 19}

	// Full stream: every token arrives as its decode step completes.
	fmt.Println("streaming 8 tokens (semantics-aware mode, live TCP backend):")
	start := time.Now()
	for tok := range runner.Stream(context.Background(), genie.ModeSemAware, prompt, 8) {
		if tok.Err != nil {
			log.Fatal(tok.Err)
		}
		fmt.Printf("  t=%6s  token[%d] = %d\n",
			time.Since(start).Round(time.Millisecond), tok.Index, tok.ID)
	}

	// Cancellation: the client walks away after three tokens; generation
	// stops at the next step boundary instead of burning the backend.
	fmt.Println("\ncancelling after 3 tokens:")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	received := 0
	for tok := range runner.Stream(ctx, genie.ModeSemAware, prompt, 100) {
		if tok.Err != nil {
			fmt.Printf("  stream ended: %v\n", tok.Err)
			break
		}
		received++
		fmt.Printf("  token[%d] = %d\n", tok.Index, tok.ID)
		if received == 3 {
			cancel()
		}
	}
	fmt.Printf("backend served %d tokens of a 100-token request — the rest was never computed\n", received)

	sent, recv, calls := client.Conn().Counters().Snapshot()
	fmt.Printf("\ntotal wire traffic: %.1f KB sent, %.1f KB received, %d RPCs\n",
		float64(sent)/1e3, float64(recv)/1e3, calls)
}
