// Command faulttolerance demonstrates §3.5's recovery by recompute: a
// GPT decode loop runs semantics-aware against a primary backend that
// holds the weights and the KV cache; mid-generation the primary
// crashes, losing all resident state. The lost state is exactly the
// prefill state of the longer prompt — prompt ‖ the tokens generated so
// far — so a session on a standby rebuilds it with one prefill over
// that token log and decoding continues, producing the tokens a
// failure-free run would.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"

	"genie"
)

func main() {
	primarySrv, primary := startServer()
	standbySrv, standby := startServer()

	model := genie.NewGPTModel(rand.New(rand.NewSource(2026)), genie.TinyGPT)
	prompt := []int64{9, 41, 7, 23, 60}
	const total = 7

	// Decode on the primary.
	run := &genie.LLMRunner{Model: model, EP: primary}
	if _, err := run.InstallModelWeights(); err != nil {
		log.Fatal(err)
	}
	sess, err := run.NewScopedSession(genie.ModeSemAware, "req1/")
	if err != nil {
		log.Fatal(err)
	}
	tok, err := sess.Prefill(prompt)
	if err != nil {
		log.Fatal(err)
	}
	tokens := []int64{tok}
	for len(tokens) < 3 {
		if tok, err = sess.Step(); err != nil {
			log.Fatal(err)
		}
		tokens = append(tokens, tok)
	}
	fmt.Printf("generated %v, then PRIMARY CRASHES (all resident state lost)\n", tokens)
	primarySrv.Crash()
	if _, err := sess.Step(); err == nil {
		log.Fatal("a step on the crashed primary succeeded")
	} else {
		fmt.Printf("next step on the primary fails: %v\n", err)
	}

	// Resume on the standby: weights install from the client's copy, and
	// one prefill over the token log rebuilds every lost KV row.
	run = &genie.LLMRunner{Model: model, EP: standby}
	if _, err := run.InstallModelWeights(); err != nil {
		log.Fatal(err)
	}
	sess, err = run.NewScopedSession(genie.ModeSemAware, "req1/")
	if err != nil {
		log.Fatal(err)
	}
	tok, err = sess.Prefill(append(append([]int64(nil), prompt...), tokens...))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed on the standby with %d recovery exec (one prefill over %d logged tokens)\n",
		standbySrv.Stats().ExecCalls, len(prompt)+len(tokens))
	tokens = append(tokens, tok)
	for len(tokens) < total {
		if tok, err = sess.Step(); err != nil {
			log.Fatal(err)
		}
		tokens = append(tokens, tok)
	}
	fmt.Printf("resumed generation: %v\n", tokens)

	// Cross-check against an uninterrupted run.
	ref, err := (&genie.LLMRunner{Model: model}).Generate(genie.ModeLocal, prompt, total)
	if err != nil {
		log.Fatal(err)
	}
	for i, want := range ref.Tokens {
		if tokens[i] != want {
			log.Fatalf("recovered run diverged at %d: %v vs %v", i, tokens, ref.Tokens)
		}
	}
	fmt.Println("tokens identical to a failure-free run — the KV was rebuilt from the token log, not replayed step by step")
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
