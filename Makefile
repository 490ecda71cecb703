# Genie build/test entry points. `make check` is the gate every change
# must pass: full build, vet, genie-lint (the domain-specific analyzers
# in internal/analysis), and the test suite under the race detector
# (the serving engine is aggressively concurrent). `make test-short`
# is the fast inner loop.

GO ?= go

# COUNT repeats the chaos, brownout and pool suites (-count); the
# nightly soak runs them with COUNT=8.
COUNT ?= 1

.PHONY: all build vet lint test test-short race check bench bench-kernels parity chaos pool wire prefixcache brownout

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/genie-lint ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

check: build vet lint race parity prefixcache

bench:
	$(GO) run ./cmd/genie-bench

# Kernel microbenchmarks: tiled matmul vs the naive reference, softmax,
# layernorm, gelu, and the end-to-end decode step (allocs/op tracks the
# scratch arena's reuse rate).
bench-kernels:
	$(GO) test ./internal/tensor/ops -run xxx -bench . -benchmem
	$(GO) test ./internal/runtime -run xxx -bench 'BenchmarkDecodeStep|BenchmarkPrefill' -benchmem

# Parity under the race detector. Kernels: every parallelized kernel
# bit-identical to its serial reference at every worker count. Sessions:
# the generated matrix (placement x KV residency x wire mode x frame tier
# x driver — every configuration of the one session executor emits the
# in-process oracle's tokens and accounts for its state the same way)
# and the frame golden (the configurations the benchmark runs put
# byte-identical Exec frames on the wire).
parity:
	$(GO) test -race -run 'Parity|GrainInvariance' ./internal/tensor/ops -count=1
	$(GO) test -race -run 'SessionParityMatrix|FrameGolden' ./internal/runtime -count=1

# Sharded backend pool under the race detector: plan strategies, 2-way
# sharding and its traffic counters, voluntary leave and chaos crash
# mid-decode (byte-identical completion), and the join/leave/join churn
# soak with goroutine-leak checks.
pool:
	$(GO) test -race -count=$(COUNT) ./internal/pool/ -run .

# Negotiated wire tier (DESIGN.md §11) under the race detector: the one
# binary codec every wire format is written in (internal/codec) and the
# SRG encoding on it — decode round trips, the u16 string limit and the
# decoder fuzz seeds (go test runs each Fuzz* seed corpus as unit
# cases); codec round trips for the ref/compressed frames, the inflate
# bound on a compressed frame's length claim, which decode failures are
# FrameErrors, pooled-encoder equivalence, the pinned message-type and
# feature-bit numbers, and the end-to-end contracts — feature
# negotiation, content-hash dedup, the retired delta number and bit
# answered as unknown and never granted, legacy byte-identity with
# features off, and the quantize-on-upload policy. Resident step plans:
# the graph diff/apply pair and the non-mutating fingerprint (srg), the
# plan frame codec, slot mirror and the round-trip lock it relies on
# (transport), and slot life cycle over a real Serve loop (backend).
# Every alternative names at least one test (go test -list).
wire:
	$(GO) test -race -count=1 ./internal/codec/ -run 'Codec|Str|Reader'
	$(GO) test -race -count=1 ./internal/srg/ -run 'Diff|Fingerprint|Decode|Fuzz'
	$(GO) test -race -count=1 ./internal/transport/ -run 'Fuzz|Pooled|Ref|Compress|Decompress|ErrorClasses|Plan|RoundTrips|Numbers'
	$(GO) test -race -count=1 ./internal/backend/ -run 'Negotiate|Dedup|Compress|Legacy|QuantPolicy|Plan|Retired'

# Prefix KV cache + prefill/decode split under the race detector:
# radix lookup/insert/split/evict mechanics, the exact ΔKV handoff and
# warm-prefix dedup, ref-count churn with goroutine-leak checks, a
# failed prefill lane surfacing its error, session key accounting, and
# the suffix-only extend graph the cache rides on (token parity cache
# on/off and split vs colocated is `make parity`).
prefixcache:
	$(GO) test -race -count=1 ./internal/kvcache/ -run .
	$(GO) test -race -count=1 ./internal/runtime/ -run 'Resident|CloseFrees'
	$(GO) test -race -count=1 ./internal/models/ -run 'PrefillExtend'

# Fail-slow tolerance suite under the race detector (DESIGN.md §13):
# the health scorer's state machine and deadline math, brownout
# schedule determinism (arming a brownout must not shift the seeded
# fault stream), quarantine drain / suspect demotion in the serving
# engine, health-weighted shard planning, hedged-prefill dedup and
# backup-win races, and the end-to-end brownout smoke (one lane slowed,
# zero failures, bit-identical tokens).
brownout:
	$(GO) test -race -count=$(COUNT) ./internal/health/ -run .
	$(GO) test -race -count=$(COUNT) ./internal/chaos/ -run 'Brownout'
	$(GO) test -race -count=$(COUNT) ./internal/serve/ -run 'Quarantin|Suspect|Healthz|Healthy'
	$(GO) test -race -count=$(COUNT) ./internal/pool/ -run 'Health'
	$(GO) test -race -count=$(COUNT) ./internal/kvcache/ -run 'Hedge'
	$(GO) test -race -count=$(COUNT) ./internal/eval/ -run 'Brownout'

# Fault-tolerance suite under the race detector: deterministic chaos
# injection, hung-peer deadlines, lane-gate trips and trials, resume
# from the token log (bit-identical KV and tokens from one prefill, the
# session core's repair rule), and crash/leave mid-decode in the pool and
# the serving engine (bit-identical tokens after recovery, one prefill
# of recovery cost), and the end-to-end crash run checked against its
# fault-free baseline's tokens (internal/eval). GENIE_CHAOS_SEED pins
# the fault schedule when reproducing.
# Every alternative below names at least one test (go test -list): a
# regex that matches nothing passes silently.
chaos:
	$(GO) test -race -count=$(COUNT) ./internal/chaos/ -run .
	$(GO) test -race -count=$(COUNT) ./internal/transport/ -run 'Retrier|CallCtx|Poison|Corrupt|Classify|StateLoss|Frame'
	$(GO) test -race -count=$(COUNT) ./internal/runtime/ -run 'Resume'
	$(GO) test -race -count=$(COUNT) ./internal/pool/ -run 'CrashMidDecode|LeaveMidDecode'
	$(GO) test -race -count=$(COUNT) ./internal/serve/ -run 'Crash|HungPeer|RetryBudget|Trip|CallerDeadline'
	$(GO) test -race -count=$(COUNT) ./internal/eval/ -run 'ChaosServing'
