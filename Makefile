GO ?= go

.PHONY: build test race vet check fuzz-smoke fuzz-native chaos chaos-store serve-smoke cluster-smoke bench bench-sat bench-sweep bench-gate

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-check the packages with concurrent code paths (the parallel SAT
# sweep, the SAT substrate it drives, the job scheduler's worker pool and
# the engines its workers run side by side, the fault-injection plumbing
# they share, the daemon's HTTP handlers, the certificate checker the
# workers consult concurrently, the ingestion/PQE layers the daemon calls
# from its handler goroutines, and the cluster coordinator fanning cube
# subproblems across workers).
race:
	$(GO) test -race ./internal/sat ./internal/aig ./internal/cert ./internal/oracle ./internal/core ./internal/defex ./internal/expand ./internal/service ./internal/store ./internal/faults ./internal/leakcheck ./internal/problem ./internal/pqe ./internal/httpapi ./internal/cluster ./internal/cube ./cmd/hqsd

# Differential fuzzing smoke run: 200 random instances, every solver
# configuration against the brute-force reference, with Skolem certificate
# extraction and checking on every HQS SAT answer. The seed is pinned so the
# gate checks the same corpus on every run.
fuzz-smoke:
	$(GO) run ./cmd/dqbffuzz -n 200 -seed 1 -cert

# Native go-fuzz harnesses, run briefly from the committed corpora: the
# DQDIMACS reader (no panics; accepted input round-trips), the AIGER reader
# (no panics; accepted input normalizes to a read/write fixpoint), the AIG
# compose/cofactor identities the certificate extractor relies on, and the
# two decoders of untrusted certificate bytes — the certificate wire codec
# and the store entry format (no panics; accepted input re-encodes to a
# fixpoint) — and the text problem decoders behind ParseBytes (QDIMACS,
# BENCH and PQE hints plus autodetection; no panics; an accepted input
# parses again to the same canonical hash).
fuzz-native:
	$(GO) test ./internal/dqbf -run '^$$' -fuzz FuzzDQDIMACSReader -fuzztime 10s
	$(GO) test ./internal/problem -run '^$$' -fuzz FuzzAIGERReader -fuzztime 10s
	$(GO) test ./internal/aig -run '^$$' -fuzz FuzzAIGCompose -fuzztime 10s
	$(GO) test ./internal/cert -run '^$$' -fuzz FuzzCertDecode -fuzztime 10s
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzEntryUnmarshal -fuzztime 10s
	$(GO) test ./internal/problem -run '^$$' -fuzz FuzzParseBytes -fuzztime 10s

# Chaos drill under the race detector: fault-injected panics, errors, and
# spurious Unknowns against the scheduler with concurrent submits, cancels,
# and drains.
chaos:
	$(GO) test -race -run 'TestChaos|TestDrainRace' -v ./internal/service

# Disk-fault chaos drill for the persistent store, also under the race
# detector: kill-and-restart durability, torn writes, truncations, bit
# flips, journal tails torn mid-append, concurrent readers/writers, and the
# store.read/store.write/store.corrupt fault points driven against a live
# scheduler (verdicts must never change, only hit rates).
chaos-store:
	$(GO) test -race -run 'TestStore|TestEntry|TestSchedulerStore' -v ./internal/store ./internal/service

# The PR gate: gofmt over every tracked Go file, vet, the full test suite,
# the same two for the benchmark module (hqsbench is its own Go module, so
# ./... never reaches it), the race pass, the certified fuzz smoke, the
# native fuzz harnesses, both chaos drills, the daemon and cluster smoke
# tests against the real binaries, and the benchmark gate.
check:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	$(GO) vet ./...
	$(GO) test ./...
	cd hqsbench && $(GO) vet ./... && $(GO) test ./...
	$(MAKE) race
	$(MAKE) fuzz-smoke fuzz-native
	$(GO) test -race -run 'TestChaos|TestDrainRace' ./internal/service
	$(GO) test -race -run 'TestStore|TestEntry|TestSchedulerStore' ./internal/store ./internal/service
	$(MAKE) serve-smoke
	$(GO) test -tags smoke -run TestClusterSmoke ./cmd/hqsc
	$(MAKE) bench-gate

# End-to-end service smoke tests: build hqsd, start it, solve the example
# instance over HTTP in portfolio mode, drain gracefully via SIGTERM; then
# the persistence drill — solve with -store, kill -9, restart, and the
# result must be served from disk with its certificate re-verified.
serve-smoke:
	$(GO) test -tags smoke -run 'TestServeSmoke|TestStoreKillRecoverySmoke' -v ./cmd/hqsd

# End-to-end cluster smoke: build hqsd and hqsc, start two workers under a
# coordinator, solve the example through the cluster with a certificate,
# SIGKILL one worker (the kill-one drill — the survivor must keep answering
# and /stats must mark the victim unreachable), then drain gracefully.
cluster-smoke:
	$(GO) test -tags smoke -run TestClusterSmoke -v ./cmd/hqsc

# SAT-core microbenchmarks (propagation throughput, clause arena behavior).
bench-sat:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/sat

# Sweep wall-clock, serial vs worker pool, and the per-query cost of the
# persistent sweep oracle (cone-scoped vs unscoped equivalence queries).
bench-sweep:
	$(GO) test -run '^$$' -bench 'BenchmarkSweep' -benchmem ./internal/aig
	$(GO) test -run '^$$' -bench 'BenchmarkProveEquiv' -benchmem ./internal/oracle

# End-to-end paper evaluation benchmarks (Table I, Fig. 4, ablations).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# The benchmark gate: one pass of hqsbench's hqs_hard workload (33 hard PEC
# instances; every verdict is compared with a committed reference verdict and
# every SAT certificate is checked), then hqsbench's attribution self-check
# (planted aig.sweep latency must be charged to the sweep passes). The binary
# is built with the Go cache the hqsbench tests in `check` have just warmed.
# hqsbench exits 0 on a wrong verdict, so the recipe reads the JSON result
# line itself: correct, no failed solve and ok_frac 1. It sets no bound on
# solve_s_total: on a 2-vCPU Intel Xeon host (go1.24.0, 50 runs each) the
# unchanged tree read up to 3.58 s and a planted 2x core.Solve slowdown as
# little as 3.02 s, as the host drifts by up to 1.5x within minutes
# (EXPERIMENTS.md "One benchmark gate").
bench-gate:
	mkdir -p .bench_build
	cd hqsbench && $(GO) build -o ../.bench_build/hqsbench-bin .
	./.bench_build/hqsbench-bin --workload hqs_hard --seed 1 --seconds 1 --trace 0 > .bench_build/bench-gate.out || { cat .bench_build/bench-gate.out; exit 1; }
	cat .bench_build/bench-gate.out
	tail -n 1 .bench_build/bench-gate.out | grep '"correct":true' | grep '"failed":0,' | grep -q '"ok_frac":{"value":1,' || { echo 'bench-gate: FAIL: a verdict, certificate or solve failed'; exit 1; }
	./.bench_build/hqsbench-bin -check-attribution
