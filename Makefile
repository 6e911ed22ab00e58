GO                  ?= go
DATE                := $(shell date +%Y%m%d)
BENCH_BASELINE      ?= BENCH_20260808.json
FUZZTIME            ?= 30s
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4
DOCKER_IMAGE        ?= hcsim:dev
# golden and the race targets run go test through this script, which fails
# when a -run pattern selects no test in a package (go test itself passes
# such a run as "[no tests to run]").
SELECTED_TEST       := GO=$(GO) ./scripts/go_test_selected.sh
# Statement-coverage floors. Each is set to (just under) the measured
# coverage when its guard was introduced; raise a floor when coverage
# durably improves, never lower one to make a PR pass.
#  - internal/cluster: the package where a silent test regression would
#    hurt most (detection, gate buffering, the wide-window driver).
#  - internal/report, internal/metrics: the rendering and accounting
#    surfaces every experiment's output flows through.
#  - internal/telemetry: the probe/sampler/export layer whose zero-cost
#    and determinism contracts the rest of the repo leans on.
#  - internal/server: the daemon's admission, drain, and what-if surfaces
#    (handler tables, backpressure, graceful-drain ordering, config
#    validation).
CLUSTER_COVER_FLOOR   ?= 90.0
REPORT_COVER_FLOOR    ?= 94.0
METRICS_COVER_FLOOR   ?= 95.0
TELEMETRY_COVER_FLOOR ?= 88.0
SERVER_COVER_FLOOR    ?= 84.0

.PHONY: build vet fmt-check test ci lint vulncheck bench bench-smoke bench-guard golden golden-update fuzz-smoke race-stream race-cluster race-telemetry race-serve cover check-tree serve-smoke docker-build loc calibrate-offset

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails, listing the files, when any Go file is not
# gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Everything the CI test job runs, in the same order via the same targets —
# the workflow (.github/workflows/ci.yml) calls these recipes instead of
# restating them, so this file is the single source of truth for what green
# means. (The lint job is separate: it downloads staticcheck, so it is not
# part of the offline ci target.)
ci: check-tree fmt-check vet build test cover golden race-stream race-telemetry race-serve fuzz-smoke bench-smoke bench-guard

# Per-package statement coverage, with hard floors on the gated packages:
# the build fails if any of them drops below its floor. Other packages are
# reported but not gated.
cover:
	$(GO) test -cover ./... | tee /tmp/cover_raw.txt
	@for gate in \
		"taskprune/internal/cluster $(CLUSTER_COVER_FLOOR)" \
		"taskprune/internal/report $(REPORT_COVER_FLOOR)" \
		"taskprune/internal/metrics $(METRICS_COVER_FLOOR)" \
		"taskprune/internal/telemetry $(TELEMETRY_COVER_FLOOR)" \
		"taskprune/internal/server $(SERVER_COVER_FLOOR)"; do \
		set -- $$gate; \
		awk -v pkg=$$1 -v floor=$$2 ' \
		$$2 == pkg { \
			found = 1; \
			for (i = 3; i <= NF; i++) if ($$i == "coverage:") { pct = $$(i+1); sub(/%/, "", pct) } \
			if (pct + 0 < floor + 0) { \
				printf("FAIL: %s coverage %s%% is below the %s%% floor\n", pkg, pct, floor); exit 1 \
			} \
			printf("%s coverage %s%% (floor %s%%)\n", pkg, pct, floor) \
		} \
		END { if (!found) { printf("FAIL: no coverage line for %s\n", pkg); exit 1 } }' /tmp/cover_raw.txt || exit 1; \
	done

# Golden determinism: the committed decision traces (single-fleet and
# 3-DC cluster), every experiment's rendered tables (cmd/hcsim's
# testdata/repro) and the runnable examples' output (examples/*/testdata)
# must replay byte for byte, twice, so flaky nondeterminism cannot hide
# behind test caching.
golden:
	$(SELECTED_TEST) -run Golden -count=2 ./internal/simulator/ ./internal/cluster/ ./cmd/hcsim/ ./examples/...

# Regenerate the golden traces, tables and example outputs after an
# intentional behavior change; review the diff like any other scheduling
# change.
golden-update:
	$(GO) test -run Golden ./internal/simulator/ ./internal/cluster/ ./cmd/hcsim/ ./examples/... -update

# Allocation-regression tripwire: every benchmark in the committed
# baseline must stay within 2x of its recorded allocs/op and B/op.
bench-guard:
	./scripts/bench_guard.sh $(BENCH_BASELINE)

# Race check of the sharded cluster engine: the 1-DC cluster equivalence
# tests and the parallel-stepping determinism matrix (sequential vs
# per-DC-goroutine runs must produce byte-identical traces across
# GOMAXPROCS settings) — the entire shared-state surface of the
# wide-window driver in internal/cluster/parallel.go.
race-cluster:
	$(SELECTED_TEST) -race -run 'ClusterEquivalence|ClusterParallelStepDeterminism|ParallelGateDrops' ./internal/cluster/

# Race check of the parallel trial runner driven by pull-based streaming
# sources (the shared-state surface across workers), including the sharded
# cluster runner via race-cluster, plus the checkpoint-disabled
# equivalence and oracle-belief equivalence tests under -race, and the
# mixed reader/writer hammer on the PET's derived-entry cache (scaled and
# conditioned entries, shared across parallel trials).
race-stream: race-cluster
	$(SELECTED_TEST) -race -run Streamed ./internal/experiments/
	$(SELECTED_TEST) -race -run 'CheckpointDisabledEquivalence|BeliefOracleEquivalence' ./internal/simulator/
	$(SELECTED_TEST) -race -run 'ScaledAndRemainingCachesConcurrent|ScaledEntryConcurrent' ./internal/pet/

# Race check of the telemetry layer: the sampler shard merge under the
# wide-window driver (per-shard rows must stay byte-identical to the
# sequential path's across GOMAXPROCS settings, and every counter read
# stays on its shard owner's goroutine), the counters-read-their-store
# contract of the simulator and engine shards, and the HTTP export
# server's Publish/render surface hammered from concurrent goroutines.
race-telemetry:
	$(SELECTED_TEST) -race -run 'ClusterParallelTelemetryDeterminism|TelemetryDoesNotPerturbScheduling|GateCountersReadTheirStore' ./internal/cluster/
	$(SELECTED_TEST) -race -run 'CountersReadTheirStore' ./internal/simulator/
	$(SELECTED_TEST) -race -run 'ServerConcurrentPublish' ./internal/telemetry/

# Short fuzz run of both wire-format parsers, seeded from the committed
# corpora under testdata/fuzz/ (known-interesting inputs, not an empty
# corpus): a CI smoke, not a soak.
fuzz-smoke:
	$(GO) test -fuzz FuzzParse -fuzztime $(FUZZTIME) -run xxx ./internal/scenario/
	$(GO) test -fuzz FuzzReadCSV -fuzztime $(FUZZTIME) -run xxx ./internal/workload/
	$(GO) test -fuzz FuzzParseConfig -fuzztime $(FUZZTIME) -run xxx ./internal/server/

# Race check of the scheduling daemon: HTTP handlers hammering the bounded
# live source and published snapshots while the pump goroutine owns the
# engine (submission, drain ordering, what-if replays).
race-serve:
	$(GO) test -race ./internal/server/

# Tree hygiene: no tracked compiled test binaries, no tracked >1MB blobs
# outside testdata/ (see scripts/check_tree.sh; checktree_test.go keeps the
# guard honest with scratch-repo negative tests).
check-tree:
	./scripts/check_tree.sh

# End-to-end smoke of `hcsim serve`: static build, boot on a fixed port,
# health check, batch submission, queue drain, what-if replay, metrics,
# SIGTERM, graceful exit 0 (see scripts/serve_smoke.sh).
serve-smoke:
	./scripts/serve_smoke.sh

# Size of the program: non-test Go lines outside bench/, the count ROADMAP
# and CHANGES.md quote.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l

# Where the benchmark binary places main.calibrate within its 64-byte line
# (PERF.md, "To add a table"), for the working tree or, with
# REVS="parent change", for each git revision.
calibrate-offset:
	./scripts/calibrate_offset.sh $(REVS)

# Static deployment image (build-only in CI; running it is the smoke
# script's job, against the native binary).
docker-build:
	docker build -t $(DOCKER_IMAGE) .

# Known-vulnerability scan at a pinned govulncheck version (downloads the
# tool, so it lives in the lint job, not the offline ci target).
vulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# Static analysis at a pinned staticcheck version (downloads the tool on
# first run; not part of the offline ci target for that reason).
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# Quick throughput/allocation smoke: one full single-fleet trial each of
# PAM, PAMF, MOC and MM (plus PAM with telemetry and under churn) and the
# sharded cluster trials; one PAM mapping event (all-deferred,
# near-threshold, mixed and clock-moved), one MM mapping event (two free slots per
# machine, one open machine, every machine full) and one MOC mapping
# event (two-free and one-free); one walk of a full machine queue (tail
# rebuild and pruner pass), one dispatch decision per routing policy, the
# convolution-core allocation guards, one exit folded into the metrics
# stream (in-order and tied) and one event-queue pop and push.
# The cluster trials run several iterations so the reported numbers are
# warm steady state, not first-run cache warm-up.
bench-smoke:
	$(GO) test -run xxx -bench SingleTrial -benchtime 1x -benchmem .
	$(GO) test -run xxx -bench ClusterTrial -benchtime 5x -benchmem .
	$(GO) test -run xxx -bench MapEvent -benchtime 200x -benchmem ./internal/heuristics/
	$(GO) test -run xxx -bench TailPMF -benchtime 2000x -benchmem ./internal/machine/
	$(GO) test -run xxx -bench Pick -benchtime 2000x -benchmem ./internal/cluster/
	$(GO) test -run xxx -bench Convolve -benchtime 100x -benchmem ./internal/pmf/
	$(GO) test -run xxx -bench StreamObserve -benchtime 100000x -benchmem ./internal/metrics/
	$(GO) test -run xxx -bench EventQueue -benchtime 100000x -benchmem ./internal/eventq/

# Full benchmark sweep, recorded as BENCH_<date>.json so the performance
# trajectory of the repo is machine-readable PR over PR. Three iterations
# per benchmark amortize first-run warm-up (process-wide PET caches, pool
# fills) out of the recorded allocs/op — bench_guard refuses baselines
# recorded at iterations==1 for exactly that reason.
bench:
	$(GO) test -run xxx -bench . -benchtime 3x -benchmem . | tee /tmp/bench_raw.txt
	awk 'BEGIN { print "["; first = 1 } \
	/^Benchmark/ { \
		sub(/-[0-9]+$$/, "", $$1); \
		if (!first) printf(",\n"); first = 0; \
		printf("  {\"name\":\"%s\",\"iterations\":%s,\"metrics\":{", $$1, $$2); \
		sep = ""; \
		for (i = 3; i < NF; i += 2) { printf("%s\"%s\":%s", sep, $$(i+1), $$i); sep = "," } \
		printf("}}") \
	} \
	END { print "\n]" }' /tmp/bench_raw.txt > BENCH_$(DATE).json
	@echo "wrote BENCH_$(DATE).json"
