# Build, vet and test the whole reproduction. Pure stdlib Go ≥ 1.22;
# no external dependencies and nothing to install beyond the toolchain.

GO ?= go

# Packages whose concurrency-heavy paths (quorum fanout, hinted handoff,
# retry/breaker, chaos fault injection, broker protocol, metrics registry,
# replication/apply loops, watch dispatch, history recording) get an extra
# pass under the race detector.
RACE_PKGS = ./internal/rpc ./internal/resilience ./internal/failure ./internal/voldemort ./internal/kafka ./internal/metrics ./internal/espresso ./internal/databus ./internal/helix ./internal/zk ./internal/consistency ./internal/storage ./internal/schema ./internal/cache

# Fuzz targets with checked-in seed corpora: binary decoders that must never
# panic on arbitrary bytes.
FUZZ_TARGETS = FuzzUnmarshal/internal/schema FuzzResolve/internal/schema FuzzDecode/internal/kafka

.PHONY: all build vet test check test-race bench bench-json bench-compare bench-smoke verify fuzz-smoke docs-check bins scenarios clean

all: check

build:
	$(GO) build ./...

# vet also enforces the observability conventions: metric names follow
# subsystem_signal_unit and every registered metric is documented in
# OPERATIONS.md. The site benchmark (sitebench/) is a nested module outside
# ./..., so vet and test visit it explicitly.
vet:
	$(GO) vet ./...
	$(GO) -C sitebench vet .
	$(GO) run ./cmd/metriclint

test:
	$(GO) test ./...
	$(GO) -C sitebench test .

# The tier-1 gate: everything must build, vet clean and pass.
check: build vet test

# Race pass over the resilience/chaos surface. The chaos suites use fixed
# seeds, so failures here are real interleaving bugs, not flaky schedules.
test-race:
	$(GO) test -race -count=1 $(RACE_PKGS)

# The experiment harness (root package) — see EXPERIMENTS.md.
bench:
	$(GO) test -bench=. -benchtime=1x .

# Machine-readable benchmark results: runs the experiment (E*/Ablation),
# hot-path (storage, schema, cache), transport-pipelining (voldemort, kafka,
# databus fan-out) and cached-read (EngineStore, espresso Node) benchmark
# suites with -benchmem and writes BENCH_PR10.json. BENCH_PR5.json and
# BENCH_PR10.json are the frozen baselines bench-compare judges against. The
# schema is documented in EXPERIMENTS.md.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_PR10.json

# The perf regression gate: re-runs the baseline's hot-path suites (5
# samples each, min taken) and fails on a >20% normalized ns/op regression
# (or any allocs/op increase) of the named benchmarks. benchcmp divides
# deltas by the median ratio across every common benchmark, so a uniformly
# slower CI host cancels out instead of failing the gate. The gated names
# are the seed hot paths that measure reproducibly across hosts (allocs are
# compared strictly for all of them); BenchmarkMemoryGet and the one-shot
# BenchmarkUnmarshal drift ±30-50% between identical-code runs on shared
# hardware and are recorded but not gated. See cmd/benchcmp.
BENCH_GATE = -bench BenchmarkBitcaskGet -bench BenchmarkMarshal -bench BenchmarkUnmarshalReuse
# The databus relay serve path is gated against the BENCH_PR10.json baseline:
# single-page serve (filtered and not; allocs must stay 0 on the unfiltered
# path) and the 1/16/128-consumer fan-out. BenchmarkDatabusAppend drifts
# ±50% between identical-code runs on shared hardware (GC pacing vs the
# 256 KiB chunk churn) and is recorded but not gated, like BenchmarkMemoryGet
# above; its allocs still can't regress silently — append allocations show up
# in the gated fan-out rows' strict allocs/op compare.
DATABUS_GATE = -bench BenchmarkDatabusServePage -bench BenchmarkDatabusFanOut
bench-compare:
	$(GO) run ./cmd/benchjson -out /tmp/bench_current.json -pkgs internal/storage,internal/schema -benchtime 0.5s -count 5
	$(GO) run ./cmd/benchcmp -baseline BENCH_PR5.json -current /tmp/bench_current.json -allocs $(BENCH_GATE)
	$(GO) run ./cmd/benchjson -out /tmp/bench_databus.json -pkgs internal/databus -benchtime 0.3s -count 5
	$(GO) run ./cmd/benchcmp -baseline BENCH_PR10.json -current /tmp/bench_databus.json -allocs $(DATABUS_GATE)

# Compile every benchmark and run each once — benchmarks can't silently rot.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Generator-driven consistency verification: seeded concurrent workloads
# against all four systems under fault injection, histories checked against
# the formal models in internal/consistency. Override the workload with
# VERIFY_SEED=n. See EXPERIMENTS.md.
verify:
	$(GO) test -run 'TestVerify' -count=1 -v .

# Documentation gate: every markdown link and #anchor in the operator-facing
# documents resolves (docscheck), and every registered metric follows the
# naming convention and is documented in OPERATIONS.md (metriclint).
docs-check:
	$(GO) run ./cmd/docscheck
	$(GO) run ./cmd/metriclint

# Every server and tool binary, built where the scenario suite (and an
# operator poking at the stack) expects them.
bins:
	$(GO) build -o bin/ ./cmd/...

# Tier-2 verification: the black-box scenario suite. Real OS processes, real
# kill -9 mid-workload, convergence and no-acked-write-loss checked from the
# outside, SLO reports in scenario-artifacts/. Knobs: SCENARIO_DURATION_SECS,
# SCENARIO_ARTIFACTS. See EXPERIMENTS.md and scenarios/.
scenarios: bins
	./scenarios/run_all.sh

# A short fuzzing pass over every fuzz target (3s each) — enough to replay
# the seed corpus plus a burst of mutated inputs in CI.
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		name=$${t%%/*}; pkg=$${t#*/}; \
		echo "fuzz $$name ./$$pkg"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime=3s "./$$pkg" || exit 1; \
	done

clean:
	$(GO) clean ./...
