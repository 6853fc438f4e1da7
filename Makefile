GO ?= go
PKGS := ./...
# Several targets filter `go test -v` through grep; pipefail makes a
# failing test fail the target instead of taking grep's exit status.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c
# Packages with concurrent components (interpreter threads, defended
# allocator under concurrency, the parallel fleet runtime, the HTTP
# front-end's hot-swap/soak layer) that the race detector must cover,
# plus the campaign harness whose matrix replays cross all of them.
RACE_PKGS := ./internal/defense/ ./internal/prog/ ./internal/fleet/ ./internal/serve/ ./internal/campaign/ ./internal/telemetry/
# Packages whose statement coverage is gated in CI: the allocator the
# campaign walker audits, the campaign rig itself, the runtime layers
# the telemetry sweep pinned (defense/shadow/mem/telemetry), the
# serving stack (fleet + serve front-end), and the execution engines
# (prog).
COVER_GATE_PKGS := ./internal/heapsim/ ./internal/campaign/ ./internal/defense/ ./internal/shadow/ ./internal/mem/ ./internal/telemetry/ ./internal/fleet/ ./internal/serve/ ./internal/prog/
COVER_MIN := 80

.PHONY: all build test race vet fmt-check bench bench-json bench-campaign bench-fleet bench-policy bench-policy-json bench-compiled bench-encoding bench-smoke bench-telemetry check cover corpus fuzz-smoke inline-check

all: check

build:
	$(GO) build $(PKGS)

test:
	$(GO) test $(PKGS)

race:
	$(GO) test -race -timeout 15m $(RACE_PKGS)

vet:
	$(GO) vet $(PKGS)

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Hot-path kernel benchmarks (mem/shadow/defense/heapsim), including
# the walker's page audit of a default space (fresh: reserve unbacked;
# backed: all 256 reserve pages compared) and the allocator's
# malloc/free/realloc churn. Compare runs with benchstat:
# make bench > new.txt && benchstat old.txt new.txt
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkMemKernels|BenchmarkSpaceAudit|BenchmarkShadow|BenchmarkPatchLookup|BenchmarkHeapChurn' -benchmem \
		./internal/mem/ ./internal/shadow/ ./internal/defense/ ./internal/heapsim/

# Machine-readable end-to-end experiment timings (see BENCH_*.json).
bench-json:
	$(GO) run ./cmd/htp-bench -quick -json

# Fleet runtime benchmarks: worker setup (fresh vs pooled) and
# defended throughput at 1/2/4/8 workers, each running the
# per-request Acquire/SyncTable/Run/FinishRequest loop.
bench-fleet:
	$(GO) test -run '^$$' -bench 'BenchmarkFleet' -benchmem ./internal/fleet/

# Compiled engine: the steady-state and encoded-call zero-alloc pins
# and the pin workload's tree-vs-compiled differential, the engine
# benchmarks (pin workload on each engine plus the one-time compile
# cost) and the encoded-call benchmarks on both engines. The tree is
# the plain reference, so its timings are not a speed baseline.
# BENCHTIME=1x gives a fast smoke run.
BENCHTIME ?= 1s
bench-compiled:
	$(GO) test -run 'SteadyStateZeroAlloc|EncodedCall|VMMatchesTreeOnPin' -count 1 -v ./internal/prog/ | grep -E '^(--- (PASS|FAIL)|ok|FAIL)'
	$(GO) test -run '^$$' -bench 'BenchmarkEngines|BenchmarkCompile|BenchmarkEncodedCall' -benchmem \
		-benchtime $(BENCHTIME) ./internal/prog/

# Encoding-path benchmarks and allocation pins: planner scratch reuse,
# the per-call update arithmetic (0 allocs/op), and the end-to-end
# encoded-call path on both engines, plus the dense-vs-reference
# differential tests that prove the dense representations equivalent.
bench-encoding:
	$(GO) test -run 'DenseEquivalence|UpdatePathZeroAlloc|PlannerSteadyState|EncodedCall' -count 1 -v \
		./internal/encoding/ ./internal/prog/ | grep -E '^(--- (PASS|FAIL)|ok|FAIL)'
	$(GO) test -run '^$$' -bench 'BenchmarkEncodingPlan|BenchmarkCoderUpdate|BenchmarkEncodedCall' -benchmem \
		-benchtime $(BENCHTIME) ./internal/encoding/ ./internal/prog/

# Campaign runtime pins: the pooled-vs-fresh oracle bit-identity and
# parallel-vs-sequential report-parity differentials, the recycle and
# audit-pass allocation pins, the page-audit and pool-audit
# differentials, the lazy-reserve differential and fresh-space cost
# and the shadow planes' arena floor, then the pool
# audit's cost (BenchmarkPoolCheckIntegrity, 0 allocs/op) and the
# pooled oracle's per-seed cost (BenchmarkWorkbenchCheck). Campaign
# throughput is the campaign workload of benchmark/
# (bash benchmark/run.sh --workload campaign).
bench-campaign:
	$(GO) test -run 'WorkbenchBitIdentical|WorkbenchAllocatorForNeverPooled|AllocatorForOrderRejected|ParallelMatchesSequential|PooledSetupAllocs|WalkerCheckZeroAlloc|PoolCheckDifferential|PoolCheckZeroAlloc|DifferentialAudit|LazyReserveMatchesBacked|NewSpaceUnbacked|BackendResetDifferential|PlanesStartAtArena|ResetPatchesMatchesFresh|CollectorReset' -count 1 -v \
		./internal/campaign/ ./internal/heapsim/ ./internal/mem/ ./internal/shadow/ ./internal/defense/ ./internal/telemetry/ | grep -E '^(--- (PASS|FAIL)|ok|FAIL)'
	$(GO) test -run '^$$' -bench 'BenchmarkPoolCheckIntegrity' -benchmem -benchtime $(BENCHTIME) ./internal/heapsim/
	$(GO) test -run '^$$' -bench 'BenchmarkWorkbenchCheck' -benchmem -benchtime $(BENCHTIME) ./internal/campaign/

# Defense-policy head-to-head: the cross-family differential suite
# (containment matrix, honest expected misses, benign bit-identity,
# the policy fuzz target's seed corpus), then the policy matrix
# experiment — per-family containment rate, benign cycle overhead,
# and memory footprint against the native baseline (record with:
# make bench-policy-json, fold into BENCH_$(shell date +%F).json).
bench-policy:
	$(GO) test -run 'PolicyContainmentMatrix|PolicyExpectedMisses|PolicyEquivalence|FleetPolicy|ServePolicy' -count 1 -v \
		./internal/campaign/ ./internal/fleet/ ./internal/serve/ | grep -E '^(--- (PASS|FAIL)|ok|FAIL)'
	$(GO) run ./cmd/htp-bench -exp policy

bench-policy-json:
	$(GO) run ./cmd/htp-bench -exp policy -json

# Zero-allocation pins (AllocsPerRun tests): the telemetry-disabled
# hot path and the counters-only enabled path (defense/mem/telemetry),
# heapsim's malloc/free/realloc churn and pool audit, and the moving
# realloc copy of the pool allocator and of every defense family must
# be 0 allocs/op. The enabled telemetry path's time cost is not
# measured.
bench-telemetry:
	$(GO) test -run 'ZeroAlloc|LookupAllocs|MemKernelAllocs' -count 1 -v \
		./internal/telemetry/ ./internal/defense/ ./internal/mem/ ./internal/heapsim/ | grep -E '^(--- (PASS|FAIL)|ok|FAIL)'

# Inliner gate for the mem accessors on the allocation path: each one
# named here must stay inlinable (a call on an accessor's miss branch
# costs ~57 of the inliner's budget of 80, and losing the inline
# showed up as ~10% on BenchmarkHeapChurn).
INLINE_MEM := markDirty load64 store64 Contains backed BackedLoad64 CheckRead CheckWrite End Size fillBytes
inline-check:
	@out=$$($(GO) build -gcflags=-m ./internal/mem 2>&1) || { echo "$$out"; exit 1; }; \
	fail=0; \
	for fn in $(INLINE_MEM); do \
		if grep -Eq "can inline (\(\*Space\)\.)?$$fn\$$" <<<"$$out"; then \
			echo "mem: $$fn inlinable"; \
		else \
			echo "mem: $$fn is no longer inlinable"; fail=1; \
		fi; \
	done; exit $$fail

# One-iteration pass over every benchmark in the repo: catches bitrot
# in benchmark code without paying for stable timings. CI runs this.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x $(PKGS)

# Coverage gate: each package in COVER_GATE_PKGS must hold at least
# COVER_MIN% statement coverage.
cover:
	@fail=0; \
	for pkg in $(COVER_GATE_PKGS); do \
		pct=$$($(GO) test -cover $$pkg | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "$$pkg: no coverage reported"; fail=1; continue; fi; \
		ok=$$(echo "$$pct $(COVER_MIN)" | awk '{print ($$1 >= $$2) ? 1 : 0}'); \
		if [ "$$ok" = 1 ]; then \
			echo "$$pkg: $$pct% (>= $(COVER_MIN)%)"; \
		else \
			echo "$$pkg: $$pct% BELOW the $(COVER_MIN)% gate"; fail=1; \
		fi; \
	done; exit $$fail

# Regenerate the golden campaign corpus after an intentional generator
# change (TestCorpusMatchesGenerator pins it).
corpus:
	$(GO) run ./cmd/htp-fuzz -emit-corpus testdata/campaign -seeds 20

# Short native-fuzzing shake of the campaign generator and reducer,
# of the engine differential (tree vs the compiled engine), and of
# mem's checked accessors against refCheck's verdict.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzGenerate -fuzztime 10s ./internal/campaign/
	$(GO) test -run '^$$' -fuzz FuzzReduce -fuzztime 10s ./internal/campaign/
	$(GO) test -run '^$$' -fuzz FuzzVMvsTree -fuzztime 10s ./internal/prog/
	$(GO) test -run '^$$' -fuzz FuzzSpaceAccess -fuzztime 10s ./internal/mem/

check: build vet fmt-check test race cover
