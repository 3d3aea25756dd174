# Build and verification tiers. `make check` is the full local gate:
# gofmt-clean sources, static vetting (the separate perfbench module
# included), the complete
# test suite under the race detector, short fuzz smokes of the trace
# parser, the journal replayer, the job-spec decoder, the policy-registry
# wire form, the sweep-spec shard arithmetic, and the fabric shard-plan
# ledger,
# the kernel stress tests under -race, the parallel-sweep determinism proof
# under -race, the durability (checkpoint/resume/retry) suite under -race,
# the oracle/policy-zoo differential suite under -race, the sweep-service
# suite under -race, the service chaos harness (seeded disk faults +
# kill/restart) under -race, the distributed-fabric chaos suite (peer
# SIGKILL, network faults, coordinator kill+resume, steal races) under
# -race, and the fleet population engine (generator determinism,
# feasibility pre-pass, multi-mode byte identity, kill+resume) under -race.

GO ?= go

.PHONY: build bench-build test check fmt vet race fuzz-smoke stress sweep-race telemetry-race durability-race oracle-race service-race chaos-race fabric-race fleet-race bench-sweep bench-guard loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Every Go file, the perfbench module's included, must be gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

# perfbench is a separate module, so `go test ./...` never compiles it; it
# imports the single-cell runner (internal/expt) and the fleet engine, and
# this keeps those call sites honest.
bench-build:
	cd perfbench && $(GO) vet ./...

race:
	$(GO) test -race ./...

fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzRead -fuzztime=10s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzJournalReplay -fuzztime=10s ./internal/journal/
	$(GO) test -run=^$$ -fuzz=FuzzJobSpecDecode -fuzztime=10s ./internal/service/
	$(GO) test -run=^$$ -fuzz=FuzzTokenFileParse -fuzztime=10s ./internal/service/
	$(GO) test -run=^$$ -fuzz=FuzzParamsDecode -fuzztime=10s .
	$(GO) test -run=^$$ -fuzz=FuzzSweepSpecShard -fuzztime=10s .
	$(GO) test -run=^$$ -fuzz=FuzzShardPlanDecode -fuzztime=10s ./internal/fabric/
	$(GO) test -run=^$$ -fuzz=FuzzFleetSpecDecode -fuzztime=10s ./internal/fleet/

stress:
	$(GO) test -race -run 'Chaos|SpawnMidRun' -v ./internal/kernel/

# The parallel sweep engine's byte-identity guarantee, exercised with the
# race detector watching the worker pool and cache.
sweep-race:
	$(GO) test -race -run 'Sweep|Cache' -v . ./internal/sweep/

# The telemetry layer's concurrency contract: shared instruments hammered
# from many goroutines, the exporter golden output, and the zero-alloc
# disabled path — all under the race detector, with the public wrapper's
# end-to-end HTTP tests riding along.
telemetry-race:
	$(GO) test -race -count=1 -run 'Telemetry|Concurrent|Prometheus|Progress' -v . ./internal/telemetry/ ./internal/sweep/

# The durability layer under the race detector: journal framing and
# torn-tail recovery, kill-and-resume byte identity, retry/backoff of
# transient faults, per-cell deadline budgets, and cache quarantine.
durability-race:
	$(GO) test -race -count=1 -run 'Durable|Resume|Retry|Timeout|Journal|Deadline|Corrupt|Spill|Transient' -v . ./internal/sweep/ ./internal/journal/ ./internal/expt/ ./internal/paper/ ./cmd/experiments/ ./internal/telemetry/

# The optimal-schedule oracle and the deadline-feasible policy zoo under
# the race detector: the randomized differential suite (oracle lower-bounds
# every policy, OA/AVR/BKP never miss), the OptSpeeds floor-feasibility
# property tests, the deadline boundary tests, and the zoo comparison
# experiment's acceptance run.
oracle-race:
	$(GO) test -race -count=1 -run 'Oracle|Differential|OptSpeeds|Zoo|Deadline' -v ./internal/policy/ ./internal/expt/

# The sweep service under the race detector: concurrent submit/cancel/
# drain, queue-full backpressure (429 + Retry-After), version-mismatch
# admission, restart resumption, and the SIGKILL-the-daemon subprocess
# proof of byte-identical resume.
service-race:
	$(GO) test -race -count=1 -v ./internal/service/

# The service chaos harness under the race detector: seeded disk faults
# under every journal, manifest, and result write, across restarts,
# SIGKILLs, preemptions, and retention passes — every job must end
# byte-identical to a clean run or with a structured failure, and the
# manifest compaction raced against live submissions.
chaos-race:
	$(GO) test -race -count=1 -run 'Chaos|CompactionRace|GC|Preempt|EventsSurvive' -v ./internal/service/
	$(GO) test -race -count=1 -v ./internal/fault/

# The distributed sweep fabric under the race detector: shard round-trip
# byte identity, leased re-dispatch, work-stealing from stragglers, seeded
# network chaos, peer SIGKILL mid-shard, coordinator SIGKILL + ledger
# resume, and the fleet falling back to local execution with every peer
# down. Every merged result must be byte-identical to the serial sweep.
fabric-race:
	$(GO) test -race -count=1 -v ./internal/fabric/
	$(GO) test -race -count=1 -run 'Shard|Merge' -v .

# The fleet population engine under the race detector: spec validation,
# seeded generator determinism, the schedulability pre-pass, the
# serial/parallel/fabric byte-identity proof, and the SIGKILL + resume
# subprocess test.
fleet-race:
	$(GO) test -race -count=1 -v ./internal/fleet/

# Worker-count ladder (1/2/4/NumCPU) over the full Table 2 grid, plus
# fabric legs coordinating 1/2/4 in-process peers and fleet legs on 1 and
# NumCPU workers, recorded to BENCH_sweep.json (also verifies every merge
# against the serial baseline).
bench-sweep:
	$(GO) run ./cmd/benchsweep -out BENCH_sweep.json

# Serial-throughput regression guard: reruns the reference grid and the
# 500-device fleet leg on one worker and fails if either's cells/sec drops
# below half its committed BENCH_sweep.json figure (the fleet floor guards
# per-cell fixed costs, which the long Table 2 cells amortize). Rerun
# `make bench-sweep` to re-baseline after an intentional change.
bench-guard:
	$(GO) run ./cmd/benchsweep -guard -baseline BENCH_sweep.json

# Go line counts as ROADMAP tracks them: production and test files apart,
# the perfbench module and benchmark build outputs left out. Not in check.
LOC_FILES = find . -name '*.go' -not -path './perfbench/*' -not -path './.bench_build/*'
loc:
	@echo "production $$($(LOC_FILES) -not -name '*_test.go' | xargs cat | wc -l)"
	@echo "test       $$($(LOC_FILES) -name '*_test.go' | xargs cat | wc -l)"

check: fmt vet bench-build race fuzz-smoke stress sweep-race telemetry-race durability-race oracle-race service-race chaos-race fabric-race fleet-race bench-guard
	@echo "check: all tiers passed"
