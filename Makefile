GO ?= go

.PHONY: check fmt vet build test race fuzz analyze chaos bench bench-e2e bench-elastic bench-smoke figures

## check: everything CI runs — formatting, vet, build, tests under -race,
## the erdos-vet invariant analyzers, and a short fuzz smoke pass over the
## wire-format decoders
check: fmt vet build race fuzz analyze

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## fuzz: short smoke run of the binary-codec fuzz targets; a real campaign
## raises -fuzztime and lets the corpus accumulate under testdata/.
## -fuzzminimizetime is capped so a single-worker box doesn't sit silent
## for the default 60s minimization budget when a mutation looks novel.
FUZZTIME ?= 3s
FUZZMINTIME ?= 5s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzTimestampBinary -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINTIME) ./internal/core/timestamp
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINTIME) ./internal/core/comm
	$(GO) test -run '^$$' -fuzz FuzzCheckpointDecode -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINTIME) ./internal/core/state
	$(GO) test -run '^$$' -fuzz FuzzShmRingDecode -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINTIME) ./internal/core/comm/shm
	$(GO) test -run '^$$' -fuzz FuzzShmBroadcastRingDecode -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINTIME) ./internal/core/comm/shm

## analyze: the seven D3-invariant analyzers (zerogob, wallclock, lockhold,
## statetxn, deadlinehint, bufown, goleak) over the whole module; see
## DESIGN.md and //erdos:allow for the suppression contract
analyze:
	$(GO) run ./cmd/erdos-vet ./...

## chaos: the fault-injection suite under the race detector — seeded worker
## kills and operator stalls against live clusters, asserting detection
## latency, exactly-once delivery across recovery, and DEH-surfaced misses;
## plus the elastic-membership pass (graceful join, drain, and a
## congestion-triggered scale-up on a live two-tenant cluster) and the
## relay-multicast pass: wire-frame accounting across simulated hosts and
## a relay killed mid-fanout with strict per-tick ledgers across re-election;
## plus the real-time bounds kept out of tier-1 behind the chaos build tag
## (no coalescing hold may flush past a frame's FlushBy)
CHAOS_COUNT ?= 3
chaos:
	$(GO) test -race -tags chaos -count $(CHAOS_COUNT) -run 'TestCoalescingNeverFlushesLate' ./internal/core/comm
	$(GO) test -race -count $(CHAOS_COUNT) -run 'TestChaosWorkerCrash|TestElasticChaosJoinDrainScaleUp' ./internal/pylot
	$(GO) test -race -count $(CHAOS_COUNT) -run 'TestFailover|TestReassign|TestBroadcastRingClusterFanout|TestGracefulJoin|TestDrain|TestSubmitTenants|TestRelayMulticastCluster|TestRelayFailoverMidFanout' ./internal/core/cluster
	$(GO) test -race ./internal/core/faults

## bench: scheduler/data-plane micro-benchmarks -> BENCH_lattice.json
bench:
	$(GO) run ./cmd/erdos-bench -bench lattice -out BENCH_lattice.json

## bench-e2e: Fig. 8c scaling + urgency-inversion profile -> BENCH_e2e.json
bench-e2e:
	$(GO) run ./cmd/erdos-bench -bench e2e -out BENCH_e2e.json

## bench-smoke: CI's quick pass over the e2e benchmarks, the shm-ring
## round-trip, the single-encode fanout edge (including the host-aware
## relay tree across 3 simulated hosts), the elastic tenant-density edge,
## and the goroutine leak-drift gate — few frames and rounds, result
## discarded; catches harness rot (a broken ring, fanout fast path, relay
## tree, tenant hosting, or a Close path that strands goroutines) without
## burning minutes
bench-smoke:
	$(GO) run ./cmd/erdos-bench -bench e2e -short -out /tmp/BENCH_e2e_smoke.json
	$(GO) run ./cmd/erdos-bench -bench shm
	$(GO) run ./cmd/erdos-bench -bench fanout -short -hosts 3
	$(GO) run ./cmd/erdos-bench -bench elastic -short
	$(GO) run ./cmd/erdos-bench -bench leak

## bench-elastic: tenant-density latency edge -> BENCH_e2e.json
bench-elastic:
	$(GO) run ./cmd/erdos-bench -bench elastic -out BENCH_e2e.json

## figures: regenerate the paper's Fig. 8 messaging benchmarks
figures:
	$(GO) run ./cmd/erdos-bench
