GO ?= go

.PHONY: check fmt vet build test flake race fuzz analyze chaos figures

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

## flake: tier-1 uncached twenty times over; a test that fails once in
## twenty runs fails here. The timeout is per package binary, which runs
## every repetition (internal/experiments takes ~30 s a pass).
flake:
	$(GO) test -count=20 -timeout 60m ./...

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
## (no coalescing hold may flush past a frame's FlushBy; a dead relay is
## detected within twice the heartbeat period)
CHAOS_COUNT ?= 3
chaos:
	$(GO) test -race -tags chaos -count $(CHAOS_COUNT) -run 'TestCoalescingNeverFlushesLate' ./internal/core/comm
	$(GO) test -race -count $(CHAOS_COUNT) -run 'TestChaosWorkerCrash|TestElasticChaosJoinDrainScaleUp' ./internal/pylot
	$(GO) test -race -tags chaos -count $(CHAOS_COUNT) -run 'TestFailover|TestReassign|TestBroadcastRingClusterFanout|TestGracefulJoin|TestDrain|TestSubmitTenants|TestRelayMulticastCluster|TestRelayFailoverMidFanout|TestRelayFailoverDetectionBound' ./internal/core/cluster
	$(GO) test -race ./internal/core/faults

## figures: regenerate every paper figure, Fig. 8's messaging benchmarks
## included (one figure: go run ./cmd/figures -fig 8a)
figures:
	$(GO) run ./cmd/figures
