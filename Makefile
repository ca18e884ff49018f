# Convenience targets; everything is plain `go` underneath.

.PHONY: all build cross fmt-check vet test test-short test-race test-fig11 test-recovery test-chaos test-cluster test-analytics test-alertlog serveload-smoke bench bench-decode bench-tracker bench-archival fuzz-scanner fuzz-window-sum fuzz-slide-order fuzz-archival fuzz-ec-oracle bench-quick check-allocs check-run-patterns experiments examples

all: fmt-check build vet test

build:
	go build ./...

# Cross-compile only: keeps the non-Linux tailer fallback
# (internal/alertlog/wake_other.go) from rotting.
cross:
	GOOS=darwin go build ./...
	GOOS=windows go vet ./internal/alertlog/

# CI gate: the tree must be gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "files need gofmt:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

test:
	go test ./...

test-short:
	go test -short ./...

# What CI runs: the whole suite under the race detector.
test-race:
	go test -race ./...

# Fig. 11's two-processor wall-clock comparison, timed alone: in
# `go test ./...` other packages' tests share the cores, so the race run
# skips it and CI runs this as a step of its own.
test-fig11:
	go test -count=1 -v -run '^TestFig11TwoProcessorsNotSlower$$' ./internal/expbench/

# Crash-injection equivalence suite: kill-and-restore at arbitrary
# slides and mid-checkpoint-write, byte-identical output and
# exactly-once delivery through the gateway, and the snapshot store's
# corruption matrix, under the race detector. Also the file formats:
# version-3 and version-2 checkpoints and manifests read back through
# every read path, the earlier build's version-2 fixtures restored and
# continued byte-identically (a manifest through a whole-cluster
# restore), version-1 files refused and skipped, and the pinned gob
# layout.
test-recovery:
	go test -race -v -run 'TestKillRestore|TestGatewayExactlyOnce|TestReplayGap|TestSigterm|TestVersion|TestSchemaPinned|TestRestoresEarlier|TestRefusesVersion1|TestCursorMatchesEarlierBuild' ./internal/checkpoint/
	go test -race -v -run 'TestStore' ./internal/durable/
	go test -race -v -run 'TestVersion|TestRestoresEarlierManifest|TestRestoreClusterSkipsVersion1' ./internal/cluster/

# Panic/stall-injection suite: shard kills, recognizer and store panics,
# watchdog stalls, each recovered by a rewind to the newest checkpoint
# and a replay, a second fault during the replay fenced, the paced-shape
# fault schedule, and the overload degradation ladder — golden-run
# equivalence under the race detector.
test-chaos:
	go test -race -v -run 'TestChaos|TestQuarantine|TestFaultDuringReplay|TestFaultSchedule|TestDegradation|TestDelayedStream' \
		./internal/faults/ ./internal/core/ ./internal/tracker/ ./internal/checkpoint/

# Distributed-cluster equivalence suite: byte-identical output across
# 1-process / cluster(1) / cluster(3), kill-one-worker exactly-once
# restore, whole-cluster manifest restore, a restored worker's
# replay-gap report, the stalled-worker degradation path, and the
# router slices' feed wire (bit-identical re-serving, resume,
# keepalives) — all over real loopback TCP, under the race detector.
test-cluster:
	go test -race -v -run 'TestCluster|TestWorker|TestRouter' ./internal/cluster/

# Durable alert-log chaos suite: replica kills mid-stream with
# subscriber failover, writer crash mid-segment (fault-injected), and
# newest-segment corruption — exactly-once delivery (zero gap, zero
# duplicate) and byte-identical history versus a never-killed control,
# under the race detector. Includes the log/reader unit tests, the
# tailer's wake path (TestTailer*: kernel-notified delivery with the
# timer out of reach, lost-wake-up stress, directory created late or
# replaced, arm failure and deaf watch falling back to the ladder, no
# goroutine or descriptor left behind), the one-write Append
# (TestAppendBatchSpanningRotation, TestAppendShortWriteAccountsWholeFrames),
# the reader's sealed-under-it rescan, and in the serve hub the
# replay-marker and replay→ring hand-off regressions, the flush-on-drain
# pump and the replica /healthz notify field.
test-alertlog:
	go test -race -v ./internal/alertlog/
	go test -race -v -run 'TestSubscribeFrom|TestMarker|TestPublish|TestRing|TestRunLoad|TestEventsFlushOnDrain|TestReplicaHealthz' ./internal/serve/
	go test -race -v -run 'TestClusterEventsMarker' ./cmd/maritime/

# Multi-replica serving smoke: the in-process load harness drives
# subscribers round-robin across two replica gateways and asserts
# error-free delivery through each.
serveload-smoke:
	go test -race -v -run 'TestRunLoadAcrossReplicas' ./internal/serve/

# Cross-vessel analytics suite: fleetsim ground-truth precision/recall
# for rendezvous and dark-rendezvous, index-vs-brute-force collision
# screening, the linear pair enumeration against its re-query
# definition (proximity index and the tier's collision screen), the
# bounded cell map, and cluster-vs-single-process pairwise byte
# equivalence (including a mid-run manifest restore) — under the race
# detector.
test-analytics:
	go test -race -v -run 'TestPairwiseAnalyticsGroundTruth|TestAnalyticsDisabledByDefault' ./internal/core/
	go test -race -v -run 'TestPointIndexPairsMatchRequery|TestPointIndexCellsBoundedUnderDrift' ./internal/geo/
	go test -race -v -run 'TestIndexMatchesBruteForce|TestEncountersInvariantToArrivalOrder|TestEncountersMatchRequeryOracle' ./internal/analytics/
	go test -race -v ./internal/analytics/
	go test -race -v -run 'TestClusterPairwiseAnalyticsEquivalence|TestClusterManifestRestoreWithAnalytics' ./internal/cluster/

# One testing.B benchmark per table/figure of the paper's evaluation.
bench:
	go test -bench=. -benchmem -benchtime=1x -run '^$$' .

# Decode micro-benchmarks: the zero-copy scanner vs the string decoder
# kept in internal/ais/legacy_test.go, over NMEA and CSV, one iteration
# each — a smoke run that proves the benchmarks still compile and
# execute, not a measurement.
bench-decode:
	go test -run '^$$' -bench '^BenchmarkDecode$$' -benchmem -benchtime=1x ./internal/ais/

# Tracking-tier micro-benchmark: the warm tier replaying 2 h of stream
# at fleet sizes up to the paper's N = 6425, serial and at
# DefaultShards(), one iteration each — a smoke run that proves the
# benchmark still compiles and executes, not a measurement.
bench-tracker:
	go test -run '^$$' -bench '^BenchmarkSteadySlide$$' -benchmem -benchtime=1x ./internal/tracker/

# Archival micro-benchmark: one 5 h life of the paper's N = 6425 fleet's
# tracker deltas, plus the end-of-stream drain, through the store's
# Stage, Reconstruct and Load, one iteration — a smoke run that proves
# the benchmark still compiles and executes, not a measurement.
bench-archival:
	go test -run '^$$' -bench '^BenchmarkArchivalLife$$' -benchmem -benchtime=1x ./internal/mod/

# Fuzz the Data Scanner for 30 s: every mutated byte stream must decode
# to the same fixes and the same drop counters on the zero-copy path as
# on the string decoder in internal/ais/legacy_test.go. Plain `go test`
# runs only the seed corpus.
fuzz-scanner:
	go test -run '^$$' -fuzz '^FuzzScanner$$' -fuzztime 30s ./internal/ais/

# Fuzz the tracker's bound-first window tests for 10 s: over any ring
# window's entries and resets, the outlier gate's speed test and the
# smooth-turn test settled from the running sums must decide as the
# exact oldest-first fold does. Plain `go test` runs only the seeds.
fuzz-window-sum:
	go test -run '^$$' -fuzz '^FuzzWindowSum$$' -fuzztime 10s ./internal/tracker/

# Fuzz the vessel-major slide for 10 s: over random fleets, motion,
# disorder and cross-vessel interleavings, every slide's output, the
# counters and the snapshot must equal batch-order ingest's, at shards
# 1, 3 and DefaultShards(), plain, rolled and under the watchdog. Plain
# `go test` runs only the seeds.
fuzz-slide-order:
	go test -run '^$$' -fuzz '^FuzzSlideOrder$$' -fuzztime 10s ./internal/tracker/

# Fuzz the store's archival for 10 s: over random fleets, slide sizes,
# deferred reconstructions and a snapshot round trip, every Reconstruct's
# trips, the staging area, origins, staged count and PositionAt must
# equal the full-scan reference store's. Plain `go test` runs only the
# seeds.
fuzz-archival:
	go test -run '^$$' -fuzz '^FuzzReconstruct$$' -fuzztime 10s ./internal/mod/

# Fuzz the RTEC engine for 10 s: over fuzzed streams, windows, slides,
# probabilistic thresholds and built-in predicates, every query's
# fluent intervals and derived events must equal the time-point Event
# Calculus oracle's. Plain `go test` runs only the seeds.
fuzz-ec-oracle:
	go test -run '^$$' -fuzz '^FuzzEngineMatchesECOracle$$' -fuzztime 10s ./internal/rtec/

# End-to-end benchmark smoke (cmd/bench, the BENCHMARK.json harness) on
# a toy fleet, ~15 s: all four workloads against real cmd/serve
# children, with the delivered-alerts correctness gate. Not a
# measurement; `bash cmd/bench/run.sh` is.
bench-quick:
	go run ./cmd/bench -quick

# Allocation-regression guard: the steady-state slide budget
# (testing.AllocsPerRun gate in the tracker, plain, under the watchdog
# and tracked ahead), the zero-allocation zero-copy scanners, the warm
# ingest stage's recycled slide arrays, the recognition query step over
# a warm 6 h window, the pairwise screening slide of a warm analytics
# tier, the per-slide metrics observation, and the store's staging and
# reconstruction of a slide without stops. Run without -race: the race
# runtime inflates allocation counts and the tests skip themselves under
# it.
check-allocs:
	go test -v -run 'TestSteadyStateSlideAllocs|TestZeroCopyScanAllocs|TestIngestStageAllocs|TestRecognizerAdvanceAllocs|TestTierSlideAllocs|TestObserveAllocs|TestStageAllocs' ./internal/tracker/ ./internal/ais/ ./internal/stream/ ./internal/maritime/ ./internal/analytics/ ./internal/core/ ./internal/mod/

# Every -run, -bench and -fuzz alternative in this Makefile and in CI
# must name at least one test, benchmark or fuzz target in the packages
# its command lists: `go test` passes silently when a pattern matches
# nothing.
check-run-patterns:
	scripts/check-run-patterns.sh

# Full row sets at the default scale (N=1000); see -list for ids.
experiments:
	go run ./cmd/maritime experiments -run all

examples:
	go run ./examples/quickstart
	go run ./examples/illegalfishing
	go run ./examples/protectedarea
	go run ./examples/compression
	go run ./examples/livemonitor
