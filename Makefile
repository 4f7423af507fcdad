GO ?= go

.PHONY: ci loc fmt vet lint lint-baseline build test race fuzz-smoke tables-quarter tables-full bench-smoke profile-fault profile-sim trace-smoke chaos chaos-demo loadtest loadtest-smoke soak-smoke soak prefetch-smoke

# ci is the full gate: formatting, vet, the gmslint analyzer suite, build,
# tests (including the gmsdebug-instrumented core), a race-detector pass
# over every package (the batched-wire concurrency smoke and the hedge-loser
# cancel among its tests), ten seconds each of fuzzing the trace memo's
# page-run index, the cluster simulator's split turns, the trace patterns'
# fills, the wire decoders and the journal's decoder and round trip, the
# trace-export smoke, the bounded scale-out load smoke, the bounded
# crash-soak smoke, the learned-prefetcher smoke, the gate benchmark's
# build-and-run smoke, and the paper's tables at quarter and at full scale.
# On a 2-vCPU Intel Xeon host the three slowest stages are race (359 s),
# test (93 s) and tables-full (61 s), of 617 s in all, measured before
# fuzz-smoke gained the journal's two ten-second targets.
ci: fmt vet lint build test race fuzz-smoke trace-smoke loadtest-smoke soak-smoke prefetch-smoke bench-smoke tables-quarter tables-full

# loc prints the line table CHANGES.md entries and ROADMAP re-anchors quote:
# non-test Go lines (wc -l, so comments and blanks count) per package
# outside bench/, then per file in internal/remote and internal/proto.
# Report only; nothing gates on it.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' \
		-exec wc -l {} + | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); s[d] += $$1; t += $$1 } \
		END { for (d in s) printf "%7d %s\n", s[d], d; printf "%7d total, non-test Go outside bench/\n", t }' | sort -k2
	@wc -l $$(ls internal/remote/*.go internal/proto/*.go | grep -v _test.go)

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint runs the project-specific analyzers (unitsafety, simpurity, lockio,
# errdrop, deadlinecheck, tagswitch, goloop, lockorder); see DESIGN.md
# "Static analysis & invariants". The -short test pass is the analyzer
# suite's own fixture self-tests: it proves the checks still fire on known
# violations before trusting a clean run over the repository.
lint:
	$(GO) test -short ./internal/lint ./cmd/gmslint
	$(GO) run ./cmd/gmslint ./...

# lint-baseline regenerates lint_baseline.json, the committed findings
# artifact. It is kept empty — the lint gate admits no findings — so any
# diff in this file in a change is itself reviewable evidence.
lint-baseline:
	$(GO) run ./cmd/gmslint -json ./... > lint_baseline.json

build:
	$(GO) build ./...

# The last line runs every benchmark once (BenchmarkExperiment/<id> for each
# experiment, BenchmarkRecover, the three profile-sim profiles, ...), so a
# change that breaks one, or the checks it makes, fails here rather than at
# the next timing run. No benchmark's checks depend on its iteration count.
test:
	$(GO) test ./...
	$(GO) test -tags gmsdebug ./internal/core
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# -short skips the heaviest experiment sweeps, but the parallel-engine
# determinism test (internal/experiments TestParallelOutputMatchesSequential)
# deliberately stays enabled so the full RunAll fan-out — every experiment,
# every sweep cell, on a width-8 pool — runs under the race detector at
# small scale on every CI pass.
race:
	$(GO) test -race -short -timeout 15m ./...

# fuzz-smoke fuzzes the trace memo's page-run index (FuzzRunIndex: runs
# against the Read stream, mixed Read/NextRun, runs through trace.Offset, the
# 2³² page boundary), RunCluster's turns (FuzzTurnSplit: runs split at any
# budget replay as the unsplit stream does), the trace patterns' bulk fills
# (FuzzPatternFill: a stream cut into any chunks is the stream filled whole,
# with the same draws), the wire decoders, every parser of bytes from
# another process (FuzzDecode in internal/proto: an accepted payload also
# re-encodes to the same value), and the directory journal (FuzzDecode in
# internal/dirlog: any bytes give a clean truncation point or a typed
# corruption; FuzzRecordRoundTrip: any record decodes back to itself), for
# ten seconds each beyond their seed corpora. Go minimizes each input that
# finds new coverage, by default for up to a minute, and fuzzes nothing
# while both workers minimize: the first new inputs stopped a ten-second run
# after about three. -fuzzminimizetime bounds each minimization to a
# thousand runs of the target.
fuzz-smoke:
	$(GO) test -run xxx -fuzz '^FuzzRunIndex$$' -fuzztime 10s -fuzzminimizetime 1000x ./internal/trace/
	$(GO) test -run xxx -fuzz '^FuzzTurnSplit$$' -fuzztime 10s -fuzzminimizetime 1000x ./internal/sim/
	$(GO) test -run xxx -fuzz '^FuzzPatternFill$$' -fuzztime 10s -fuzzminimizetime 1000x ./internal/trace/
	$(GO) test -run xxx -fuzz '^FuzzDecode$$' -fuzztime 10s -fuzzminimizetime 1000x ./internal/proto/
	$(GO) test -run xxx -fuzz '^FuzzDecode$$' -fuzztime 10s -fuzzminimizetime 1000x ./internal/dirlog/
	$(GO) test -run xxx -fuzz '^FuzzRecordRoundTrip$$' -fuzztime 10s -fuzzminimizetime 1000x ./internal/dirlog/

# tables-quarter renders every paper table from quarter-scale traces and
# checks the output byte for byte against experiments_quarter.txt: the
# simulator's byte-identity gate.
tables-quarter:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	$(GO) run ./cmd/subpagesim -run all -scale 0.25 > "$$tmp" && \
	cmp "$$tmp" experiments_quarter.txt && \
	echo "tables-quarter: -run all -scale 0.25 output byte-identical to experiments_quarter.txt"

# tables-full renders every paper table from the full-scale traces and checks
# the output byte for byte against experiments_full.txt: about a minute at
# -j 2, with ~2.5 GB of memory for the trace memo.
tables-full:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	$(GO) run ./cmd/subpagesim -run all -scale 1.0 -j 2 > "$$tmp" && \
	cmp "$$tmp" experiments_full.txt && \
	echo "tables-full: -run all -scale 1.0 output byte-identical to experiments_full.txt"

# trace-smoke drives the fault tracer end to end through the CLI: one
# small traced simulation exporting both formats, run twice, and the
# exports must be byte-identical (the tracer's determinism contract,
# DESIGN.md §8) and non-empty.
trace-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for run in a b; do \
		$(GO) run ./cmd/subpagesim -app modula3 -scale 0.05 -mem 0.5 -policy lazy \
			-traceout "$$tmp/$$run.chrome.json" -tracejsonl "$$tmp/$$run.jsonl" > /dev/null || exit 1; \
	done && \
	test -s "$$tmp/a.chrome.json" && test -s "$$tmp/a.jsonl" && \
	cmp -s "$$tmp/a.chrome.json" "$$tmp/b.chrome.json" && \
	cmp -s "$$tmp/a.jsonl" "$$tmp/b.jsonl" && \
	echo "trace-smoke: exports non-empty and byte-identical across reruns"

# loadtest is the scale-out experiment (EXPERIMENTS.md "Sharded directory
# loadtest"): a 1-shard vs 4-shard directory comparison under a lookup
# storm and a fleet of closed-loop faulting clients, with each shard's
# lookup capacity service-emulated (-dirservice) so the scaling is visible
# on any host. It fails unless 4 shards deliver >= 3x the 1-shard lookup
# throughput, and writes the SLO table to the committed
# experiments_loadtest.txt.
loadtest:
	$(GO) run ./cmd/gmsload -shards 1,4 -minx 3 -j 16 -duration 2s \
		-clients 100 -requests 100 -dirservice 500us -warmup -cache 8 \
		-out experiments_loadtest.txt

# loadtest-smoke is the bounded CI variant: same shape, ~1s of wall clock,
# a looser 2x scaling gate, and no artifacts written (the tree stays
# clean; the table goes to stdout).
loadtest-smoke:
	$(GO) run ./cmd/gmsload -shards 1,4 -minx 2 -j 8 -duration 250ms \
		-clients 8 -requests 20 -dirservice 500us -warmup -cache 8

# chaos runs the kill/restart self-heal soak: the control-plane recovery
# scenario (lease expiry, epoch-fenced re-registration, breaker probe) on a
# lossy, jittery network across several fault-schedule seeds, under the
# race detector. The short single-pass variant of the same scenario runs in
# every `make test` / `make race` (and thus `make ci`) as
# TestChaosKillRestartSelfHeal.
chaos:
	GMS_CHAOS_SOAK=1 $(GO) test -race -run 'TestChaosKillRestart' -count=1 -v ./internal/remote/

# soak is the kill-anything durability soak (EXPERIMENTS.md "Crash soak"):
# a journaled directory is killed and restarted in place, repeatedly,
# under continuous fault load. gmsload exits non-zero if any recovery
# invariant breaks: a client hang, a re-registration storm, an
# unresolvable page, or a stale-epoch resurrection.
soak:
	$(GO) run ./cmd/gmsload -soak -crashes 5 -crashevery 300ms \
		-clients 4 -pages 256 -servers 2

# soak-smoke is the bounded CI variant: two crash cycles, ~1s of wall
# clock, same invariants, no artifacts written.
soak-smoke:
	$(GO) run ./cmd/gmsload -soak -crashes 2 -crashevery 150ms \
		-clients 2 -pages 64 -servers 1

chaos-demo:
	$(GO) run ./cmd/gmsnode chaos -pages 256 -kill-at 0.5 -restart -hedge 5ms

# prefetch-smoke drives the learned prefetcher through both planes, bounded:
# the prefetch experiment runs twice at small scale through the CLI and must
# render byte-identically (the stateful planner's determinism contract), and
# the client-side prediction path runs against a real server under the race
# detector.
prefetch-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for run in a b; do \
		$(GO) run ./cmd/subpagesim -run prefetch -scale 0.05 -j 4 \
			> "$$tmp/$$run.txt" || exit 1; \
	done && \
	test -s "$$tmp/a.txt" && cmp -s "$$tmp/a.txt" "$$tmp/b.txt" && \
	grep -q 'strided' "$$tmp/a.txt" && \
	echo "prefetch-smoke: experiment deterministic across reruns" && \
	$(GO) test -race -run 'TestClientPrefetchLearnsStride|TestPolicyWireRoundTrip|TestDialRejectsUnknownPolicy|TestServerWantBeyondPlanIsHonored' \
		-count=1 ./internal/remote/

# bench-smoke keeps the gate's benchmark (BENCHMARK.json, bench/) compiling
# and running. bench/ is a module of its own, so nothing above builds it: a
# signature change in internal/proto or internal/remote would otherwise
# surface only when the pipeline's benchmark fails to build. One second
# each, traced, of the fault path, the paced fault path (the link clock,
# its sleeper and the live Table 2 probes), the write-back path (every read
# checked against a shadow copy of the writes), the hit path and the cold
# path (the one workload whose directory shards share a registry, which its
# traced run reads through Registry.Counter), and the two simulator
# workloads, hit-dominated replay (sim-apps) and the fault storm
# (sim-faultstorm), whose runs must agree pass to pass; each exits non-zero
# on a wrong byte or a failed op.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...
	bash bench/run.sh --workload fault-churn --seed 1 --seconds 1 --trace 1 > /dev/null
	bash bench/run.sh --workload atm-pair --seed 1 --seconds 1 --trace 1 > /dev/null
	bash bench/run.sh --workload writeback-mix --seed 1 --seconds 1 --trace 1 > /dev/null
	bash bench/run.sh --workload hit-resident --seed 1 --seconds 1 --trace 1 > /dev/null
	bash bench/run.sh --workload cold-scan --seed 1 --seconds 1 --trace 1 > /dev/null
	bash bench/run.sh --workload sim-apps --seed 1 --seconds 1 --trace 1 > /dev/null
	bash bench/run.sh --workload sim-faultstorm --seed 1 --seconds 1 --trace 1 > /dev/null

# profile-fault profiles the fault path: BenchmarkFaultLoopback (the gate's
# fault-churn workload, in-package: faults/op, read+write syscalls/fault and
# writes/fault from the kernel's own count, allocations, p50, p99.9 and the
# share of time in ops over 1 ms) under the CPU profiler, then the profile's
# top entries. Before it, unprofiled, the floor it is read against:
# BenchmarkRawFaultLoopback, the same exchanges from two bare proto clients.
# Binary and profile go to PROFILE_DIR, outside the tree's tracked files.
PROFILE_DIR ?= .bench_build/profile
profile-fault:
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -run xxx -bench '^BenchmarkRawFaultLoopback$$' -benchtime 400000x -benchmem ./internal/remote/
	$(GO) test -run xxx -bench '^BenchmarkFaultLoopback$$' -benchtime 400000x -benchmem \
		-cpuprofile $(PROFILE_DIR)/fault.prof -o $(PROFILE_DIR)/remote.test ./internal/remote/
	$(GO) tool pprof -top -nodecount 40 $(PROFILE_DIR)/remote.test $(PROFILE_DIR)/fault.prof

# profile-sim profiles the simulator's three regimes under the CPU profiler,
# each followed by the profile's top entries: its fault path,
# BenchmarkSimFaultStorm (the gate's sim-faultstorm shape, in-package:
# ns/fault and allocs/fault per policy cell), its hit-dominated replay,
# BenchmarkSimApps (the gate's sim-apps matrix, in-package: Mrefs/s and
# allocs per sim.Run), and its multi-node runs, BenchmarkRunCluster (the
# Cluster experiment's matrix at scale 0.1: Mrefs/s and allocs per
# RunCluster).
profile-sim:
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -run xxx -bench '^BenchmarkSimFaultStorm$$' -benchtime 80x -benchmem \
		-cpuprofile $(PROFILE_DIR)/sim.prof -o $(PROFILE_DIR)/sim.test ./internal/sim/
	$(GO) tool pprof -top -nodecount 40 $(PROFILE_DIR)/sim.test $(PROFILE_DIR)/sim.prof
	$(GO) test -run xxx -bench '^BenchmarkSimApps$$' -benchtime 10x -benchmem \
		-cpuprofile $(PROFILE_DIR)/simapps.prof -o $(PROFILE_DIR)/sim.test ./internal/sim/
	$(GO) tool pprof -top -nodecount 40 $(PROFILE_DIR)/sim.test $(PROFILE_DIR)/simapps.prof
	$(GO) test -run xxx -bench '^BenchmarkRunCluster$$' -benchtime 10x -benchmem \
		-cpuprofile $(PROFILE_DIR)/cluster.prof -o $(PROFILE_DIR)/sim.test ./internal/sim/
	$(GO) tool pprof -top -nodecount 40 $(PROFILE_DIR)/sim.test $(PROFILE_DIR)/cluster.prof
