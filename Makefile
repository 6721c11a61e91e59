# Tier-1 verification plus the race pass that continuously checks the
# sharded parallel engine. CI runs `make check`, then `make cover`
# (gated at 93.2%), `make reach` and `make fuzz`, beside the allocation
# gates, the golden snapshot and a campaign smoke run.

GO ?= go

.PHONY: build test test-bench race vet cover reach bench fuzz check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark harness is a nested module (bench/go.mod), so ./... does
# not reach it; compile and test it against every change to the surface
# it drives.
test-bench:
	cd bench && $(GO) test .

vet:
	$(GO) vet ./...

# The sharded engine's concurrency is exercised by the determinism suite
# (Workers>1, every partition geometry, restores onto other layouts,
# batched host traffic) and the sim/router/workload packages; keep them
# under the race detector on every change.
race:
	$(GO) test -race ./internal/sim/ ./internal/router/ ./internal/workload/
	$(GO) test -race -run 'TestDeterminism|TestDifferentSeeds|TestBoardLookahead|TestCabinetLookahead|TestFailLinkRepricesGuttedCut|TestHostLoad|TestBatch|TestFillMem|TestHostOrigin|TestHostTimeout|TestSnapshot|TestCampaign|TestFailChip|TestFillRedundancy|TestWorkload|TestRepairWakesSleepers' .

# Tier-1 coverage of the engine, router, host, snapshot-codec, neural and
# mapping packages, gated in CI at the PR-10 baseline (93.2%).
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic \
		-coverpkg=spinngo/internal/sim,spinngo/internal/router,spinngo/internal/host,spinngo/internal/snap,spinngo/internal/neural,spinngo/internal/mapping \
		./internal/sim/ ./internal/router/ ./internal/host/ ./internal/snap/ ./internal/neural/ ./internal/mapping/ .
	$(GO) tool cover -func=cover.out | tail -1

# Reach census: a coverage-built spinnsim runs every registry workload
# and two checkpoint round trips, the experiment tables run beside it,
# and every function none of them reaches must be listed in
# testdata/reach.allow with its reason. A new unreached function, or an
# entry that is reached or gone, fails. See testdata/reach.sh.
reach:
	GO=$(GO) bash testdata/reach.sh

# The repo's one benchmark (BENCHMARK.json): every named workload end to
# end, one JSON result per workload. See bench/README.md for -workload,
# -trace and -compare.
bench:
	bash bench/run.sh

# A short coverage-guided fuzz pass over the workload/campaign parsers
# (seed corpora in internal/workload/testdata/fuzz) and over Restore
# (seeded with the golden-workload image and corruptions of it; the
# seeds are ~300 KB, so per-input minimisation is capped to leave the
# ten seconds to execution), after ten seconds of random packet, DMA and
# timer schedules held against the kernel's eager-completion oracle, ten
# of row fetches folded into their core's dispatch held against the
# eager DMA controller (seeds in internal/chip/testdata/fuzz) and ten of
# push/pop streams held against the event queue's one-heap reference
# (seeds in internal/sim/testdata/fuzz), ten of synaptic row stores
# built, looked up and restored against a map of rows and ten of spike
# rasters recorded, read back and restored against a []Spike raster (seeds
# for both in internal/neural/testdata/fuzz), and ten of small random networks
# compiled by the mapper's streaming pass against its map-based oracle
# (seeds in internal/mapping/testdata/fuzz).
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzCoreCompletion' -fuzztime 10s ./internal/kernel/
	$(GO) test -run '^$$' -fuzz 'FuzzRowFetch' -fuzztime 10s ./internal/chip/
	$(GO) test -run '^$$' -fuzz 'FuzzQueueOrder' -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz 'FuzzMatrix' -fuzztime 10s ./internal/neural/
	$(GO) test -run '^$$' -fuzz 'FuzzRecorder' -fuzztime 10s ./internal/neural/
	$(GO) test -run '^$$' -fuzz 'FuzzCompile' -fuzztime 10s ./internal/mapping/
	$(GO) test -run '^$$' -fuzz 'FuzzParseWorkload' -fuzztime 10s ./internal/workload/
	$(GO) test -run '^$$' -fuzz 'FuzzParseCampaign' -fuzztime 10s ./internal/workload/
	$(GO) test -run '^$$' -fuzz 'FuzzRestore' -fuzztime 10s -fuzzminimizetime 1s .

check: build vet test test-bench race
