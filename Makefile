# Tier-1 verification plus the race pass that continuously checks the
# sharded parallel engine. `make check` is what CI runs.

GO ?= go

.PHONY: build test test-bench race vet cover bench bench-workers benchcmp scale-smoke fuzz check

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
# (Workers>1, every partition geometry, repartition on and off, batched
# host traffic) and the sim/router/benchsweep packages; keep them under
# the race detector on every change.
race:
	$(GO) test -race ./internal/sim/ ./internal/router/ ./internal/benchsweep/ ./internal/workload/
	$(GO) test -race -run 'TestDeterminism|TestDifferentSeeds|TestBoardLookahead|TestCabinetLookahead|TestRepartition|TestShiftingHotspot|TestBatch|TestFillMem|TestHostOrigin|TestHostTimeout|TestSnapshot|TestCampaign|TestFailChip|TestFillRedundancy|TestWorkload' .

# Tier-1 coverage of the engine + host + snapshot-codec packages, gated
# in CI at the PR-10 baseline (93.2%).
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic \
		-coverpkg=spinngo/internal/sim,spinngo/internal/host,spinngo/internal/snap \
		./internal/sim/ ./internal/host/ ./internal/snap/ .
	$(GO) tool cover -func=cover.out | tail -1

# Worker/partition/board-hierarchy sweep of the end-to-end machine
# benchmark (8x8 worker grid plus 8x8/16x16/32x32 bands-vs-blocks-vs-
# boards comparison plus the workers x GOMAXPROCS scaling sweep plus the
# shifting-hotspot repartition, host-load, scale and fault-campaign
# scenarios), recorded as JSON for the bench trajectory.
bench:
	$(GO) run ./cmd/benchsweep -out BENCH_PR10.json

# A short coverage-guided fuzz pass over the workload/campaign parsers;
# the seed corpora live in internal/workload/testdata/fuzz. CI runs the
# same smoke.
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzParseWorkload' -fuzztime 10s ./internal/workload/
	$(GO) test -run '^$$' -fuzz 'FuzzParseCampaign' -fuzztime 10s ./internal/workload/

# The scale scenario alone: bytes of live heap per chip on idle and
# booted machines up to a 256x256 torus, plus the achieved lookahead of
# each packaging level. The memory ceiling keeps a sparse-state
# regression (anything proportional to torus size on the boot path) from
# passing silently; CI runs this as its scale smoke.
scale-smoke:
	GOMEMLIMIT=512MiB $(GO) run ./cmd/benchsweep -scale-only -out ''

# The same sweep through `go test -bench` (human-readable only).
bench-workers:
	$(GO) test -run '^$$' -bench 'BenchmarkMachineBioSecondWorkers' -benchtime 3x .

# Diff two bench trajectory files cell-by-cell; override OLD/NEW to
# compare any pair, e.g. `make benchcmp OLD=BENCH_PR5.json`.
OLD ?= BENCH_PR9.json
NEW ?= BENCH_PR10.json
benchcmp:
	$(GO) run ./cmd/benchcmp $(OLD) $(NEW)

check: build vet test test-bench race
