# Convenience targets; `make check` is the verification gate.

.PHONY: check test bench build lint fuzz devchaos unreached identical

build:
	go build ./...

test:
	go test ./...

# Static invariants only (also part of `make check`): the octolint
# multichecker (seeded determinism, metric names, writes never read)
# over the whole module.
lint:
	go run ./cmd/octolint

# vet + lint + build + race (sim, metrics, experiments, faults, driver,
# kernel, core) + full test suite + report, determinism and bench gates.
check:
	./scripts/check.sh

# Simulation fuzzing: run a batch of seeded random scenarios and fail
# on any invariant violation. Override the batch with SEED= and N=.
SEED ?= 1
N ?= 25
fuzz:
	go run ./cmd/ioctobench -fuzz $(N) -seed $(SEED)

# Device failure-domain sweep: firmware resets, queue stalls and poller
# wedges across the three datapaths, with windowed recovery checks.
devchaos:
	go run ./cmd/ioctobench -fig devchaos -quick

# Regenerate the performance numbers behind BENCH_sim.json.
bench:
	go test -run '^$$' -bench 'BenchmarkPacketPath$$|BenchmarkRemoteRxPath$$|BenchmarkBusyPollPath$$|BenchmarkSimulatorEventRate|BenchmarkAllFiguresQuick' -benchmem .

# Byte-identity check for changes that must not move any output: the
# figures (quick text and JSON report, and full-duration text), chaos
# (untraced, and traced with its trace file compared), devchaos, pmd,
# two fuzz batches and the five examples, run from BASE and from the
# working tree (~1.5 min on 2 cores).
BASE ?= HEAD
identical:
	./scripts/identical.sh $(BASE)

# Model code no run reaches: the internal/ functions (octolint's own
# packages aside) at 0.0% both in the golden run, which covers every
# figure plus chaos, pmd and devchaos, and in coverage-instrumented runs
# of ioctobench -fuzz 8 -seed 1 and the five examples. perfbench is a
# module of its own and is not run, so what only it calls (the PCIe
# endpoint counters and Fabric.Endpoints) stays listed. Profiles go to
# a temporary directory outside the tree.
unreached:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; set -e; \
	go test -run TestFiguresMatchGolden -coverpkg=./internal/... -coverprofile="$$tmp/golden.out" ./internal/experiments/ >/dev/null; \
	mkdir "$$tmp/covdata"; \
	go build -cover -o "$$tmp/ioctobench" ./cmd/ioctobench; \
	GOCOVERDIR="$$tmp/covdata" "$$tmp/ioctobench" -fuzz 8 -seed 1 >/dev/null 2>&1; \
	for ex in quickstart keyvalue migration storage fileserver; do \
		go build -cover -o "$$tmp/$$ex" "./examples/$$ex"; \
		GOCOVERDIR="$$tmp/covdata" "$$tmp/$$ex" >/dev/null 2>&1; \
	done; \
	go tool covdata textfmt -i="$$tmp/covdata" -o "$$tmp/runs.out"; \
	for run in golden runs; do \
		go tool cover -func="$$tmp/$$run.out" | \
			awk '$$NF == "0.0%" && $$1 ~ /\/internal\// && $$1 !~ /\/internal\/lint\// { print $$1, $$2 }' | \
			sort >"$$tmp/$$run.zero"; \
	done; \
	comm -12 "$$tmp/golden.zero" "$$tmp/runs.zero"
