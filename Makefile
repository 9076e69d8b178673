# Convenience targets; `make check` is the verification gate.

.PHONY: check test bench build lint fuzz devchaos unreached

build:
	go build ./...

test:
	go test ./...

# Static invariants only (also part of `make check`): the octolint
# multichecker over the whole module.
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

# Model code no run reaches: the internal/ functions (octolint's own
# packages aside) at 0.0% both in the golden run, which covers every
# figure plus chaos, pmd and devchaos, and in a coverage-instrumented
# ioctobench -fuzz 8 -seed 1. Profiles go to a temporary directory
# outside the tree.
unreached:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; set -e; \
	go test -run TestFiguresMatchGolden -coverpkg=./internal/... -coverprofile="$$tmp/golden.out" ./internal/experiments/ >/dev/null; \
	go build -cover -o "$$tmp/ioctobench" ./cmd/ioctobench; \
	mkdir "$$tmp/covdata"; \
	GOCOVERDIR="$$tmp/covdata" "$$tmp/ioctobench" -fuzz 8 -seed 1 >/dev/null 2>&1; \
	go tool covdata textfmt -i="$$tmp/covdata" -o "$$tmp/fuzz.out"; \
	for run in golden fuzz; do \
		go tool cover -func="$$tmp/$$run.out" | \
			awk '$$NF == "0.0%" && $$1 ~ /\/internal\// && $$1 !~ /\/internal\/lint\// { print $$1, $$2 }' | \
			sort >"$$tmp/$$run.zero"; \
	done; \
	comm -12 "$$tmp/golden.zero" "$$tmp/fuzz.zero"
