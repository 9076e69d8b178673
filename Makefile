# Convenience targets; `make check` is the verification gate.

.PHONY: check test bench build lint fuzz devchaos

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
	go test -run '^$$' -bench 'BenchmarkPacketPath$$|BenchmarkSimulatorEventRate|BenchmarkAllFiguresQuick' -benchmem .
