#!/bin/sh
# Full verification gate: vet, build, race-check the packages whose
# code runs on concurrent goroutines under the parallel point runner,
# then the whole suite, then an end-to-end JSON report whose
# schema is validated before it is written (writeReport re-runs
# ValidateReport) and golden-checked by the experiments tests. CI and
# `make check` both run this.
set -eux

cd "$(dirname "$0")/.."

# Guard against editing this gate into a script that no longer parses.
sh -n scripts/check.sh

go vet ./...
go build ./...
# Repo-specific invariants (determinism, pool leases, metric names)
# plus reduced shadow/unusedwrite ports; findings need a fix or a
# justified //octolint:allow directive.
go run ./cmd/octolint
# The race pass covers what runs clusters concurrently: the -parallel
# point runner in internal/experiments fans independent simulations
# over goroutines, each cluster with its own engine, process coroutines,
# fault injector and metrics registry. internal/sim, internal/metrics
# and internal/faults carry that per-cluster code.
# internal/driver rides along for the watchdog: its ladder and poller
# fallback tests exercise the recovery timers under the race detector.
# internal/kernel carries the event-driven core dispatcher's contract
# tests, and internal/core the cluster Drain-without-run leak test.
go test -race ./internal/sim/... ./internal/metrics/... ./internal/experiments/... ./internal/faults/... ./internal/driver/... ./internal/kernel/... ./internal/core/...
go test ./...

# JSON schema gate: emit a real report and require it to validate.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/ioctobench -fig fig2 -quick -json "$tmp/report.json" > "$tmp/report.txt"
test -s "$tmp/report.json"

# The hidden chaos, pmd and devchaos harnesses are pinned, text and
# JSON, by TestFiguresMatchGolden's hidden_quick golden in the suite
# above; a golden pins identity, which implies run-to-run determinism.

# Fuzz smoke gate: a pinned batch of generated scenarios must pass all
# declared invariants (exit 0) and replay byte-identically on a second
# run.
go run ./cmd/ioctobench -fuzz 8 -seed 1 > "$tmp/fuzz1.txt"
go run ./cmd/ioctobench -fuzz 8 -seed 1 > "$tmp/fuzz2.txt"
cmp "$tmp/fuzz1.txt" "$tmp/fuzz2.txt"

# Bench gate: the packet-path benchmarks must stay within the allocs/op
# thresholds recorded in BENCH_sim.json (the "gate" section).
evr_max="$(sed -n 's/.*"BenchmarkSimulatorEventRate_max_allocs_per_op": *\([0-9]*\).*/\1/p' BENCH_sim.json)"
pp_max="$(sed -n 's/.*"BenchmarkPacketPath_max_allocs_per_op": *\([0-9]*\).*/\1/p' BENCH_sim.json)"
bp_max="$(sed -n 's/.*"BenchmarkBusyPollPath_max_allocs_per_op": *\([0-9]*\).*/\1/p' BENCH_sim.json)"
if test -z "$evr_max" || test -z "$pp_max" || test -z "$bp_max"; then
    echo "check.sh: BENCH_sim.json is missing its gate keys" \
        "(BenchmarkSimulatorEventRate_max_allocs_per_op," \
        "BenchmarkPacketPath_max_allocs_per_op," \
        "BenchmarkBusyPollPath_max_allocs_per_op); regenerate with" \
        "'make bench' and restore the gate section" >&2
    exit 1
fi
go test -run '^$' -bench 'BenchmarkPacketPath$|BenchmarkBusyPollPath$|BenchmarkSimulatorEventRate$' -benchtime 10x -benchmem . | tee "$tmp/bench.txt"
awk -v evr_max="$evr_max" -v pp_max="$pp_max" -v bp_max="$bp_max" '
  /^BenchmarkSimulatorEventRate(-|[ \t])/ { seen_evr = 1; a = $(NF-1) + 0
    if (a > evr_max) { printf "bench gate: SimulatorEventRate %d allocs/op > %d\n", a, evr_max; bad = 1 } }
  /^BenchmarkPacketPath/ { seen_pp = 1; a = $(NF-1) + 0
    if (a > pp_max) { printf "bench gate: PacketPath %d allocs/op > %d\n", a, pp_max; bad = 1 } }
  /^BenchmarkBusyPollPath/ { seen_bp = 1; a = $(NF-1) + 0
    if (a > bp_max) { printf "bench gate: BusyPollPath %d allocs/op > %d\n", a, bp_max; bad = 1 } }
  END {
    if (!seen_evr || !seen_pp || !seen_bp) { print "bench gate: benchmark output missing"; bad = 1 }
    exit bad
  }' "$tmp/bench.txt"
