#!/bin/sh
# Full verification gate. CI and `make check` both run this. It proves:
#   - gofmt would rewrite no file, go vet is clean and everything builds;
#   - octolint finds nothing (determinism, pool leases, metric names);
#   - the packages that run clusters on concurrent goroutines are free
#     of data races, with every figure runner run concurrently once;
#   - the whole suite passes, and with it every figure's shape checks
#     and the all_quick and hidden_quick goldens (text and JSON);
#   - an end-to-end JSON report validates against its schema
#     (writeReport re-runs ValidateReport before it writes);
#   - a pinned batch of generated scenarios passes its invariants,
#     replays byte-identically in a second process, and tracing it
#     changes nothing it prints;
#   - the packet, remote Rx, busy-poll and event-rate benchmarks stay
#     within BENCH_sim.json's allocs/op and events/op gates.
set -eux

cd "$(dirname "$0")/.."

# Guard against editing this gate into a script that no longer parses.
sh -n scripts/check.sh

# Formatting gate: gofmt would rewrite no file.
test -z "$(gofmt -l .)"
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
# TestFiguresMatchGolden/all_quick is the one concurrent run of every
# figure runner here: the test fans points over at least 8 workers
# itself. Its hidden_quick row (chaos, pmd, devchaos) is skipped: it
# took 69 s under -race on the 2-core host, and its harnesses fan out
# through the same point runner. Chaos still runs here, in
# TestTracedRunRendersSameText; go test ./... below runs the row.
go test -race -skip 'TestFiguresMatchGolden/hidden_quick' ./internal/sim/... ./internal/metrics/... ./internal/experiments/... ./internal/faults/... ./internal/driver/... ./internal/kernel/... ./internal/core/...
go test ./...

# JSON schema gate: emit a real report and require it to validate.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/ioctobench -fig fig2 -quick -json "$tmp/report.json" > "$tmp/report.txt"
test -s "$tmp/report.json"

# The hidden chaos, pmd and devchaos harnesses are pinned, text and
# JSON, by TestFiguresMatchGolden's hidden_quick golden in go test
# ./... above; a golden pins identity, which implies run-to-run
# determinism.

# Fuzz smoke gate: a pinned batch of generated scenarios must pass all
# declared invariants (exit 0). A traced second run must print the same
# text and write a trace. That one cmp is the replay check: a second
# process reproduces the batch byte for byte, and tracing only observes.
go run ./cmd/ioctobench -fuzz 8 -seed 1 > "$tmp/fuzz.txt"
go run ./cmd/ioctobench -fuzz 8 -seed 1 -trace "$tmp/fuzz.trace.json" > "$tmp/fuzz-traced.txt"
cmp "$tmp/fuzz.txt" "$tmp/fuzz-traced.txt"
test -s "$tmp/fuzz.trace.json"

# Bench gate: the packet-path benchmarks must stay within the allocs/op
# thresholds recorded in BENCH_sim.json (the "gate" section), and the
# busy-poll path within its events/op ceiling: at -benchtime 10x that
# count is a pure function of the simulation, and idle poll iterations
# put back on the event heap would multiply it. The remote Rx path is
# the run whose completion reads miss one at a time (§5.1.1).
evr_max="$(sed -n 's/.*"BenchmarkSimulatorEventRate_max_allocs_per_op": *\([0-9]*\).*/\1/p' BENCH_sim.json)"
pp_max="$(sed -n 's/.*"BenchmarkPacketPath_max_allocs_per_op": *\([0-9]*\).*/\1/p' BENCH_sim.json)"
rr_max="$(sed -n 's/.*"BenchmarkRemoteRxPath_max_allocs_per_op": *\([0-9]*\).*/\1/p' BENCH_sim.json)"
bp_max="$(sed -n 's/.*"BenchmarkBusyPollPath_max_allocs_per_op": *\([0-9]*\).*/\1/p' BENCH_sim.json)"
bp_ev_max="$(sed -n 's/.*"BenchmarkBusyPollPath_max_events_per_op": *\([0-9]*\).*/\1/p' BENCH_sim.json)"
if test -z "$evr_max" || test -z "$pp_max" || test -z "$rr_max" || test -z "$bp_max" || test -z "$bp_ev_max"; then
    echo "check.sh: BENCH_sim.json is missing its gate keys" \
        "(BenchmarkSimulatorEventRate_max_allocs_per_op," \
        "BenchmarkPacketPath_max_allocs_per_op," \
        "BenchmarkRemoteRxPath_max_allocs_per_op," \
        "BenchmarkBusyPollPath_max_allocs_per_op," \
        "BenchmarkBusyPollPath_max_events_per_op); regenerate with" \
        "'make bench' and restore the gate section" >&2
    exit 1
fi
go test -run '^$' -bench 'BenchmarkPacketPath$|BenchmarkRemoteRxPath$|BenchmarkBusyPollPath$|BenchmarkSimulatorEventRate$' -benchtime 10x -benchmem . | tee "$tmp/bench.txt"
awk -v evr_max="$evr_max" -v pp_max="$pp_max" -v rr_max="$rr_max" -v bp_max="$bp_max" -v bp_ev_max="$bp_ev_max" '
  /^BenchmarkSimulatorEventRate(-|[ \t])/ { seen_evr = 1; a = $(NF-1) + 0
    if (a > evr_max) { printf "bench gate: SimulatorEventRate %d allocs/op > %d\n", a, evr_max; bad = 1 } }
  /^BenchmarkPacketPath/ { seen_pp = 1; a = $(NF-1) + 0
    if (a > pp_max) { printf "bench gate: PacketPath %d allocs/op > %d\n", a, pp_max; bad = 1 } }
  /^BenchmarkRemoteRxPath/ { seen_rr = 1; a = $(NF-1) + 0
    if (a > rr_max) { printf "bench gate: RemoteRxPath %d allocs/op > %d\n", a, rr_max; bad = 1 } }
  /^BenchmarkBusyPollPath/ { seen_bp = 1; a = $(NF-1) + 0
    if (a > bp_max) { printf "bench gate: BusyPollPath %d allocs/op > %d\n", a, bp_max; bad = 1 }
    for (i = 2; i <= NF; i++) if ($i == "events/op") { seen_bp_ev = 1; ev = $(i-1) + 0 }
    if (ev > bp_ev_max) { printf "bench gate: BusyPollPath %d events/op > %d\n", ev, bp_ev_max; bad = 1 } }
  END {
    if (!seen_evr || !seen_pp || !seen_rr || !seen_bp || !seen_bp_ev) { print "bench gate: benchmark output missing"; bad = 1 }
    exit bad
  }' "$tmp/bench.txt"
