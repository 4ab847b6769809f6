#!/usr/bin/env bash
# Measures the headline hot-path medians (graph build, corner-to-corner route,
# geographic-gossip tick at n ∈ {1024, 4096}, plus the tick speedup over the
# preserved pre-CSR implementation) and records them in BENCH_baseline.json —
# the repository's performance trajectory.
#
# The classic baseline section is only (re)generated when the output file does
# not exist yet; every plain invocation then APPENDS a dyn-dispatch vs
# generic-path tick measurement to the file's `dyn_dispatch` array (the
# scenario redesign's object-safe protocol trait adds a `dyn RngCore` vtable
# to the hot path; this keeps its overhead measured over time without
# overwriting history).
#
# With `--append-build`, the script instead APPENDS large-n graph-construction
# rows (n ∈ {65 536, 262 144, 1 048 576}: two-pass parallel build vs the
# preserved sequential reference) to the file's `graph_build` array — same
# never-clobber-history discipline, so the build trajectory accumulates
# alongside the tick trajectory. Expect this mode to take a few minutes: the
# largest row times several million-node builds.
#
# With `--append-tick-large`, it APPENDS overhauled-vs-pre-overhaul engine
# tick-loop medians at n ∈ {65 536, 262 144} to the `tick_loop_large` array
# (whole fixed-budget geographic-gossip runs, reports asserted identical).
# With `--append-trial`, it APPENDS whole-trial wall clock and ticks/sec for
# every member of scenarios/large_n.json to the `trial_wall_clock` array —
# expect minutes (a 262 144-node scenario runs to convergence).
# With `--append-net`, it APPENDS message-passing-scheduler vs shared-memory
# engine tick medians at n ∈ {1024, 4096} (geographic gossip on the instant
# schedule, reports asserted bit-identical) to the `net_runtime` array.
# With `--append-intra`, it APPENDS parallel-engine vs sequential-engine
# whole-loop medians at n ∈ {65 536, 262 144} (intra-trial parallelism on the
# work-stealing pool, thread count recorded per row, reports asserted
# bit-identical) to the `intra_trial` array.
# With `--append-telemetry`, it APPENDS probe-attached vs probe-absent
# whole-loop medians at n ∈ {1024, 4096} (counting probe on the engine loop,
# reports asserted bit-identical — a probe observes, never steers) to the
# `telemetry_overhead` array.
#
# `--smoke` shrinks every mode to seconds-scale for CI; it requires an
# explicit scratch output path and must never target the committed JSON.
#
# Usage: scripts/bench_baseline.sh [--append-build] [--append-tick-large]
#        [--append-trial] [--append-net] [--append-intra] [--append-telemetry]
#        [--smoke] [output.json]
#        (default output: BENCH_baseline.json)
# Force a fresh classic baseline by deleting the file first.
#
# The script drives the dedicated `bench_baseline` binary so the result is a
# single machine-readable file; `perfbench/` (declared in BENCHMARK.json)
# measures the end-to-end and per-layer costs.
set -euo pipefail
cd "$(dirname "$0")/.."

# Note: expansions of the possibly-empty arrays use the `${arr[@]+...}`
# guard so `set -u` stays happy on bash < 4.4 (macOS ships 3.2).
MODES=()
SMOKE=()
OUT="BENCH_baseline.json"
for arg in "$@"; do
    case "$arg" in
        --append-build | --append-tick-large | --append-trial | --append-net | --append-intra | --append-telemetry) MODES+=("$arg") ;;
        --smoke) SMOKE=(--smoke) ;;
        -*)
            echo "unknown flag \`$arg\` (supported: --append-build, --append-tick-large, --append-trial, --append-net, --append-intra, --append-telemetry, --smoke)" >&2
            exit 2
            ;;
        *) OUT="$arg" ;;
    esac
done

if [ "${#MODES[@]}" -gt 0 ]; then
    for mode in "${MODES[@]}"; do
        cargo run --release -p geogossip-bench --bin bench_baseline -- "$mode" ${SMOKE[@]+"${SMOKE[@]}"} "$OUT"
    done
    exit 0
fi

if [ ! -f "$OUT" ]; then
    cargo run --release -p geogossip-bench --bin bench_baseline -- ${SMOKE[@]+"${SMOKE[@]}"} "$OUT"
fi
cargo run --release -p geogossip-bench --bin bench_baseline -- --append-dyn ${SMOKE[@]+"${SMOKE[@]}"} "$OUT"
