#!/usr/bin/env bash
# qb_e2e — the one command of the benchmark. Run it from anywhere.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       One run, as BENCHMARK.json's driver calls it. The last line of
#       standard output is the result object. With --trace 1 the untraced
#       run goes first (end-to-end numbers always come from it), then the
#       traced run, which is checked against it and prints the per-layer
#       metrics.
#   run.sh [--seed N] [--seconds S]
#       Each of the four workloads untraced, then traced; prints every
#       metric as `workload metric value unit n` and writes
#       benchmarks/out/results.json.
#   run.sh --calibrate [--runs R] [--seconds S]
#       R untraced runs of each workload (seeds 11, 12, ...), then rewrites
#       BENCHMARK.json with bounds derived from the noise measured.
#
# Everything is written under benchmarks/out/ and the cargo target dir.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
workloads=(bus_hybrid wide_churn serve_mixed durable_bus)

workload="" seed=11 seconds=10 trace=0 calibrate=0 runs=10
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace | --traced) trace="$2"; shift 2 ;;
        --runs) runs="$2"; shift 2 ;;
        --calibrate) calibrate=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# Build from source, offline; cargo's chatter goes to standard error.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/qb_e2e"
mkdir -p "$out"
QB_E2E_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
QB_E2E_RUSTC="$(rustc -V)"
export QB_E2E_COMMIT QB_E2E_RUSTC

untraced() {
    "$bin" run --workload "$1" --seed "$2" --seconds "$seconds" --trace 0 --out "$out"
}
# A traced run is checked against the untraced run of the same workload
# and seed that ran just before it.
traced() {
    "$bin" run --workload "$1" --seed "$2" --seconds "$seconds" --trace 1 --out "$out" \
        --baseline "$out/$1.untraced.txt"
}

if [ -n "$workload" ]; then
    if [ "$trace" = 1 ]; then
        untraced "$workload" "$seed" >&2
        traced "$workload" "$seed"
    else
        untraced "$workload" "$seed"
    fi
    exit
fi

if [ "$calibrate" = 1 ]; then
    : > "$out/calibrate.txt"
    # A machine that was idle runs faster for its first minute (boost,
    # burst credits); the driver's runs come after two builds, so measure
    # noise in the same sustained state.
    for ((r = 0; r < 4; r++)); do
        echo "calibrate: warm-up $((r + 1))/4" >&2
        untraced bus_hybrid "$seed" > /dev/null
    done
    for w in "${workloads[@]}"; do
        for ((r = 0; r < runs; r++)); do
            echo "calibrate: $w run $((r + 1))/$runs" >&2
            untraced "$w" $((seed + r)) | grep "^$w " >> "$out/calibrate.txt"
        done
    done
    "$bin" calibrate --lines "$out/calibrate.txt" --seconds "$seconds" > "$out/BENCHMARK.json"
    mv "$out/BENCHMARK.json" "$here/../BENCHMARK.json"
    echo "calibrate: wrote $(cd "$here/.." && pwd)/BENCHMARK.json" >&2
    exit
fi

# All four: each workload untraced, then traced against that run.
status=0
for w in "${workloads[@]}"; do
    untraced "$w" "$seed" | grep -v '^{' || status=1
    traced "$w" "$seed" | grep -v '^{' || status=1
done
{
    echo '{"records":['
    sep=""
    for mode in untraced traced; do
        for w in "${workloads[@]}"; do
            printf '%s' "$sep"
            tr -d '\n' < "$out/$w.$mode.json"
            sep=$',\n'
        done
    done
    printf '\n]}\n'
} > "$out/results.json"
echo "wrote $out/results.json" >&2
exit $status
