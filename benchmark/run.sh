#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#                    [--smoke] [--bless]
#
# Without --workload it runs all four workloads, one process each.
# Without --trace it also runs each workload's traced pass, so every
# declared metric is printed as a `workload metric value unit` line.
# The last line of each run is its result object (`correct`,
# `attempted`, `failed`, `metrics`); traced runs write their spans to
# target/benchmark/trace_<workload>.jsonl. --bless records the default
# seed's digests in benchmark/expected/.
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target"
bin="$target/release/hmbench"
rev="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

workloads=(replay_stream replay_random sweep_migrate advisor_serve)
trace=1
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workloads=("$2"); shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --seed | --seconds) args+=("$1" "$2"); shift 2 ;;
        --smoke) args=(--seconds 0 "${args[@]}" --smoke); shift ;;
        --bless) args+=(--bless); shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

for w in "${workloads[@]}"; do
    "$bin" --workload "$w" --trace "$trace" --rev "$rev" "${args[@]}"
done
