#!/usr/bin/env bash
# Self-checks of the benchmark package: its unit and self tests, a
# smoke run of every workload (each must report `"correct": true`),
# and formatting.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test --offline --manifest-path benchmark/Cargo.toml \
    --target-dir "${CARGO_TARGET_DIR:-target/benchmark}"
out="$(bash benchmark/run.sh --smoke)"
printf '%s\n' "$out"
if printf '%s\n' "$out" | grep '^{' | grep -v '"correct": true'; then
    echo "check.sh: a smoke run failed its checks" >&2
    exit 1
fi
cargo fmt --check --manifest-path benchmark/Cargo.toml
