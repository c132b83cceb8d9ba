#!/usr/bin/env bash
# Bench smoke gate: run the tiny `repro bench-replay --smoke`
# configuration and re-validate the JSON it writes with
# `repro bench-check`, so a regression that breaks the replay bench or
# produces a malformed report fails CI in seconds. The smoke output
# goes under target/ so it never clobbers the committed full-size
# BENCH_trace_replay.json at the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Always build: the workspace-root `cargo build` does not cover the
# bench package (the root package does not depend on it), so checking
# for an existing binary here could silently smoke-test a stale one.
cargo build --release --offline -p bench
REPRO=target/release/repro

OUT=target/BENCH_trace_replay_smoke.json
"$REPRO" bench-replay --smoke --out "$OUT"
"$REPRO" bench-check "$OUT"

# Performance gates, one declarative table (`bench::gate::table`):
# telemetry, migration-off and sampling overhead <= 2 %, parallel >=
# 0.95x streaming, sweep reuse >= 1.1x, advisor batch >= 5x and its
# single-query plumbing <= 2 %. Each row's structural asserts
# (bit-identical arms, classify counts, dedupe, cache retention) panic
# on the first attempt; only a missed timing bound is retried, up to
# three attempts, because shared-host timer noise at the 2 % scale is
# larger than the costs being priced.
"$REPRO" gate
