#!/usr/bin/env bash
# Tier-1 CI gate: the whole workspace must build, test, and stay
# formatted with ZERO network access — every dependency is in-tree.
set -euo pipefail
cd "$(dirname "$0")/.."

# --workspace: the root package alone does not build `repro`, which the
# gates below invoke from target/release.
cargo build --release --offline --workspace

# Every target of the workspace must compile without a rustc warning
# and stay clippy-clean; clippy reports rustc's own warnings too, so
# this one step is the warnings gate. New items start `pub(crate)` and
# widen to `pub` only when another crate needs them, so an item that
# loses its last caller is dead code, and dead code fails here instead
# of waiting for a reader to notice.
cargo clippy --offline --workspace --all-targets -- -D warnings

# The root test suite. The equivalence suites pin their own worker
# ladders with `par::with_threads` (1/2/4/8 in
# tests/parallel_equivalence.rs for streaming replay and in
# tests/classified_equivalence.rs for artifact builds), so one pass
# covers every worker count. Every streaming replay crosses the
# producer-to-merge pipe, where a deadlock would present as a hang,
# so the pass runs under a watchdog.
timeout 1800 cargo test -q --offline

# The root `cargo test` above covers the root package only. Test every
# other crate by excluding it, so a new crate cannot silently drop out.
timeout 900 cargo test -q --offline --workspace --exclude knl-hybrid-memory

# `cargo test` never builds crates/bench/benches/*, so compile every
# bench target here: a bench that no longer builds fails CI instead of
# the next person to run it.
cargo bench --no-run --offline -p bench

# API docs must build without a warning: an intra-doc link to a
# deleted or private item fails here instead of rotting silently.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

# Migration gates, under the same watchdog. The equivalence runs above
# already prove the scheduler remaps at identical trace offsets on
# every engine (tests/parallel_equivalence.rs `migration_*`); here the
# golden T-sweep table is pinned byte-for-byte, and the full-scale
# sweep must still show the migration crossover — a T where the
# migrated replay beats every static placement that fits the MCDRAM
# budget (`repro migrate` exits nonzero when the crossover disappears).
timeout 900 cargo test -q --offline -p knl-hybrid-memory --test migration_golden
timeout 900 target/release/repro migrate

# The timed bench gates (see scripts/bench_smoke.sh).
scripts/bench_smoke.sh

# The repository benchmark's own checks (benchmark/check.sh): its unit
# and self tests, a digest-checked smoke run of all four workloads
# (each must report `"correct": true`) and its formatting. The
# benchmark is a separate package built from these crates, so an API
# change that breaks it fails here instead of at the next bench run.
bash benchmark/check.sh

# Telemetry profile smoke: produce a Chrome-trace profile + metrics
# dump + in-replay time-series export from a tiny streaming replay and
# re-validate all three files (spans for every replay phase, >= 5
# metric series, monotonic timestamps, schema-tagged metrics JSON,
# timeseries/v1 window chain), then render
# the text dashboard from them (repro report exits nonzero on a
# malformed input).
target/release/repro profile stream_8x2000 \
    --out target/profile_smoke.jsonl --metrics target/metrics_smoke.json \
    --timeseries target/timeseries_smoke.jsonl
target/release/repro profile-check target/profile_smoke.jsonl \
    --metrics target/metrics_smoke.json \
    --timeseries target/timeseries_smoke.jsonl
target/release/repro report target/profile_smoke.jsonl \
    --timeseries target/timeseries_smoke.jsonl > target/report_smoke.txt
grep -q "== timeseries" target/report_smoke.txt

# Advisor-service smoke: answer the bundled query batch twice through
# one service — the verb asserts the rounds bit-identical and exits
# nonzero if the warm round served no cache hits — and write the
# advice documents (each validated against advisor_advice/v1) under
# target/.
target/release/repro advise-batch --bundled smoke --rounds 2 \
    --out target/advise_smoke.jsonl

# Serve-loop smoke: drive the long-running advisor service with the
# bundled 200-query batch under a watchdog (a loop that never drains
# presents as a hang, and the timeout turns that into a failure). The transcript is validated for causal
# ids, one span per response, and matching drain totals, and the
# time-series export against timeseries/v1.
target/release/repro queries --bundled full --out target/serve_queries.jsonl
timeout 900 target/release/repro serve \
    --timeseries target/serve_ts.jsonl \
    < target/serve_queries.jsonl > target/serve_out.jsonl
target/release/repro serve-check target/serve_out.jsonl \
    --queries 200 --timeseries target/serve_ts.jsonl

cargo fmt --check

echo "ci: ok"
