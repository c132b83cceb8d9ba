#!/usr/bin/env bash
# Tier-1 CI gate: the whole workspace must build, test, and stay
# formatted with ZERO network access — every dependency is in-tree.
set -euo pipefail
cd "$(dirname "$0")/.."

# --workspace: the root package alone does not build `repro`, which the
# gates below invoke from target/release.
cargo build --release --offline --workspace

# The test suite runs twice: once pinned to a single trace-replay
# worker and once at eight, so the sequential-equivalence contract of
# the streaming engine is exercised at both extremes on every commit
# (see tests/parallel_equivalence.rs). Every streaming replay crosses
# the producer-to-merge pipe, where a deadlock would present as a
# hang, so both passes run under a watchdog.
TRACESIM_THREADS=1 timeout 1800 cargo test -q --offline
TRACESIM_THREADS=8 timeout 1800 cargo test -q --offline

# The workspace-root `cargo test` covers the root package only. The
# per-access models' unit and reference tests live in their own
# crates: the fast tag stores, TLB and MSHR file (cachesim), the
# shift-mapped DRAM banks (memdev) and the page scheduler
# (memkind-sim), each against its naive model in
# tests/reference_models.rs; the packed winner tree against the
# Option-keyed tree it replaced (simfabric
# tests/reference_models.rs) and the page hasher (simfabric); the
# replay engine's unit tests (knl); the mesh routing model (mesh);
# the NUMA policy engine (numamem); the trace generators and their
# golden vectors (workloads); the sweep, advisor, service and
# sensitivity unit tests (hybridmem); and the bench harness's
# paired-run estimator and gate table (bench).
timeout 900 cargo test -q --offline -p cachesim -p knl -p memdev -p memkind-sim -p simfabric \
    -p mesh -p numamem -p workloads -p hybridmem -p bench

# `cargo test` never builds crates/bench/benches/*, so compile every
# bench target here: a bench that no longer builds fails CI instead of
# the next person to run it.
cargo bench --no-run --offline -p bench

# API docs must build without a warning: an intra-doc link to a
# deleted or private item fails here instead of rotting silently.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

# The equivalence suite again at a middle worker count, under the same
# watchdog: the producer pipe and the classification workers behind it
# are the only cross-thread handoffs of a replay; the timeout turns a
# deadlock into a CI failure in minutes instead of a stuck job.
TRACESIM_THREADS=4 timeout 900 \
    cargo test -q --offline -p knl-hybrid-memory --test parallel_equivalence

# The classify-once / replay-many contract under the same watchdog:
# one classified artifact replayed against every placement (including
# active migration, where the move digest is compared) must stay
# bit-identical to fresh per-setup streaming replays
# (tests/classified_equivalence.rs), at the default refill window and
# at one small enough to refill many times.
TRACESIM_THREADS=4 timeout 900 \
    cargo test -q --offline -p knl-hybrid-memory --test classified_equivalence

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
# bundled 200-query batch under a watchdog (a deadlocked worker pool
# or a loop that never drains presents as a hang, and the timeout
# turns that into a failure). The transcript is validated for causal
# ids, one span per response, and matching drain totals; the run
# repeats at 1 and 8 workers and the two time-series exports must be
# byte-identical — the sampler ticks on query order, never on thread
# schedule.
target/release/repro queries --bundled full --out target/serve_queries.jsonl
timeout 900 target/release/repro serve --threads 1 \
    --timeseries target/serve_ts_w1.jsonl \
    < target/serve_queries.jsonl > target/serve_out_w1.jsonl
timeout 900 target/release/repro serve --threads 8 \
    --timeseries target/serve_ts_w8.jsonl \
    < target/serve_queries.jsonl > target/serve_out_w8.jsonl
target/release/repro serve-check target/serve_out_w1.jsonl \
    --queries 200 --timeseries target/serve_ts_w1.jsonl
target/release/repro serve-check target/serve_out_w8.jsonl \
    --queries 200 --timeseries target/serve_ts_w8.jsonl
cmp target/serve_ts_w1.jsonl target/serve_ts_w8.jsonl

cargo fmt --check

echo "ci: ok"
