//! Sequential-equivalence differential suite for the streaming trace
//! engine: for every workload trace generator, every paper memory
//! setup, and a 1/2/4/8 worker-thread ladder, `run_streaming` (fed
//! chunk-by-chunk from the generator's `TraceSource`) must produce
//! reports and device statistics **bit-identical** to the sequential
//! reference `run`. The contention, migration and time-series cases
//! also stream the materialized trace in 512-access chunks, so ghost
//! refills land mid-contention and between rebalances; the edge trace
//! streams in 1-access chunks. This is the correctness contract that
//! makes the streaming speedup trustworthy: "streaming == sequential,
//! only faster". Classified (artifact)
//! replay is held to streaming replay in `tests/classified_equivalence.rs`.

use knl::tracesim::{TraceAccess, TracePlacement, TraceSim, TraceSimReport};
use knl::{MachineConfig, MemSetup};
use memkind_sim::MigrationSpec;
use simfabric::{par, ByteSize};
use workloads::tracegen::{replay_streaming, HotColdSource, TraceKind, TraceSource};

const CORES: u32 = 8;
const PER_CORE: u64 = 400;
const SEED: u64 = 0xD1FF;
const WORKERS: [usize; 4] = [1, 2, 4, 8];
/// Chunk size for streaming a materialized trace: far below the
/// trace length, so the merge refills many times.
const CHUNK: usize = 512;

fn placement(setup: MemSetup) -> TracePlacement {
    match setup {
        MemSetup::HbmOnly => TracePlacement::AllHbm,
        _ => TracePlacement::AllDdr,
    }
}

fn fresh(setup: MemSetup) -> TraceSim {
    TraceSim::new(
        &MachineConfig::knl7210(setup, 64),
        CORES,
        placement(setup),
        ByteSize::mib(4),
    )
}

/// Stream the materialized `trace` through `sim` in `chunk`-access
/// chunks on `workers` classification workers.
fn stream_chunked(
    sim: &mut TraceSim,
    trace: &[TraceAccess],
    chunk: usize,
    workers: usize,
) -> TraceSimReport {
    let mut chunks = trace.chunks(chunk);
    par::with_threads(workers, || {
        sim.run_streaming(|buf| match chunks.next() {
            Some(chunk) => {
                buf.extend_from_slice(chunk);
                chunk.len()
            }
            None => 0,
        })
    })
}

/// Stream `source` through `sim` on `workers` classification workers.
fn stream_source(
    sim: &mut TraceSim,
    mut source: Box<dyn TraceSource + Send>,
    workers: usize,
) -> TraceSimReport {
    par::with_threads(workers, || replay_streaming(sim, source.as_mut()))
}

/// Everything observable outside the report: per-shard totals, both
/// DRAM bank models, the mesh, and the migration scheduler (whose
/// move digest pins remaps to identical trace offsets).
fn assert_sims_match(got: &TraceSim, want: &TraceSim, ctx: &str) {
    assert_eq!(
        got.per_core_totals(),
        want.per_core_totals(),
        "per-shard totals diverged: {ctx}"
    );
    assert_eq!(
        got.ddr_stats(),
        want.ddr_stats(),
        "DDR bank stats diverged: {ctx}"
    );
    assert_eq!(
        got.hbm_stats(),
        want.hbm_stats(),
        "MCDRAM bank stats diverged: {ctx}"
    );
    assert_eq!(
        got.mesh_stats(),
        want.mesh_stats(),
        "mesh stats diverged: {ctx}"
    );
    assert_eq!(
        got.migration_stats(),
        want.migration_stats(),
        "migration stats (incl. move digest) diverged: {ctx}"
    );
}

/// Replay `kind` under `setup` sequentially and streaming at every
/// worker count; assert everything observable is identical.
fn check(kind: TraceKind, setup: MemSetup) {
    let trace = kind.generate(CORES, PER_CORE, SEED);
    assert!(!trace.is_empty(), "{kind:?} generated an empty trace");
    let mut seq = fresh(setup);
    let expect: TraceSimReport = seq.run(&trace);
    for workers in WORKERS {
        let mut sim = fresh(setup);
        let got = stream_source(&mut sim, kind.source(CORES, PER_CORE, SEED), workers);
        let ctx = format!("streaming {kind:?} under {setup:?} at {workers} workers");
        assert_eq!(got, expect, "report diverged: {ctx}");
        assert_sims_match(&sim, &seq, &ctx);
    }
}

#[test]
fn stream_parallel_equals_sequential() {
    for setup in MemSetup::PAPER_SETUPS {
        check(TraceKind::Stream, setup);
    }
}

#[test]
fn gups_parallel_equals_sequential() {
    for setup in MemSetup::PAPER_SETUPS {
        check(TraceKind::Gups, setup);
    }
}

#[test]
fn chase_parallel_equals_sequential() {
    for setup in MemSetup::PAPER_SETUPS {
        check(TraceKind::Chase, setup);
    }
}

#[test]
fn xsbench_parallel_equals_sequential() {
    for setup in MemSetup::PAPER_SETUPS {
        check(TraceKind::XsBench, setup);
    }
}

#[test]
fn bfs_parallel_equals_sequential() {
    for setup in MemSetup::PAPER_SETUPS {
        check(TraceKind::Bfs, setup);
    }
}

#[test]
fn split_placement_parallel_equals_sequential() {
    // The SplitAt placement exercises both devices in one run.
    let trace = TraceKind::Bfs.generate(CORES, PER_CORE, SEED ^ 0x5917);
    let cfg = MachineConfig::knl7210(MemSetup::DramOnly, 64);
    let mk = || {
        TraceSim::new(
            &cfg,
            CORES,
            TracePlacement::SplitAt(16 << 20),
            ByteSize::mib(4),
        )
    };
    let mut seq = mk();
    let expect = seq.run(&trace);
    assert!(expect.memory_accesses > 0);
    for workers in WORKERS {
        let mut sim = mk();
        let source = TraceKind::Bfs.source(CORES, PER_CORE, SEED ^ 0x5917);
        let got = stream_source(&mut sim, source, workers);
        let ctx = format!("streaming split placement at {workers} workers");
        assert_eq!(got, expect, "report diverged: {ctx}");
        assert_sims_match(&sim, &seq, &ctx);
    }
}

/// The device/shard portion of a metrics registry — everything except
/// the `pipeline.*` stall counters and `replay.peak_buffer_bytes`,
/// which measure wall-clock scheduling and are legitimately different
/// between the sequential and streaming paths.
fn deterministic_metrics(sim: &TraceSim) -> Vec<(String, simfabric::telemetry::MetricValue)> {
    sim.metrics_registry()
        .iter()
        .filter(|(name, _)| !name.starts_with("pipeline.") && !name.starts_with("replay."))
        .map(|(name, value)| (name.to_string(), value.clone()))
        .collect()
}

/// Fold the per-shard registries the way a distributed collector
/// would: order-independent merge over core IDs.
fn merged_shards(sim: &TraceSim) -> simfabric::MetricsRegistry {
    let mut merged = simfabric::MetricsRegistry::new();
    for core in 0..CORES as usize {
        merged.merge(&sim.shard_metrics(core));
    }
    merged
}

/// Telemetry must be (1) invisible to replay results and (2) a
/// commutative-merge view: the fold of per-shard registries and the
/// full device registry both land on the sequential values at every
/// worker count.
#[test]
fn telemetry_registries_merge_to_sequential_values() {
    let setup = MemSetup::CacheMode;
    for kind in TraceKind::ALL {
        let trace = kind.generate(CORES, PER_CORE, SEED);
        let mut plain = fresh(setup);
        let expect = plain.run(&trace);

        let mut seq = fresh(setup);
        seq.enable_telemetry();
        assert_eq!(
            seq.run(&trace),
            expect,
            "telemetry changed {kind:?} results"
        );
        let expect_shards = merged_shards(&seq);
        let expect_metrics = deterministic_metrics(&seq);

        for workers in WORKERS {
            let ctx = format!("{kind:?} at {workers} workers");
            let mut sim = fresh(setup);
            sim.enable_telemetry();
            let got = stream_source(&mut sim, kind.source(CORES, PER_CORE, SEED), workers);
            assert_eq!(got, expect, "streaming report diverged: {ctx}");
            assert_eq!(
                merged_shards(&sim),
                expect_shards,
                "streaming shard registries diverged: {ctx}"
            );
            assert_eq!(
                deterministic_metrics(&sim),
                expect_metrics,
                "streaming device metrics diverged: {ctx}"
            );
        }
    }
}

/// A hand-built adversarial trace for the shared timing state. Every
/// core rotates through four interaction patterns that stress the
/// merge order, the MSHR files, and the DRAM bank models at once:
///
/// - **shared hot lines**: all cores hammer the same eight lines, so
///   the same banks and rows serialize across owners and per-core
///   MSHRs fill with overlapping in-flight lines;
/// - **single-channel hammer**: a stride equal to one full channel
///   round piles every access of the burst onto one DRAM channel;
/// - **dependent chase**: per-core pointer chases that block the core
///   on each completion, so its clock jumps past the other cores';
/// - **write bursts**: densely-strided writes that keep the MSHR file
///   at capacity, so cores stall on their own misses.
///
/// Repeated same-line accesses within a core also exercise
/// secondary-miss merges against in-flight primaries.
fn contention_trace(cores: u32, per_core: u64) -> Vec<TraceAccess> {
    let mut trace = Vec::new();
    // DDR has 6 channels and MCDRAM 8; a 64-line stride is a whole
    // number of rounds of both, so each burst stays on one channel.
    let channel_round = 64 * 64u64;
    for i in 0..per_core {
        for core in 0..cores {
            let private = 1u64 << 28 | u64::from(core) << 22;
            match i % 4 {
                0 => trace.push(TraceAccess::read(core, (i % 8) * 64)),
                1 => trace.push(TraceAccess::read(core, (1 << 26) + (i / 4) * channel_round)),
                2 => trace.push(TraceAccess::chase(core, private + (i * 4096) % (1 << 22))),
                _ => trace.push(TraceAccess::write(core, private + (i / 4) * 64)),
            }
        }
    }
    trace
}

/// Satellite stress test: the adversarial contention trace must stay
/// bit-identical to the sequential oracle across worker counts, paper
/// setups, and chunks small enough to force many ghost-slot refills
/// mid-contention.
#[test]
fn contention_stress_parallel_equals_sequential() {
    let trace = contention_trace(CORES, PER_CORE);
    for setup in [MemSetup::DramOnly, MemSetup::HbmOnly, MemSetup::CacheMode] {
        let mut seq = fresh(setup);
        let expect = seq.run(&trace);
        assert!(
            expect.memory_accesses > 0,
            "contention trace must reach memory under {setup:?}"
        );
        for workers in WORKERS {
            let mut sim = fresh(setup);
            let got = stream_chunked(&mut sim, &trace, CHUNK, workers);
            let ctx = format!("contention {setup:?} workers={workers}");
            assert_eq!(got, expect, "report diverged: {ctx}");
            assert_sims_match(&sim, &seq, &ctx);
        }
    }
}

/// The same adversarial trace with telemetry enabled: order-sensitive
/// recorders (MSHR occupancy, DRAM queue-wait histograms) must land on
/// the sequential values even though chunk refills interrupt the
/// merge mid-contention.
#[test]
fn contention_stress_telemetry_matches_sequential() {
    let trace = contention_trace(CORES, PER_CORE / 2);
    let setup = MemSetup::CacheMode;
    let mut plain = fresh(setup);
    let expect = plain.run(&trace);
    let mut seq = fresh(setup);
    seq.enable_telemetry();
    assert_eq!(seq.run(&trace), expect, "telemetry changed results");
    let expect_metrics = deterministic_metrics(&seq);
    for workers in WORKERS {
        let mut sim = fresh(setup);
        sim.enable_telemetry();
        let got = stream_chunked(&mut sim, &trace, CHUNK, workers);
        let ctx = format!("contention telemetry workers={workers}");
        assert_eq!(got, expect, "report diverged: {ctx}");
        assert_eq!(
            deterministic_metrics(&sim),
            expect_metrics,
            "device metrics diverged: {ctx}"
        );
    }
}

/// A hand-built edge trace: of `cores` cores only the highest-numbered
/// one is busy, so every other slot of the merge stays closed. It
/// reads and writes the two lines within 64 B of `u64::MAX`, where an
/// unchecked line, page or bank computation would overflow, and
/// interleaves dependent chases to the top line and across low pages.
fn edge_trace(cores: u32, per_core: u64) -> Vec<TraceAccess> {
    let core = cores - 1;
    (0..per_core)
        .map(|i| {
            let top = u64::MAX - (i * 8) % 72;
            match i % 4 {
                0 => TraceAccess::read(core, top),
                1 => TraceAccess::write(core, top),
                2 => TraceAccess::chase(core, top),
                _ => TraceAccess::chase(core, (i * 4096) % (1 << 22)),
            }
        })
        .collect()
}

/// The edge trace streamed one access per chunk, so every access is a
/// refill, must match the sequential oracle under a static placement,
/// under migration every access with a budget above the footprint,
/// and under migration every access into a one-page budget.
#[test]
fn edge_trace_one_access_chunks_equal_sequential() {
    let trace = edge_trace(CORES, PER_CORE);
    let cfg = MachineConfig::knl7210(MemSetup::DramOnly, 64);
    for placement in [
        TracePlacement::AllDdr,
        TracePlacement::Migrated(MigrationSpec::new(1, u32::MAX)),
        TracePlacement::Migrated(MigrationSpec::new(1, 1)),
    ] {
        let mk = || TraceSim::new(&cfg, CORES, placement, ByteSize::mib(4));
        let mut seq = mk();
        let expect = seq.run(&trace);
        assert!(
            expect.memory_accesses > 0,
            "edge trace must reach memory under {placement:?}"
        );
        if let Some(stats) = seq.migration_stats() {
            assert!(
                stats.promoted_pages > 0,
                "edge trace must promote under {placement:?}, got {stats:?}"
            );
        }
        for workers in WORKERS {
            let mut sim = mk();
            let got = stream_chunked(&mut sim, &trace, 1, workers);
            let ctx = format!("edge {placement:?} workers={workers}");
            assert_eq!(got, expect, "report diverged: {ctx}");
            assert_sims_match(&sim, &seq, &ctx);
        }
    }
}

/// Period/budget for the migration equivalence runs: small enough that
/// a 3200-access trace crosses many rebalance boundaries, so remap
/// events interleave densely with the accesses every engine replays.
const MIGRATE_SPEC: MigrationSpec = MigrationSpec::new(256, 16);

fn fresh_migrated() -> TraceSim {
    TraceSim::new(
        &MachineConfig::knl7210(MemSetup::DramOnly, 64),
        CORES,
        TracePlacement::Migrated(MIGRATE_SPEC),
        ByteSize::mib(4),
    )
}

/// Materialize everything `source` yields.
fn drain(mut source: Box<dyn TraceSource + Send>) -> Vec<TraceAccess> {
    let mut out = Vec::new();
    while let Some(a) = source.next_access() {
        out.push(a);
    }
    out
}

/// Replay `trace` under active migration sequentially and streaming —
/// from the generator, and from the materialized trace in small chunks
/// so remaps straddle refills; everything observable — including the
/// scheduler's move-sequence digest — must be bit-identical. A remap
/// landing one access early or late changes the routing of that
/// access and shows up in the digest and device stats.
fn check_migration(
    label: &str,
    trace: &[TraceAccess],
    source: impl Fn() -> Box<dyn TraceSource + Send>,
) {
    let mut seq = fresh_migrated();
    let expect = seq.run(trace);
    let expect_stats = seq
        .migration_stats()
        .expect("Migrated placement must build a scheduler");
    assert!(
        expect_stats.rebalances > 0,
        "{label}: trace too short to cross a rebalance boundary"
    );
    for workers in WORKERS {
        let mut sim = fresh_migrated();
        let got = stream_chunked(&mut sim, trace, CHUNK, workers);
        let ctx = format!("migrated chunked {label} workers={workers}");
        assert_eq!(got, expect, "report diverged: {ctx}");
        assert_sims_match(&sim, &seq, &ctx);

        let mut sim = fresh_migrated();
        let got = stream_source(&mut sim, source(), workers);
        let ctx = format!("migrated streaming {label} workers={workers}");
        assert_eq!(got, expect, "report diverged: {ctx}");
        assert_sims_match(&sim, &seq, &ctx);
    }
}

/// Migration equivalence across the five paper generators: remaps must
/// land at the same trace offset no matter how the replay is chunked
/// or sharded.
#[test]
fn migration_parallel_equals_sequential() {
    for kind in TraceKind::ALL {
        let trace = kind.generate(CORES, PER_CORE, SEED);
        check_migration(&format!("{kind:?}"), &trace, || {
            kind.source(CORES, PER_CORE, SEED)
        });
    }
}

/// The phased hot/cold workload the `T`-sweep uses: the one trace
/// where the scheduler actually promotes and demotes whole waves of
/// pages every period.
fn hot_cold() -> Box<dyn TraceSource + Send> {
    Box::new(HotColdSource::new(CORES, 3, 160, 64 << 10, 4 << 20, SEED))
}

/// Same contract on the hot/cold workload.
#[test]
fn migration_hot_cold_parallel_equals_sequential() {
    let trace = drain(hot_cold());
    let mut seq = fresh_migrated();
    seq.run(&trace);
    let stats = seq.migration_stats().unwrap();
    assert!(
        stats.promoted_pages > 0 && stats.demoted_pages > 0,
        "hot/cold trace must drive promotions and demotions, got {stats:?}"
    );
    check_migration("HotCold", &trace, hot_cold);
}

/// Sampled series of `sim` as JSONL.
fn timeseries_jsonl(sim: &TraceSim) -> String {
    sim.timeseries().expect("sampling enabled").to_jsonl()
}

/// Tentpole contract for in-replay time-series sampling: enabling the
/// sampler must leave replay results bit-identical, and the sampled
/// windows themselves must be bit-identical across the sequential and
/// streaming engines — from the generator and from the materialized
/// trace in small chunks — at every worker count. The sampling clock
/// is merge-order simulated progress, not wall time, so the exported
/// JSONL matches byte for byte. Covers all five paper generators.
#[test]
fn timeseries_sampling_invisible_and_identical_across_engines() {
    // Co-prime with the generators' burst lengths so boundaries land
    // on every access class, not just burst edges.
    const INTERVAL: u64 = 257;
    const CAPACITY: usize = 64;
    let setup = MemSetup::CacheMode;
    for kind in TraceKind::ALL {
        let trace = kind.generate(CORES, PER_CORE, SEED);
        let mut plain = fresh(setup);
        let expect = plain.run(&trace);

        let mut seq = fresh(setup);
        seq.enable_timeseries(INTERVAL, CAPACITY);
        assert_eq!(seq.run(&trace), expect, "sampling changed {kind:?} results");
        let rec = seq.timeseries().expect("sampling enabled");
        assert!(
            rec.windows().count() > 1,
            "{kind:?}: trace too short to close multiple windows"
        );
        let expect_jsonl = rec.to_jsonl();

        for workers in WORKERS {
            for chunked in [true, false] {
                let mut sim = fresh(setup);
                sim.enable_timeseries(INTERVAL, CAPACITY);
                let got = if chunked {
                    stream_chunked(&mut sim, &trace, CHUNK, workers)
                } else {
                    stream_source(&mut sim, kind.source(CORES, PER_CORE, SEED), workers)
                };
                let ctx = format!("{kind:?} chunked={chunked} workers={workers}");
                assert_eq!(got, expect, "sampled report diverged: {ctx}");
                assert_eq!(
                    timeseries_jsonl(&sim),
                    expect_jsonl,
                    "sampled windows diverged: {ctx}"
                );
            }
        }
    }
}

/// The migration series under a deliberately tiny ring: the resident
/// and move counts sampled mid-wave, plus the ring-drop count, must be
/// identical on every engine — and the hot/cold workload guarantees
/// the series actually moves (promotion and demotion waves).
#[test]
fn timeseries_migration_series_identical_across_engines() {
    const INTERVAL: u64 = 131;
    const CAPACITY: usize = 4; // force ring eviction
    let trace = drain(hot_cold());
    let mut plain = fresh_migrated();
    let expect = plain.run(&trace);

    let mut seq = fresh_migrated();
    seq.enable_timeseries(INTERVAL, CAPACITY);
    assert_eq!(seq.run(&trace), expect, "sampling changed migrated results");
    let rec = seq.timeseries().expect("sampling enabled");
    assert!(rec.dropped() > 0, "ring must overflow at capacity 4");
    let resident = rec
        .series_names()
        .iter()
        .position(|&n| n == "migrate.resident_pages")
        .expect("resident series registered");
    assert!(
        rec.windows().any(|w| w.values[resident] > 0.0),
        "resident-page series never moved"
    );
    let expect_jsonl = rec.to_jsonl();

    for workers in WORKERS {
        for chunked in [true, false] {
            let mut sim = fresh_migrated();
            sim.enable_timeseries(INTERVAL, CAPACITY);
            let got = if chunked {
                stream_chunked(&mut sim, &trace, CHUNK, workers)
            } else {
                stream_source(&mut sim, hot_cold(), workers)
            };
            let ctx = format!("migrated sampling chunked={chunked} workers={workers}");
            assert_eq!(got, expect, "report diverged: {ctx}");
            assert_eq!(
                timeseries_jsonl(&sim),
                expect_jsonl,
                "sampled windows diverged: {ctx}"
            );
        }
    }
}

#[test]
fn figure_sweep_json_identical_across_worker_counts() {
    // The figure pipeline (`repro export`) must serialize byte-identical
    // JSON no matter how many workers evaluate the sweeps.
    let capture = || {
        let series = hybridmem::SizeSweep::paper(hybridmem::AppSpec::Stream, vec![2.0, 24.0]).run();
        let fig = hybridmem::FigureData {
            id: "fig-eq".into(),
            title: "worker-count determinism".into(),
            x_label: "Size (GB)".into(),
            y_label: "GB/s".into(),
            series,
            text: String::new(),
        };
        hybridmem::Archive::capture("equivalence check", vec![fig]).to_json()
    };
    let one = par::with_threads(1, capture);
    let eight = par::with_threads(8, capture);
    assert_eq!(one.as_bytes(), eight.as_bytes());
}
