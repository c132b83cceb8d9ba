//! Reference-equivalence differential suite for the streaming trace
//! engine: for every workload trace generator, every paper memory
//! setup, and a 1/2/4/8 worker-thread ladder, `run_streaming` (fed
//! chunk-by-chunk from the generator's `TraceSource`) must produce
//! reports and device statistics **bit-identical** to the independent
//! reference replay in `tests/support`, which shares none of the
//! engine's timing code. The contention, migration and time-series
//! cases also stream the materialized trace in 512-access chunks, so
//! ghost refills land mid-contention and between rebalances; the edge
//! trace streams in 1-access chunks. Classified (artifact) replay is
//! held to the same reference in `tests/classified_equivalence.rs`.

mod support;

use knl::tracesim::{TraceAccess, TracePlacement, TraceSim, TraceSimReport};
use knl::{MachineConfig, MemSetup};
use memkind_sim::MigrationSpec;
use simfabric::{par, ByteSize};
use support::ReferenceReplay;
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

/// The reference model of [`fresh`]`(setup)`, sampling as `sampling`
/// says.
fn reference(setup: MemSetup, sampling: Option<(u64, usize)>) -> ReferenceReplay {
    ReferenceReplay::new(
        &MachineConfig::knl7210(setup, 64),
        CORES,
        placement(setup),
        ByteSize::mib(4),
        sampling,
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

/// Replay `kind` under `setup` through the reference and streaming at
/// every worker count; assert everything observable is identical.
fn check(kind: TraceKind, setup: MemSetup) {
    let trace = kind.generate(CORES, PER_CORE, SEED);
    assert!(!trace.is_empty(), "{kind:?} generated an empty trace");
    let mut want = reference(setup, None);
    want.replay(&trace);
    for workers in WORKERS {
        let mut sim = fresh(setup);
        let got = stream_source(&mut sim, kind.source(CORES, PER_CORE, SEED), workers);
        let ctx = format!("streaming {kind:?} under {setup:?} at {workers} workers");
        want.assert_matches(&got, &sim, &ctx);
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
    let placement = TracePlacement::SplitAt(16 << 20);
    let mut want = ReferenceReplay::new(&cfg, CORES, placement, ByteSize::mib(4), None);
    assert!(want.replay(&trace).memory_accesses > 0);
    for workers in WORKERS {
        let mut sim = TraceSim::new(&cfg, CORES, placement, ByteSize::mib(4));
        let source = TraceKind::Bfs.source(CORES, PER_CORE, SEED ^ 0x5917);
        let got = stream_source(&mut sim, source, workers);
        want.assert_matches(
            &got,
            &sim,
            &format!("streaming split placement at {workers} workers"),
        );
    }
}

/// The device/shard portion of a metrics registry — everything except
/// the `pipeline.*` stall counters and `replay.*` buffer and window
/// counts, which measure wall-clock scheduling and chunking.
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

/// Telemetry must be (1) invisible to replay results, which still
/// match the reference, and (2) a commutative-merge view: the fold of
/// per-shard registries and the full device registry land on the same
/// values at every worker count, histograms included.
#[test]
fn telemetry_registries_merge_to_sequential_values() {
    let setup = MemSetup::CacheMode;
    for kind in TraceKind::ALL {
        let trace = kind.generate(CORES, PER_CORE, SEED);
        let mut want = reference(setup, None);
        want.replay(&trace);
        let mut first = None;
        for workers in WORKERS {
            let ctx = format!("{kind:?} at {workers} workers");
            let mut sim = fresh(setup);
            sim.enable_telemetry();
            let got = stream_source(&mut sim, kind.source(CORES, PER_CORE, SEED), workers);
            want.assert_matches(&got, &sim, &format!("telemetry on: {ctx}"));
            let registries = (merged_shards(&sim), deterministic_metrics(&sim));
            let (shards, metrics) = first.get_or_insert(registries.clone());
            assert_eq!(&registries.0, shards, "shard registries diverged: {ctx}");
            assert_eq!(&registries.1, metrics, "device metrics diverged: {ctx}");
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
/// bit-identical to the reference across worker counts, paper setups,
/// and chunks small enough to force many ghost-slot refills
/// mid-contention.
#[test]
fn contention_stress_parallel_equals_sequential() {
    let trace = contention_trace(CORES, PER_CORE);
    for setup in [MemSetup::DramOnly, MemSetup::HbmOnly, MemSetup::CacheMode] {
        let mut want = reference(setup, None);
        assert!(
            want.replay(&trace).memory_accesses > 0,
            "contention trace must reach memory under {setup:?}"
        );
        for workers in WORKERS {
            let mut sim = fresh(setup);
            let got = stream_chunked(&mut sim, &trace, CHUNK, workers);
            want.assert_matches(
                &got,
                &sim,
                &format!("contention {setup:?} workers={workers}"),
            );
        }
    }
}

/// The same adversarial trace with telemetry enabled: order-sensitive
/// recorders (MSHR occupancy, DRAM queue-wait histograms) must land on
/// the same values at every worker count even though chunk refills
/// interrupt the merge mid-contention, and the results must still
/// match the reference.
#[test]
fn contention_stress_telemetry_matches_sequential() {
    let trace = contention_trace(CORES, PER_CORE / 2);
    let setup = MemSetup::CacheMode;
    let mut want = reference(setup, None);
    want.replay(&trace);
    let mut first = None;
    for workers in WORKERS {
        let mut sim = fresh(setup);
        sim.enable_telemetry();
        let got = stream_chunked(&mut sim, &trace, CHUNK, workers);
        let ctx = format!("contention telemetry workers={workers}");
        want.assert_matches(&got, &sim, &ctx);
        let metrics = deterministic_metrics(&sim);
        assert_eq!(
            &metrics,
            first.get_or_insert(metrics.clone()),
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
/// refill, must match the reference under a static placement, under
/// migration every access with a budget above the footprint, and under
/// migration every access into a one-page budget.
#[test]
fn edge_trace_one_access_chunks_equal_sequential() {
    let trace = edge_trace(CORES, PER_CORE);
    let cfg = MachineConfig::knl7210(MemSetup::DramOnly, 64);
    for placement in [
        TracePlacement::AllDdr,
        TracePlacement::Migrated(MigrationSpec::new(1, u32::MAX)),
        TracePlacement::Migrated(MigrationSpec::new(1, 1)),
    ] {
        let mut want = ReferenceReplay::new(&cfg, CORES, placement, ByteSize::mib(4), None);
        assert!(
            want.replay(&trace).memory_accesses > 0,
            "edge trace must reach memory under {placement:?}"
        );
        for workers in WORKERS {
            let mut sim = TraceSim::new(&cfg, CORES, placement, ByteSize::mib(4));
            let got = stream_chunked(&mut sim, &trace, 1, workers);
            want.assert_matches(&got, &sim, &format!("edge {placement:?} workers={workers}"));
            if let TracePlacement::Migrated(_) = placement {
                let stats = sim.migration_stats().expect("scheduler active");
                assert!(
                    stats.promoted_pages > 0,
                    "edge trace must promote under {placement:?}, got {stats:?}"
                );
            }
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

/// The reference model of [`fresh_migrated`], sampling as `sampling`
/// says.
fn reference_migrated(sampling: Option<(u64, usize)>) -> ReferenceReplay {
    ReferenceReplay::new(
        &MachineConfig::knl7210(MemSetup::DramOnly, 64),
        CORES,
        TracePlacement::Migrated(MIGRATE_SPEC),
        ByteSize::mib(4),
        sampling,
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

/// Replay `trace` under active migration through the reference and
/// streaming — from the generator, and from the materialized trace in
/// small chunks so remaps straddle refills; everything observable —
/// including the scheduler's move-sequence digest — must be
/// bit-identical. A remap landing one access early or late changes
/// the routing of that access and shows up in the digest and device
/// stats.
fn check_migration(
    label: &str,
    trace: &[TraceAccess],
    source: impl Fn() -> Box<dyn TraceSource + Send>,
) {
    let mut want = reference_migrated(None);
    want.replay(trace);
    for workers in WORKERS {
        let mut sim = fresh_migrated();
        let got = stream_chunked(&mut sim, trace, CHUNK, workers);
        want.assert_matches(
            &got,
            &sim,
            &format!("migrated chunked {label} workers={workers}"),
        );
        assert!(
            sim.migration_stats().unwrap().rebalances > 0,
            "{label}: trace too short to cross a rebalance boundary"
        );

        let mut sim = fresh_migrated();
        let got = stream_source(&mut sim, source(), workers);
        want.assert_matches(
            &got,
            &sim,
            &format!("migrated streaming {label} workers={workers}"),
        );
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
    let mut sim = fresh_migrated();
    stream_chunked(&mut sim, &trace, CHUNK, 1);
    let stats = sim.migration_stats().unwrap();
    assert!(
        stats.promoted_pages > 0 && stats.demoted_pages > 0,
        "hot/cold trace must drive promotions and demotions, got {stats:?}"
    );
    check_migration("HotCold", &trace, hot_cold);
}

/// Tentpole contract for in-replay time-series sampling: enabling the
/// sampler must leave replay results bit-identical, and the sampled
/// windows themselves must match the reference's, which computes each
/// queue wait per access — from the generator and from the
/// materialized trace in small chunks — at every worker count. The
/// sampling clock is merge-order simulated progress, not wall time,
/// so the exported JSONL matches byte for byte. Covers all five paper
/// generators.
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
        let expect = stream_chunked(&mut plain, &trace, CHUNK, 1);

        let mut want = reference(setup, Some((INTERVAL, CAPACITY)));
        assert_eq!(
            want.replay(&trace),
            expect,
            "sampling changed {kind:?} results"
        );

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
                want.assert_matches(&got, &sim, &ctx);
                let rec = sim.timeseries().expect("sampling enabled");
                assert!(
                    rec.windows().count() > 1,
                    "{ctx}: trace too short to close multiple windows"
                );
            }
        }
    }
}

/// The migration series under a deliberately tiny ring: the resident
/// and move counts sampled mid-wave, plus the ring-drop count, must
/// match the reference on every engine — and the hot/cold workload
/// guarantees the series actually moves (promotion and demotion
/// waves).
#[test]
fn timeseries_migration_series_identical_across_engines() {
    const INTERVAL: u64 = 131;
    const CAPACITY: usize = 4; // force ring eviction
    let trace = drain(hot_cold());
    let mut plain = fresh_migrated();
    let expect = stream_chunked(&mut plain, &trace, CHUNK, 1);

    let mut want = reference_migrated(Some((INTERVAL, CAPACITY)));
    assert_eq!(
        want.replay(&trace),
        expect,
        "sampling changed migrated results"
    );

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
            want.assert_matches(&got, &sim, &ctx);
            let rec = sim.timeseries().expect("sampling enabled");
            assert!(rec.dropped() > 0, "{ctx}: ring must overflow at capacity 4");
            let resident = rec
                .series_names()
                .iter()
                .position(|&n| n == "migrate.resident_pages")
                .expect("resident series registered");
            assert!(
                rec.windows().any(|w| w.values[resident] > 0.0),
                "{ctx}: resident-page series never moved"
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
