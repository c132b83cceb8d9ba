//! Differential suite for the classify-once / replay-many engine: a
//! [`ClassifiedTrace`](knl::ClassifiedTrace) artifact built once, under
//! a flat config, and replayed via `run_classified` under every memory
//! setup (cache mode included, whose memory-side tags the replay
//! probes) must be **bit-identical** to the independent reference
//! replay in `tests/support` — reports, per-shard totals, MSHR, device
//! and mesh statistics, sampled time series, and (under a `Migrated`
//! placement) the scheduler's move-sequence digest — across every
//! workload generator, every paper memory setup, and artifacts built on
//! a 1/2/4/8 worker ladder (classification is the only stage of a
//! classified replay that runs on `par` workers; the replay itself is
//! a single merge). Each artifact is replayed at the default refill
//! window (one refill at this trace size) and at a 64-access window, so
//! ghost-slot refills, and cores closing as their slices run out
//! mid-replay, run here and not only at benchmark scale. This is what
//! makes the sweep engine's speedup trustworthy: "classified ==
//! reference, only faster".

mod support;

use hybridmem::TraceSpec;
use knl::tracesim::{TraceAccess, TracePlacement, TraceSim, TraceSimReport, PAR_WINDOW};
use knl::{ClassifiedTrace, MachineConfig, MemSetup};
use memkind_sim::MigrationSpec;
use simfabric::{par, ByteSize};
use support::ReferenceReplay;
use workloads::tracegen::{classify_streaming, HotColdSource, TraceKind, TraceSource};

const CORES: u32 = 8;
const PER_CORE: u64 = 400;
const SEED: u64 = 0xC1A5;
const WORKERS: [usize; 4] = [1, 2, 4, 8];

fn msc() -> ByteSize {
    ByteSize::mib(4)
}

/// Period/budget small enough that the 3200-access trace crosses many
/// rebalance boundaries (mirrors the parallel-equivalence suite).
const MIGRATE_SPEC: MigrationSpec = MigrationSpec::new(256, 16);

/// Refill windows every artifact replays at: the default, and one small
/// enough that each core refills many times.
const WINDOWS: [Option<usize>; 2] = [None, Some(64)];

/// Every replay here samples its time series at this interval into a
/// ring this large: co-prime with the generators' burst lengths, so
/// window boundaries land on every access class.
const SAMPLING: (u64, usize) = (389, 64);

/// The timing setups the artifact must serve: every flat placement,
/// including an actively-migrating one, and the one placement cache
/// mode supports.
fn placements(setup: MemSetup) -> Vec<TracePlacement> {
    match setup {
        MemSetup::CacheMode => vec![TracePlacement::AllDdr],
        _ => vec![
            TracePlacement::AllDdr,
            TracePlacement::AllHbm,
            TracePlacement::SplitAt(16 << 20),
            TracePlacement::Migrated(MIGRATE_SPEC),
        ],
    }
}

/// The DRAM-only config every artifact is classified under.
fn flat() -> MachineConfig {
    MachineConfig::knl7210(MemSetup::DramOnly, 64)
}

fn artifact(kind: TraceKind) -> ClassifiedTrace {
    let mut source = kind.source(CORES, PER_CORE, SEED);
    classify_streaming(
        &flat(),
        CORES,
        &kind.spec(CORES, PER_CORE, SEED),
        source.as_mut(),
    )
}

/// The reference model of a fresh simulator for `placement` under
/// `cfg` at memory-side-cache capacity `msc`, after replaying `trace`.
fn reference(
    cfg: &MachineConfig,
    placement: TracePlacement,
    msc: ByteSize,
    trace: &[TraceAccess],
) -> (ReferenceReplay, TraceSimReport) {
    let mut want = ReferenceReplay::new(cfg, CORES, placement, msc, Some(SAMPLING));
    let report = want.replay(trace);
    (want, report)
}

/// Replay `ct` on a fresh, sampling simulator for `placement` at
/// memory-side-cache capacity `msc` and refill `window` (the default
/// when `None`); a window smaller than the trace must actually refill
/// more than once.
fn replay_classified(
    ct: &ClassifiedTrace,
    cfg: &MachineConfig,
    placement: TracePlacement,
    msc: ByteSize,
    window: Option<usize>,
) -> (TraceSim, TraceSimReport) {
    let mut sim = TraceSim::new(cfg, CORES, placement, msc);
    sim.enable_timeseries(SAMPLING.0, SAMPLING.1);
    if let Some(w) = window {
        sim.set_replay_window(w);
    }
    let report = sim.run_classified(ct);
    if window.is_some_and(|w| (w as u64) < ct.accesses()) {
        assert!(
            sim.last_timing_stats().windows > 1,
            "a {window:?} window over {} accesses must refill more than once",
            ct.accesses()
        );
    }
    (sim, report)
}

/// Replay `kind` under `setup`: the flat artifact built at every worker
/// count, each replayed against every placement × refill window and
/// checked against the reference replay of the same placement.
fn check(kind: TraceKind, setup: MemSetup) {
    let cfg = MachineConfig::knl7210(setup, 64);
    let trace = kind.generate(CORES, PER_CORE, SEED);
    let references: Vec<(TracePlacement, ReferenceReplay)> = placements(setup)
        .into_iter()
        .map(|placement| (placement, reference(&cfg, placement, msc(), &trace).0))
        .collect();
    for workers in WORKERS {
        let ct = par::with_threads(workers, || artifact(kind));
        // Generators emit *approximately* PER_CORE accesses per core.
        assert!(
            ct.accesses() > 0,
            "{kind:?} classified to an empty artifact"
        );
        for (placement, want) in &references {
            for window in WINDOWS {
                let (sim, got) = replay_classified(&ct, &cfg, *placement, msc(), window);
                let ctx = format!(
                    "{kind:?} under {setup:?} at {placement:?} workers={workers} window={window:?}"
                );
                want.assert_matches(&got, &sim, &ctx);
            }
        }
    }
}

#[test]
fn stream_classified_equals_streaming() {
    for setup in MemSetup::PAPER_SETUPS {
        check(TraceKind::Stream, setup);
    }
}

#[test]
fn gups_classified_equals_streaming() {
    for setup in MemSetup::PAPER_SETUPS {
        check(TraceKind::Gups, setup);
    }
}

#[test]
fn chase_classified_equals_streaming() {
    for setup in MemSetup::PAPER_SETUPS {
        check(TraceKind::Chase, setup);
    }
}

#[test]
fn xsbench_classified_equals_streaming() {
    for setup in MemSetup::PAPER_SETUPS {
        check(TraceKind::XsBench, setup);
    }
}

#[test]
fn bfs_classified_equals_streaming() {
    for setup in MemSetup::PAPER_SETUPS {
        check(TraceKind::Bfs, setup);
    }
}

/// The phased hot/cold workload behind the migration `T`-sweep: the
/// one trace where the scheduler promotes and demotes whole waves of
/// pages every period, so a remap landing one access early or late on
/// the classified path shows up in the move digest.
#[test]
fn hot_cold_migration_digest_matches_streaming() {
    let (phases, per_core) = (3u32, 160u64);
    let (hot, cold) = (64u64 << 10, 4u64 << 20);
    let cfg = MachineConfig::knl7210(MemSetup::DramOnly, 64);
    let mk = || HotColdSource::new(CORES, phases, per_core, hot, cold, SEED);
    let placement = TracePlacement::Migrated(MIGRATE_SPEC);
    let trace: Vec<TraceAccess> = {
        let mut source = mk();
        std::iter::from_fn(|| source.next_access()).collect()
    };
    let (want, _) = reference(&cfg, placement, msc(), &trace);
    for workers in WORKERS {
        let ct = par::with_threads(workers, || {
            let mut source = mk();
            classify_streaming(&cfg, CORES, "hotcold:equiv", &mut source)
        });
        for window in WINDOWS {
            let (sim, got) = replay_classified(&ct, &cfg, placement, msc(), window);
            want.assert_matches(
                &got,
                &sim,
                &format!("hotcold workers={workers} window={window:?}"),
            );
            let stats = sim.migration_stats().expect("scheduler active");
            assert!(
                stats.promoted_pages > 0 && stats.demoted_pages > 0,
                "hot/cold trace must drive promotions and demotions, got {stats:?}"
            );
        }
    }
}

/// End-to-end through the sweep engine: `replay_point` (which replays
/// an artifact from the global classify cache) must match the
/// reference, at every flat placement and in cache mode.
#[test]
fn sweep_engine_modes_agree_end_to_end() {
    let spec = TraceSpec::from_kind(TraceKind::Gups, CORES, PER_CORE, SEED ^ 0xE2E);
    let trace = TraceKind::Gups.generate(CORES, PER_CORE, SEED ^ 0xE2E);
    let points = MemSetup::PAPER_SETUPS.into_iter().flat_map(|setup| {
        let cfg = MachineConfig::knl7210(setup, 64);
        placements(setup).into_iter().map(move |p| (cfg.clone(), p))
    });
    for (cfg, placement) in points {
        let (sim, got) = hybridmem::replay_point(&spec, &cfg, placement, msc());
        let mut want = ReferenceReplay::new(&cfg, CORES, placement, msc(), None);
        want.replay(&trace);
        want.assert_matches(
            &got,
            &sim,
            &format!("sweep engine under {:?} at {placement:?}", cfg.setup),
        );
    }
}

/// A write-heavy trace whose L2 misses re-touch a few lines: each core
/// picks among 48 lines that share one L2 set (16 ways), so about two
/// thirds of its accesses miss L2; half are stores, so the memory-side
/// caches evict dirty lines, and a quarter are dependent.
fn conflict_trace(per_core: u64) -> Vec<TraceAccess> {
    let mut rng = simfabric::prng::Rng::seed_from_u64(SEED);
    let mut t = Vec::new();
    for _ in 0..per_core {
        for c in 0..CORES {
            let addr = (c as u64 * 7_919 + rng.next_below(48) * 1024) * 64;
            t.push(match rng.next_below(4) {
                0 | 1 => TraceAccess::write(c, addr),
                2 => TraceAccess::chase(c, addr),
                _ => TraceAccess::read(c, addr),
            });
        }
    }
    t
}

/// One artifact, classified under a flat config, replays cache mode
/// at any memory-side-cache capacity and refill window bit-identical
/// to the reference, which probes the tags inline at each L2 miss: from
/// one line (every L2 miss conflicts) to 16 Ki lines per core.
#[test]
fn flat_artifact_replays_cache_mode_bit_identical_to_reference() {
    let trace = conflict_trace(PER_CORE);
    let ct = ClassifiedTrace::build_from_trace(&flat(), CORES, msc(), "conflict", &trace);
    assert_eq!(ct.level_hits()[2], 0, "classification stops at L2");
    let cache = MachineConfig::knl7210(MemSetup::CacheMode, 64);
    let mut hits = Vec::new();
    for capacity in [ByteSize::bytes(64), ByteSize::kib(4), ByteSize::mib(1)] {
        let (want, report) = reference(&cache, TracePlacement::AllDdr, capacity, &trace);
        hits.push(report.mcdram_cache_hits);
        for window in [1, 7, PAR_WINDOW] {
            let (sim, got) =
                replay_classified(&ct, &cache, TracePlacement::AllDdr, capacity, Some(window));
            want.assert_matches(
                &got,
                &sim,
                &format!("cache mode at {capacity} window={window}"),
            );
        }
    }
    assert!(hits[2] > 0, "the largest cache must hit: {hits:?}");
}
