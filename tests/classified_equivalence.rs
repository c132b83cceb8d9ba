//! Differential suite for the classify-once / replay-many engine: a
//! [`ClassifiedTrace`](knl::ClassifiedTrace) artifact built once, under
//! a flat config, and replayed via `run_classified` under every memory
//! setup (cache mode included, whose memory-side tags the replay
//! probes) must be
//! **bit-identical** to a fresh per-setup streaming replay — reports,
//! per-shard totals, device and mesh statistics, and (under a
//! `Migrated` placement) the scheduler's move-sequence digest — across
//! every workload generator, every paper memory setup, and artifacts
//! built on a 1/2/4/8 worker ladder (classification is the only stage
//! of a classified replay that runs on `par` workers; the replay
//! itself is a single merge). Each artifact is replayed at the default
//! refill window (one refill at this trace size) and at a 64-access window,
//! so ghost-slot refills, and cores closing as their slices run out
//! mid-replay, run here and not only at benchmark scale. This is what makes
//! the sweep engine's speedup trustworthy: "classified == regenerated,
//! only faster".

use hybridmem::TraceSpec;
use knl::tracesim::{TraceAccess, TracePlacement, TraceSim, TraceSimReport, PAR_WINDOW};
use knl::{ClassifiedTrace, MachineConfig, MemSetup};
use memkind_sim::MigrationSpec;
use simfabric::{par, ByteSize};
use workloads::tracegen::{classify_streaming, replay_streaming, HotColdSource, TraceKind};

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

fn assert_sims_match(got: &TraceSim, want: &TraceSim, ctx: &str) {
    assert_eq!(
        got.per_core_totals(),
        want.per_core_totals(),
        "per-shard totals diverged: {ctx}"
    );
    assert_eq!(
        got.ddr_stats(),
        want.ddr_stats(),
        "DDR stats diverged: {ctx}"
    );
    assert_eq!(
        got.hbm_stats(),
        want.hbm_stats(),
        "HBM stats diverged: {ctx}"
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

/// Replay `ct` on a fresh simulator for `placement` at refill
/// `window` (the default when `None`); a small window must actually
/// refill more than once.
fn replay_classified(
    ct: &ClassifiedTrace,
    cfg: &MachineConfig,
    placement: TracePlacement,
    window: Option<usize>,
) -> (TraceSim, TraceSimReport) {
    let mut sim = TraceSim::new(cfg, CORES, placement, msc());
    if let Some(w) = window {
        sim.set_replay_window(w);
    }
    let report = sim.run_classified(ct);
    if window.is_some() {
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
/// checked against a fresh streaming replay of the same placement.
fn check(kind: TraceKind, setup: MemSetup) {
    let cfg = MachineConfig::knl7210(setup, 64);
    let references: Vec<(TracePlacement, TraceSim, TraceSimReport)> = placements(setup)
        .into_iter()
        .map(|placement| {
            let mut seq = TraceSim::new(&cfg, CORES, placement, msc());
            let mut source = kind.source(CORES, PER_CORE, SEED);
            let expect = replay_streaming(&mut seq, source.as_mut());
            (placement, seq, expect)
        })
        .collect();
    for workers in WORKERS {
        let ct = par::with_threads(workers, || artifact(kind));
        // Generators emit *approximately* PER_CORE accesses per core.
        assert!(
            ct.accesses() > 0,
            "{kind:?} classified to an empty artifact"
        );
        for (placement, seq, expect) in &references {
            for window in WINDOWS {
                let (sim, got) = replay_classified(&ct, &cfg, *placement, window);
                let ctx = format!(
                    "{kind:?} under {setup:?} at {placement:?} workers={workers} window={window:?}"
                );
                assert_eq!(&got, expect, "report diverged: {ctx}");
                assert_sims_match(&sim, seq, &ctx);
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
    let mut seq = TraceSim::new(&cfg, CORES, placement, msc());
    let expect = {
        let mut source = mk();
        replay_streaming(&mut seq, &mut source)
    };
    let stats = seq.migration_stats().expect("scheduler active");
    assert!(
        stats.promoted_pages > 0 && stats.demoted_pages > 0,
        "hot/cold trace must drive promotions and demotions, got {stats:?}"
    );
    for workers in WORKERS {
        let ct = par::with_threads(workers, || {
            let mut source = mk();
            classify_streaming(&cfg, CORES, "hotcold:equiv", &mut source)
        });
        for window in WINDOWS {
            let (sim, got) = replay_classified(&ct, &cfg, placement, window);
            let ctx = format!("hotcold workers={workers} window={window:?}");
            assert_eq!(got, expect, "report diverged: {ctx}");
            assert_sims_match(&sim, &seq, &ctx);
        }
    }
}

/// End-to-end through the sweep engine: `replay_point` (which replays
/// an artifact from the global classify cache) must produce the same
/// reports and device statistics as a fresh streaming replay, at every
/// flat placement and in cache mode.
#[test]
fn sweep_engine_modes_agree_end_to_end() {
    let spec = TraceSpec::from_kind(TraceKind::Gups, CORES, PER_CORE, SEED ^ 0xE2E);
    let points = MemSetup::PAPER_SETUPS.into_iter().flat_map(|setup| {
        let cfg = MachineConfig::knl7210(setup, 64);
        placements(setup).into_iter().map(move |p| (cfg.clone(), p))
    });
    for (cfg, placement) in points {
        let (reuse_sim, reuse_report) = hybridmem::replay_point(&spec, &cfg, placement, msc());
        let mut fresh = TraceSim::new(&cfg, CORES, placement, msc());
        let fresh_report = {
            let mut source = spec.source();
            replay_streaming(&mut fresh, source.as_mut())
        };
        let ctx = format!("sweep engine under {:?} at {placement:?}", cfg.setup);
        assert_eq!(reuse_report, fresh_report, "report diverged: {ctx}");
        assert_sims_match(&reuse_sim, &fresh, &ctx);
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

/// One artifact, classified under a flat config, replays cache mode at
/// any memory-side-cache capacity and refill window bit-identical to
/// the sequential oracle `run`, which probes the tags inline: from one
/// line (every L2 miss conflicts) to 16 Ki lines per core.
#[test]
fn flat_artifact_replays_cache_mode_bit_identical_to_run() {
    let trace = conflict_trace(PER_CORE);
    let ct = ClassifiedTrace::build_from_trace(&flat(), CORES, msc(), "conflict", &trace);
    assert_eq!(ct.level_hits()[2], 0, "classification stops at L2");
    let cache = MachineConfig::knl7210(MemSetup::CacheMode, 64);
    let mut hits = Vec::new();
    for capacity in [ByteSize::bytes(64), ByteSize::kib(4), ByteSize::mib(1)] {
        let mut seq = TraceSim::new(&cache, CORES, TracePlacement::AllDdr, capacity);
        let want = seq.run(&trace);
        hits.push(want.mcdram_cache_hits);
        for window in [1, 7, PAR_WINDOW] {
            let mut sim = TraceSim::new(&cache, CORES, TracePlacement::AllDdr, capacity);
            sim.set_replay_window(window);
            let got = sim.run_classified(&ct);
            let ctx = format!("cache mode at {capacity} window={window}");
            assert_eq!(got, want, "report diverged: {ctx}");
            assert_sims_match(&sim, &seq, &ctx);
        }
    }
    assert!(hits[2] > 0, "the largest cache must hit: {hits:?}");
}
