//! Differential suite for the classify-once / replay-many engine: a
//! [`ClassifiedTrace`](knl::ClassifiedTrace) artifact built once per
//! hierarchy config and replayed via `run_classified` must be
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
use knl::tracesim::{TracePlacement, TraceSim, TraceSimReport};
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

/// The timing setups a flat artifact must serve: every placement,
/// including an actively-migrating one. Cache mode replays its own
/// artifact under the one placement it supports.
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

fn artifact(kind: TraceKind, cfg: &MachineConfig) -> ClassifiedTrace {
    let mut source = kind.source(CORES, PER_CORE, SEED);
    classify_streaming(
        cfg,
        CORES,
        msc(),
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

/// Replay `kind` under `setup`: the artifact built at every worker
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
        let ct = par::with_threads(workers, || artifact(kind, &cfg));
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
            classify_streaming(&cfg, CORES, msc(), "hotcold:equiv", &mut source)
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
/// flat placement.
#[test]
fn sweep_engine_modes_agree_end_to_end() {
    let spec = TraceSpec::from_kind(TraceKind::Gups, CORES, PER_CORE, SEED ^ 0xE2E);
    let cfg = MachineConfig::knl7210(MemSetup::DramOnly, 64);
    for placement in placements(MemSetup::DramOnly) {
        let (reuse_sim, reuse_report) = hybridmem::replay_point(&spec, &cfg, placement, msc());
        let mut fresh = TraceSim::new(&cfg, CORES, placement, msc());
        let fresh_report = {
            let mut source = spec.source();
            replay_streaming(&mut fresh, source.as_mut())
        };
        let ctx = format!("sweep engine at {placement:?}");
        assert_eq!(reuse_report, fresh_report, "report diverged: {ctx}");
        assert_sims_match(&reuse_sim, &fresh, &ctx);
    }
}
