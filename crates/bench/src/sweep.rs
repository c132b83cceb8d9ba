//! Sweep-reuse benchmark: prices the classify-once / replay-many
//! engine against the regenerate-per-point sweep it replaced.
//!
//! A "sweep" here is the shape every multi-setup experiment in the
//! repo takes: one deterministic trace replayed against N timing
//! setups — flat placements, cache mode, migration periods. The
//! regenerate arm re-runs the generator and the private-cache models
//! for every point (the pre-engine behavior); the reuse arm classifies
//! once per hierarchy config — once in all, since flat placements and
//! cache mode share one — and replays each point from the
//! [`ClassifiedTrace`] artifact. Both arms are asserted
//! pointwise bit-identical — reports *and* migration move digests — so
//! the measured speedup can never come from a diverged engine.
//!
//! Artifacts are built locally inside the timed region, **not**
//! through the warm global [`ClassifyCache`](knl::ClassifyCache): the
//! bench prices an end-to-end cold sweep, and timing a prior run's
//! cached work would flatter the reuse arm.
//!
//! Backs the `sweep-reuse` row of `repro gate` (the CI speedup gate).

use crate::gate::{run_pairs, timed, Paired, Side};
use crate::replay::BENCH_SEED;
use knl::tracesim::{TracePlacement, TraceSim, TraceSimReport};
use knl::{classify_signature, ClassifiedTrace, MachineConfig, MemSetup};
use memkind_sim::migrate::{MigrationStats, PAGE_BYTES};
use memkind_sim::MigrationSpec;
use simfabric::ByteSize;
use std::collections::{HashMap, HashSet};
use workloads::tracegen::{classify_streaming, replay_streaming, TraceKind};

/// One sweep-bench scenario: a trace crossed with the standard sweep
/// points (three flat statics, cache mode, one migrated point per
/// period).
#[derive(Debug, Clone)]
pub(crate) struct SweepBenchConfig {
    /// Trace generator.
    pub kind: TraceKind,
    /// Simulated core count.
    pub cores: u32,
    /// Approximate accesses per core.
    pub accesses_per_core: u64,
    /// Migration rebalance periods (accesses), one `Migrated` point
    /// each.
    pub periods: Vec<u64>,
    /// Fast-tier budget in pages: sizes the split boundary, the
    /// memory-side cache, and the migration budget.
    pub budget_pages: u32,
}

impl SweepBenchConfig {
    fn budget_bytes(&self) -> u64 {
        self.budget_pages as u64 * PAGE_BYTES
    }

    /// The sweep points, fixed order: DDR, split, HBM, cache, then one
    /// migrated point per period.
    fn points(&self) -> Vec<SweepPoint> {
        let budget = self.budget_bytes();
        let msc = ByteSize::mib(8);
        let mut points = vec![
            SweepPoint {
                label: "ddr".to_string(),
                setup: MemSetup::DramOnly,
                placement: TracePlacement::AllDdr,
                msc,
            },
            SweepPoint {
                label: format!("split@{}KiB", budget >> 10),
                setup: MemSetup::DramOnly,
                placement: TracePlacement::SplitAt(budget),
                msc,
            },
            SweepPoint {
                label: "hbm".to_string(),
                setup: MemSetup::DramOnly,
                placement: TracePlacement::AllHbm,
                msc,
            },
            SweepPoint {
                label: format!("cache({}KiB)", budget >> 10),
                setup: MemSetup::CacheMode,
                placement: TracePlacement::AllDdr,
                msc: ByteSize::bytes(budget),
            },
        ];
        for &period in &self.periods {
            points.push(SweepPoint {
                label: format!("migrated_T{period}"),
                setup: MemSetup::DramOnly,
                placement: TracePlacement::Migrated(MigrationSpec::new(period, self.budget_pages)),
                msc,
            });
        }
        points
    }
}

/// One timing setup of a sweep.
#[derive(Debug, Clone)]
struct SweepPoint {
    label: String,
    setup: MemSetup,
    placement: TracePlacement,
    msc: ByteSize,
}

/// What one point produced — everything the equivalence assert
/// compares.
#[derive(Debug, Clone, PartialEq)]
struct PointOutcome {
    label: String,
    report: TraceSimReport,
    migration: Option<MigrationStats>,
}

fn run_point(
    cfg: &MachineConfig,
    cores: u32,
    point: &SweepPoint,
    ct: &ClassifiedTrace,
) -> PointOutcome {
    let mut sim = TraceSim::new(cfg, cores, point.placement, point.msc);
    let report = sim.run_classified(ct);
    PointOutcome {
        label: point.label.clone(),
        report,
        migration: sim.migration_stats(),
    }
}

/// The reuse arm: classify once per hierarchy config (keyed by the
/// classify signature, which every point shares), then
/// replay every point from the artifacts. Classification happens
/// inside the caller's timer — this is a cold sweep, not a warm-cache
/// replay. Also returns how many classification passes ran.
fn run_reuse(cfg: &SweepBenchConfig) -> (Vec<PointOutcome>, usize) {
    let trace_spec = cfg.kind.spec(cfg.cores, cfg.accesses_per_core, BENCH_SEED);
    let mut passes = 0;
    let mut classify = |mcfg: &MachineConfig| {
        passes += 1;
        let mut source = cfg
            .kind
            .source(cfg.cores, cfg.accesses_per_core, BENCH_SEED);
        classify_streaming(mcfg, cfg.cores, &trace_spec, source.as_mut())
    };
    let mut artifacts: HashMap<String, ClassifiedTrace> = HashMap::new();
    let outcomes = cfg
        .points()
        .iter()
        .map(|point| {
            let mcfg = MachineConfig::knl7210(point.setup, 64);
            let sig = classify_signature(&mcfg);
            if !artifacts.contains_key(&sig) {
                artifacts.insert(sig.clone(), classify(&mcfg));
            }
            run_point(&mcfg, cfg.cores, point, &artifacts[&sig])
        })
        .collect();
    (outcomes, passes)
}

/// The regenerate arm: the pre-engine sweep — a fresh generator run
/// and a full streaming (classify + time) replay per point. Also
/// returns how many classification passes ran (one per replay).
fn run_regen(cfg: &SweepBenchConfig) -> (Vec<PointOutcome>, usize) {
    let mut passes = 0;
    let outcomes = cfg
        .points()
        .iter()
        .map(|point| {
            let mcfg = MachineConfig::knl7210(point.setup, 64);
            let mut sim = TraceSim::new(&mcfg, cfg.cores, point.placement, point.msc);
            let mut source = cfg
                .kind
                .source(cfg.cores, cfg.accesses_per_core, BENCH_SEED);
            passes += 1;
            let report = replay_streaming(&mut sim, source.as_mut());
            PointOutcome {
                label: point.label.clone(),
                report,
                migration: sim.migration_stats(),
            }
        })
        .collect();
    (outcomes, passes)
}

fn assert_outcomes_match(reuse: &[PointOutcome], regen: &[PointOutcome]) {
    assert_eq!(reuse.len(), regen.len(), "sweep arms disagree on points");
    for (a, b) in reuse.iter().zip(regen) {
        assert_eq!(
            a, b,
            "classified replay diverged from regeneration at point {:?}",
            a.label
        );
    }
}

/// Time `iters` alternating reuse (A) / regenerate (B) sweep pairs
/// ([`run_pairs`]), asserting the arms pointwise bit-identical every
/// pair. B/A is the speedup of reuse.
///
/// Every pair also asserts the work each arm did, independent of
/// timer noise: the reuse arm classifies once per distinct
/// [`classify_signature`] among the points, the regenerate arm once
/// per point. Classification creeping back into the reuse arm's
/// per-point loop fails here on every attempt.
pub(crate) fn measure_sweep(cfg: &SweepBenchConfig, iters: usize) -> Paired {
    let points = cfg.points().len();
    let signatures: HashSet<String> = cfg
        .points()
        .iter()
        .map(|p| classify_signature(&MachineConfig::knl7210(p.setup, 64)))
        .collect();
    run_pairs(
        iters,
        |side| {
            timed(|| match side {
                Side::A => run_reuse(cfg),
                Side::B => run_regen(cfg),
            })
        },
        |(reuse, reuse_passes), (regen, regen_passes)| {
            assert_eq!(
                reuse_passes,
                signatures.len(),
                "reuse arm classified {reuse_passes} times for {} classify signatures",
                signatures.len()
            );
            assert_eq!(
                regen_passes, points,
                "regenerate arm classified {regen_passes} times for {points} points"
            );
            assert_outcomes_match(&reuse, &regen);
        },
    )
}

/// Tiny scenario for the CI smoke gate (seconds, not minutes): 5
/// points over a 32 k-access XSBench trace.
pub(crate) fn smoke_sweep_config() -> SweepBenchConfig {
    SweepBenchConfig {
        kind: TraceKind::XsBench,
        cores: 8,
        accesses_per_core: 4_000,
        periods: vec![1_000],
        budget_pages: 32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro() -> SweepBenchConfig {
        SweepBenchConfig {
            kind: TraceKind::Stream,
            cores: 2,
            accesses_per_core: 200,
            periods: vec![100],
            budget_pages: 16,
        }
    }

    #[test]
    fn sweep_points_cover_statics_and_periods() {
        let cfg = micro();
        let points = cfg.points();
        assert_eq!(points.len(), 5);
        assert_eq!(points[0].label, "ddr");
        assert_eq!(points[2].label, "hbm");
        assert!(points[3].label.starts_with("cache("));
        assert_eq!(points[4].label, "migrated_T100");
    }

    #[test]
    fn reuse_arm_classifies_once_for_every_point() {
        // Flat placements, cache mode and migration share one artifact.
        let (outcomes, passes) = run_reuse(&micro());
        assert_eq!(outcomes.len(), 5);
        assert_eq!(passes, 1);
    }

    #[test]
    fn arms_are_bit_identical_and_measured() {
        let m = measure_sweep(&micro(), 2);
        assert_eq!(m.ratios.len(), 2);
        assert!(m.best_secs.iter().all(|&s| s > 0.0));
        assert!(m.median_ratio() > 0.0);
    }
}
