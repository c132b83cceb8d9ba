//! Sweep-reuse benchmark: prices the classify-once / replay-many
//! engine against the regenerate-per-point sweep it replaced.
//!
//! A "sweep" here is the shape every multi-setup experiment in the
//! repo takes: one deterministic trace replayed against N timing
//! setups — flat placements, cache mode, migration periods. The
//! regenerate arm re-runs the generator and the private-cache models
//! for every point (the pre-engine behavior); the reuse arm classifies
//! once per hierarchy config (flat + cache = twice) and replays each
//! point from the [`ClassifiedTrace`] artifact. Both arms are asserted
//! pointwise bit-identical — reports *and* migration move digests — so
//! the measured speedup can never come from a diverged engine.
//!
//! Artifacts are built locally inside the timed region, **not**
//! through the warm global [`ClassifyCache`](knl::ClassifyCache): the
//! bench prices an end-to-end cold sweep, and timing a prior run's
//! cached work would flatter the reuse arm.
//!
//! Backs `repro sweep-reuse` (report), the `sweep-reuse` row of
//! `repro gate` (the CI speedup gate) and the `sweep_reuse` section of
//! `BENCH_trace_replay.json`.

use crate::gate::{run_pairs, timed, Paired, Side};
use crate::replay::BENCH_SEED;
use hybridmem::json::Json;
use hybridmem::TraceSpec;
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
pub struct SweepBenchConfig {
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
    /// Stable identifier, e.g. `sweep_stream_32x20000`.
    pub fn label(&self) -> String {
        format!(
            "sweep_{}_{}x{}",
            self.kind.name().to_lowercase(),
            self.cores,
            self.accesses_per_core
        )
    }

    fn budget_bytes(&self) -> u64 {
        self.budget_pages as u64 * PAGE_BYTES
    }

    fn spec(&self) -> TraceSpec {
        TraceSpec::from_kind(self.kind, self.cores, self.accesses_per_core, BENCH_SEED)
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
/// classify signature, so all flat points share one artifact), then
/// replay every point from the artifacts. Classification happens
/// inside the caller's timer — this is a cold sweep, not a warm-cache
/// replay. Also returns how many classification passes ran.
fn run_reuse(cfg: &SweepBenchConfig) -> (Vec<PointOutcome>, usize) {
    let trace_spec = cfg.kind.spec(cfg.cores, cfg.accesses_per_core, BENCH_SEED);
    let mut passes = 0;
    let mut classify = |mcfg: &MachineConfig, msc: ByteSize| {
        passes += 1;
        let mut source = cfg
            .kind
            .source(cfg.cores, cfg.accesses_per_core, BENCH_SEED);
        classify_streaming(mcfg, cfg.cores, msc, &trace_spec, source.as_mut())
    };
    let mut artifacts: HashMap<String, ClassifiedTrace> = HashMap::new();
    let outcomes = cfg
        .points()
        .iter()
        .map(|point| {
            let mcfg = MachineConfig::knl7210(point.setup, 64);
            let sig = classify_signature(&mcfg, point.msc);
            if !artifacts.contains_key(&sig) {
                artifacts.insert(sig.clone(), classify(&mcfg, point.msc));
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

/// Paired wall-time comparison of the two sweep arms.
#[derive(Debug, Clone)]
pub struct SweepMeasurement {
    /// The scenario measured.
    pub config: SweepBenchConfig,
    /// Accesses replayed per point (every point replays the full
    /// trace).
    pub accesses: u64,
    /// Sweep points per arm.
    pub points: usize,
    /// Reuse (A) against regenerate-per-point (B): B/A is the speedup
    /// of reuse.
    pub pairs: Paired,
}

/// Time `iters` alternating reuse (A) / regenerate (B) sweep pairs
/// ([`run_pairs`]), asserting the arms pointwise bit-identical every
/// pair.
///
/// Every pair also asserts the work each arm did, independent of
/// timer noise: the reuse arm classifies once per distinct
/// [`classify_signature`] among the points, the regenerate arm once
/// per point. Classification creeping back into the reuse arm's
/// per-point loop fails here on every attempt.
pub fn measure_sweep(cfg: &SweepBenchConfig, iters: usize) -> SweepMeasurement {
    let mut accesses = 0;
    let points = cfg.points().len();
    let signatures: HashSet<String> = cfg
        .points()
        .iter()
        .map(|p| classify_signature(&MachineConfig::knl7210(p.setup, 64), p.msc))
        .collect();
    let pairs = run_pairs(
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
            accesses = reuse[0].report.accesses;
        },
    );
    SweepMeasurement {
        config: cfg.clone(),
        accesses,
        points,
        pairs,
    }
}

/// Replay the sweep through the production engine — [`TraceSpec`]
/// routing and the global classify cache — and return
/// `(label, report, migration stats)` per point. This is the path
/// `repro sweep-reuse` prints; the [`measure_sweep`] arms bypass
/// the global cache on purpose, so this is also what populates the
/// `replay.classify.*` metrics.
pub fn run_engine_sweep(
    cfg: &SweepBenchConfig,
) -> Vec<(String, TraceSimReport, Option<MigrationStats>)> {
    let spec = cfg.spec();
    cfg.points()
        .iter()
        .map(|point| {
            let mcfg = MachineConfig::knl7210(point.setup, 64);
            let (sim, report) = hybridmem::replay_point(&spec, &mcfg, point.placement, point.msc);
            (point.label.clone(), report, sim.migration_stats())
        })
        .collect()
}

/// The bundled sweep-bench scenario for `repro bench-replay` /
/// `repro sweep-reuse`: 7 points (4 statics + 3 migration periods)
/// over a 640 k-access XSBench trace. XSBench because its random
/// lookups exercise the private-cache models hardest, which is the
/// cost class the artifact amortizes — STREAM's classification is
/// nearly free and measures mostly the (smaller) generator saving.
pub fn standard_sweep_config() -> SweepBenchConfig {
    SweepBenchConfig {
        kind: TraceKind::XsBench,
        cores: 32,
        accesses_per_core: 20_000,
        periods: vec![2_000, 8_000, 32_000],
        budget_pages: 64,
    }
}

/// Tiny scenario for the CI smoke gate (seconds, not minutes): 5
/// points over a 32 k-access XSBench trace.
pub fn smoke_sweep_config() -> SweepBenchConfig {
    SweepBenchConfig {
        kind: TraceKind::XsBench,
        cores: 8,
        accesses_per_core: 4_000,
        periods: vec![1_000],
        budget_pages: 32,
    }
}

/// Render a measurement as the `sweep_reuse` section of the
/// `bench_trace_replay/v1` report.
pub fn sweep_report_section(m: &SweepMeasurement) -> Json {
    Json::obj([
        ("label", Json::Str(m.config.label())),
        ("kind", Json::Str(m.config.kind.name().to_string())),
        ("cores", Json::Num(m.config.cores as f64)),
        ("points", Json::Num(m.points as f64)),
        ("accesses", Json::Num(m.accesses as f64)),
        ("reuse_secs", Json::Num(m.pairs.best_secs[0])),
        ("regen_secs", Json::Num(m.pairs.best_secs[1])),
        ("speedup_reuse_vs_regen", Json::Num(m.pairs.median_ratio())),
        ("best_speedup", Json::Num(m.pairs.best_ratio())),
        (
            "pair_ratios",
            Json::Arr(m.pairs.ratios.iter().map(|&r| Json::Num(r)).collect()),
        ),
    ])
}

/// Validate a `sweep_reuse` section (called from
/// [`check_report`](crate::replay::check_report)).
pub fn check_sweep_section(sweep: &Json) -> Result<(), String> {
    let label = sweep.str_field("label")?;
    sweep.str_field("kind")?;
    sweep.num_field("cores")?;
    let points = sweep.num_field("points")?;
    if points < 4.0 {
        return Err(format!(
            "{label}: {points} sweep points (expected the 4 statics at least)"
        ));
    }
    let accesses = sweep.num_field("accesses")?;
    if accesses <= 0.0 {
        return Err(format!("{label}: non-positive access count"));
    }
    for field in [
        "reuse_secs",
        "regen_secs",
        "speedup_reuse_vs_regen",
        "best_speedup",
    ] {
        let v = sweep.num_field(field)?;
        if v <= 0.0 || !v.is_finite() {
            return Err(format!("{label}: non-positive {field} {v}"));
        }
    }
    let ratios = sweep.arr_field("pair_ratios")?;
    if ratios.is_empty() {
        return Err(format!("{label}: empty pair_ratios"));
    }
    Ok(())
}

/// [`bench_report`](crate::replay::bench_report) plus the
/// `sweep_reuse` section — what `repro bench-replay` writes.
pub fn bench_report_with_sweep(
    configs: &[crate::replay::ReplayConfig],
    sweep_cfg: &SweepBenchConfig,
    iters: usize,
) -> Json {
    let mut report = crate::replay::bench_report(configs);
    let m = measure_sweep(sweep_cfg, iters);
    if let Json::Obj(map) = &mut report {
        map.insert("sweep_reuse".to_string(), sweep_report_section(&m));
    }
    report
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
        assert_eq!(cfg.label(), "sweep_stream_2x200");
    }

    #[test]
    fn arms_are_bit_identical_and_measured() {
        let m = measure_sweep(&micro(), 2);
        assert_eq!(m.points, 5);
        assert_eq!(m.accesses, 400);
        assert_eq!(m.pairs.ratios.len(), 2);
        assert!(m.pairs.best_secs.iter().all(|&s| s > 0.0));
        assert!(m.pairs.median_ratio() > 0.0);
    }

    #[test]
    fn sweep_section_round_trips_and_validates() {
        let m = measure_sweep(&micro(), 1);
        let section = sweep_report_section(&m);
        check_sweep_section(&section).expect("fresh section validates");
        let parsed = hybridmem::json::parse(&section.to_pretty()).expect("parse");
        check_sweep_section(&parsed).expect("parsed section validates");
        assert!(check_sweep_section(&Json::obj([])).is_err());
    }
}
