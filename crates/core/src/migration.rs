//! The Cori-style migration tuning sweep — the dynamic-placement
//! experiment the paper could not run.
//!
//! The paper measures only *static* placements (DDR-only, HBM-only,
//! cache mode). Its discussion, and the follow-up heterogeneous
//! memory-pool tuning work, point at the interesting regime: a small
//! fast tier plus periodic hot-page migration, where the migration
//! period `T` is the tuning knob. This module runs that sweep on the
//! trace simulator:
//!
//! * the workload is [`HotColdSource`] — phased hot blocks that no
//!   static boundary split can capture, plus cold random noise;
//! * the *static* baselines are every placement that fits the same
//!   MCDRAM budget: all-DDR, a boundary split of `budget` bytes, and
//!   cache mode with a `budget`-sized memory-side cache (all-HBM is
//!   also reported as the unconstrained upper bound);
//! * the *migrated* runs sweep `T` through
//!   [`TracePlacement::Migrated`], pricing every page move through the
//!   scheduler's cost model and the bytes-moved energy through
//!   [`EnergyReport::with_migration`].
//!
//! The interesting result — pinned by `tests/migration_golden.rs` —
//! is the crossover: at intermediate `T` the migrated run beats every
//! static placement that fits the budget, while tiny `T` thrashes on
//! migration overhead and huge `T` degenerates to all-DDR.

use crate::experiment::{Measurement, Series};
use crate::figures::FigureData;
use crate::sweep::{replay_point, TraceSpec};
use knl::tracesim::{TracePlacement, TraceSim, TraceSimReport};
use knl::{EnergyModel, EnergyReport, MachineConfig, MemSetup};
use memkind_sim::migrate::{MigrationSpec, MigrationStats, PAGE_BYTES};
use simfabric::ByteSize;
use workloads::tracegen::HotColdSource;

/// Parameters of one migration `T`-sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationSweepConfig {
    /// Simulated cores.
    pub cores: u32,
    /// Hot-block phases in the trace.
    pub phases: u32,
    /// Accesses per core per phase.
    pub accesses_per_core_per_phase: u64,
    /// Hot-block size per phase, bytes.
    pub hot_bytes: u64,
    /// Cold-region size, bytes.
    pub cold_bytes: u64,
    /// Trace seed.
    pub seed: u64,
    /// MCDRAM budget, in 4-KiB pages (also sizes the cache-mode
    /// baseline's memory-side cache).
    pub budget_pages: u32,
    /// Migration periods to sweep, in accesses.
    pub periods: Vec<u64>,
}

impl MigrationSweepConfig {
    /// Repro scale: the configuration `repro migrate` runs. Each of
    /// the four phases streams a fresh 1-MiB hot block (exactly the
    /// 256-page budget) with 10% cold noise over 64 MiB.
    pub fn cori() -> Self {
        MigrationSweepConfig {
            cores: 32,
            phases: 4,
            accesses_per_core_per_phase: 32_768,
            hot_bytes: 1 << 20,
            cold_bytes: 64 << 20,
            seed: 0xC021,
            budget_pages: 256,
            periods: vec![1_024, 8_192, 65_536, 262_144, 1_048_576, 4_194_304],
        }
    }

    /// Tiny fixed-seed configuration for the byte-exact golden test:
    /// same shape, two orders of magnitude fewer accesses.
    pub fn golden() -> Self {
        MigrationSweepConfig {
            cores: 4,
            phases: 3,
            accesses_per_core_per_phase: 2_048,
            hot_bytes: 128 << 10,
            cold_bytes: 8 << 20,
            seed: 0xC021,
            budget_pages: 32,
            periods: vec![128, 1_024, 8_192, 24_576],
        }
    }

    /// MCDRAM budget in bytes.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_pages as u64 * PAGE_BYTES
    }

    /// Total trace length in accesses.
    pub fn total_accesses(&self) -> u64 {
        self.cores as u64 * self.phases as u64 * self.accesses_per_core_per_phase
    }

    /// The sweep's workload as a [`TraceSpec`], so every point —
    /// statics, cache mode, and all migrated periods — replays one
    /// classified artifact instead of regenerating and re-classifying
    /// the stream per point.
    pub fn trace_spec(&self) -> TraceSpec {
        let (cores, phases, per, hot, cold, seed) = (
            self.cores,
            self.phases,
            self.accesses_per_core_per_phase,
            self.hot_bytes,
            self.cold_bytes,
            self.seed,
        );
        TraceSpec::new(
            format!("hotcold:{cores}x{phases}x{per}:hot={hot}:cold={cold}:seed={seed:#x}"),
            cores,
            move || Box::new(HotColdSource::new(cores, phases, per, hot, cold, seed)),
        )
    }
}

/// One static baseline of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticPoint {
    /// Display label.
    pub label: String,
    /// Whether this placement fits the sweep's MCDRAM budget (all-HBM
    /// does not; it is the unconstrained upper bound).
    pub fits_budget: bool,
    /// Replay report.
    pub report: TraceSimReport,
    /// Priced memory energy.
    pub energy: EnergyReport,
}

/// One migrated point of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MigratedPoint {
    /// Migration period, in accesses.
    pub period: u64,
    /// Replay report.
    pub report: TraceSimReport,
    /// Scheduler counters (moves, bytes, digest).
    pub stats: MigrationStats,
    /// Priced memory energy including the bytes moved.
    pub energy: EnergyReport,
}

/// A complete `T`-sweep: statics plus one migrated point per period.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationSweep {
    /// The configuration that produced it.
    pub config: MigrationSweepConfig,
    /// Static baselines, fixed order: DDR, split, cache, HBM.
    pub statics: Vec<StaticPoint>,
    /// Migrated runs, in `config.periods` order.
    pub migrated: Vec<MigratedPoint>,
}

impl MigrationSweep {
    /// The best (lowest-makespan) migrated point.
    pub fn best_migrated(&self) -> &MigratedPoint {
        self.migrated
            .iter()
            .min_by_key(|p| (p.report.makespan, p.period))
            .expect("sweep has at least one period")
    }

    /// The best static placement that fits the budget.
    pub fn best_static_fitting(&self) -> &StaticPoint {
        self.statics
            .iter()
            .filter(|s| s.fits_budget)
            .min_by(|a, b| {
                a.report
                    .makespan
                    .cmp(&b.report.makespan)
                    .then(a.label.cmp(&b.label))
            })
            .expect("sweep has budget-fitting statics")
    }

    /// Speedup of the best migrated point over the best budget-fitting
    /// static placement (> 1 means migration wins).
    pub fn crossover_speedup(&self) -> f64 {
        let stat = self.best_static_fitting().report.makespan.as_ps() as f64;
        let mig = self.best_migrated().report.makespan.as_ps() as f64;
        stat / mig
    }
}

fn run_flat(cfg: &MigrationSweepConfig, placement: TracePlacement) -> (TraceSim, TraceSimReport) {
    let mcfg = MachineConfig::knl7210(MemSetup::DramOnly, 64);
    replay_point(&cfg.trace_spec(), &mcfg, placement, ByteSize::mib(8))
}

fn run_cache(cfg: &MigrationSweepConfig) -> (TraceSim, TraceSimReport) {
    let mcfg = MachineConfig::knl7210(MemSetup::CacheMode, 64);
    replay_point(
        &cfg.trace_spec(),
        &mcfg,
        TracePlacement::AllDdr,
        ByteSize::bytes(cfg.budget_bytes()),
    )
}

fn price(sim: &TraceSim, moved_bytes: u64) -> EnergyReport {
    let model = EnergyModel::knl();
    let ddr_bytes = sim.ddr_stats().total() * 64;
    let hbm_bytes = sim.hbm_stats().total() * 64;
    EnergyReport::with_migration(
        &model,
        ddr_bytes as f64,
        hbm_bytes as f64,
        moved_bytes as f64,
    )
}

/// Run the full sweep: four static baselines, then one migrated run
/// per period. Every point (statics, cache mode and all migrated
/// periods) replays one shared classified artifact — classification
/// runs once where it used to run `3 + periods` times.
/// Bit-identical to regenerating per point (the classified-equivalence
/// suite pins it), so the sweep itself needs no engine knob.
pub fn run_migration_sweep(cfg: &MigrationSweepConfig) -> MigrationSweep {
    let mut statics = Vec::new();
    let budget = cfg.budget_bytes();
    let flat_statics = [
        ("DDR (flat)".to_string(), TracePlacement::AllDdr, true),
        (
            format!("split@{}KiB", budget >> 10),
            TracePlacement::SplitAt(budget),
            true,
        ),
        (
            "HBM (flat, unconstrained)".to_string(),
            TracePlacement::AllHbm,
            false,
        ),
    ];
    for (label, placement, fits_budget) in flat_statics {
        let (sim, report) = run_flat(cfg, placement);
        statics.push(StaticPoint {
            label,
            fits_budget,
            energy: price(&sim, 0),
            report,
        });
    }
    let (sim, report) = run_cache(cfg);
    statics.insert(
        2,
        StaticPoint {
            label: format!("cache({}KiB)", budget >> 10),
            fits_budget: true,
            energy: price(&sim, 0),
            report,
        },
    );
    let migrated = cfg
        .periods
        .iter()
        .map(|&period| {
            let spec = MigrationSpec::new(period, cfg.budget_pages);
            let (sim, report) = run_flat(cfg, TracePlacement::Migrated(spec));
            let stats = sim.migration_stats().expect("migration scheduler active");
            MigratedPoint {
                period,
                energy: price(&sim, stats.bytes_moved),
                report,
                stats,
            }
        })
        .collect();
    MigrationSweep {
        config: cfg.clone(),
        statics,
        migrated,
    }
}

/// Render the sweep as a deterministic text table (the form the golden
/// test pins byte-exact).
pub fn render_migration_sweep(sweep: &MigrationSweep) -> String {
    let cfg = &sweep.config;
    let mut out = String::new();
    out.push_str(&format!(
        "Migration T-sweep: {} cores x {} phases x {} accesses/core, hot {} KiB/phase, \
         cold {} MiB, budget {} pages ({} KiB), seed {:#x}\n",
        cfg.cores,
        cfg.phases,
        cfg.accesses_per_core_per_phase,
        cfg.hot_bytes >> 10,
        cfg.cold_bytes >> 20,
        cfg.budget_pages,
        cfg.budget_bytes() >> 10,
        cfg.seed,
    ));
    out.push_str(&format!(
        "{:<28} {:>14} {:>10} {:>12} {:>10} {:>10}\n",
        "placement", "makespan_us", "bw_GBs", "moved_pages", "moved_KiB", "energy_mJ"
    ));
    for s in &sweep.statics {
        out.push_str(&format!(
            "{:<28} {:>14.3} {:>10.3} {:>12} {:>10} {:>10.4}\n",
            s.label,
            s.report.makespan.as_ns() / 1e3,
            s.report.bandwidth_gbs,
            "-",
            "-",
            s.energy.total_joules() * 1e3,
        ));
    }
    for m in &sweep.migrated {
        let moves = m.stats.promoted_pages + m.stats.demoted_pages;
        out.push_str(&format!(
            "{:<28} {:>14.3} {:>10.3} {:>12} {:>10} {:>10.4}\n",
            format!("migrated T={}", m.period),
            m.report.makespan.as_ns() / 1e3,
            m.report.bandwidth_gbs,
            moves,
            m.stats.bytes_moved >> 10,
            m.energy.total_joules() * 1e3,
        ));
    }
    let best = sweep.best_migrated();
    let stat = sweep.best_static_fitting();
    out.push_str(&format!(
        "best migrated: T={} ({:.3} us); best budget-fitting static: {} ({:.3} us); \
         speedup {:.3}x\n",
        best.period,
        best.report.makespan.as_ns() / 1e3,
        stat.label,
        stat.report.makespan.as_ns() / 1e3,
        sweep.crossover_speedup(),
    ));
    out
}

/// The `T`-sweep as a figure: makespan vs migration period, with the
/// budget-fitting statics as flat reference series and all-HBM as the
/// unconstrained bound.
pub fn ext_migration() -> FigureData {
    figure_from_sweep(&run_migration_sweep(&MigrationSweepConfig::cori()))
}

/// Build the figure from an already-run sweep.
pub fn figure_from_sweep(sweep: &MigrationSweep) -> FigureData {
    let xs: Vec<f64> = sweep.migrated.iter().map(|m| m.period as f64).collect();
    let mut series = vec![Series {
        label: "Migrated".into(),
        points: sweep
            .migrated
            .iter()
            .map(|m| Measurement {
                x: m.period as f64,
                value: Some(m.report.makespan.as_ns() / 1e3),
            })
            .collect(),
    }];
    for s in &sweep.statics {
        series.push(Series {
            label: s.label.clone(),
            points: xs
                .iter()
                .map(|&x| Measurement {
                    x,
                    value: Some(s.report.makespan.as_ns() / 1e3),
                })
                .collect(),
        });
    }
    FigureData {
        id: "ext-migrate".into(),
        title: "Extension: hot-page migration period tuning (Cori-style)".into(),
        x_label: "Migration period T (accesses)".into(),
        y_label: "Makespan (us)".into(),
        series,
        text: render_migration_sweep(sweep),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_sweep_runs_and_orders_sanely() {
        let sweep = run_migration_sweep(&MigrationSweepConfig::golden());
        assert_eq!(sweep.statics.len(), 4);
        assert_eq!(sweep.migrated.len(), 4);
        // All-HBM is the only placement exempt from the budget. (At
        // the golden scale the trace is latency-bound, so all-HBM is
        // *not* necessarily fastest — the crossover only appears at
        // the bandwidth-bound repro scale `repro migrate` gates on.)
        assert!(!sweep.statics[3].fits_budget);
        assert!(sweep.statics[..3].iter().all(|s| s.fits_budget));
        // Every run replayed the whole trace.
        let total = MigrationSweepConfig::golden().total_accesses();
        for s in &sweep.statics {
            assert_eq!(s.report.accesses, total);
        }
        for m in &sweep.migrated {
            assert_eq!(m.report.accesses, total);
            // Moved bytes are priced into the energy report.
            assert_eq!(
                m.energy.migration_joules > 0.0,
                m.stats.bytes_moved > 0,
                "T={}",
                m.period
            );
        }
        // Active migration actually migrates at reactive periods.
        assert!(sweep.migrated[0].stats.promoted_pages > 0);
    }

    #[test]
    fn figure_has_migrated_plus_static_series() {
        let f = figure_from_sweep(&run_migration_sweep(&MigrationSweepConfig::golden()));
        assert_eq!(f.id, "ext-migrate");
        assert_eq!(f.series.len(), 5);
        assert_eq!(f.series[0].label, "Migrated");
        assert!(!f.text.is_empty());
    }
}
