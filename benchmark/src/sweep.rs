//! `sweep_migrate`: the Cori-style migration T-sweep
//! (`hybridmem::run_migration_sweep`) over a classify-once artifact
//! pair built in set-up, so the timed phase is timing-only replay plus
//! the migration scheduler.

use crate::replay::{gang_metrics, level_fractions, timed_replay, DeviceTotals};
use crate::spans::{Open, Tracer};
use crate::{digest, gang_host, Check, Metrics, Pass, Workload};
use hybridmem::{classified_for, run_migration_sweep, MigrationSweepConfig};
use knl::classified::ClassifiedTrace;
use knl::tracesim::{TracePlacement, TraceSim};
use knl::{with_global_classify_cache, MachineConfig, MemSetup};
use memkind_sim::MigrationSpec;
use simfabric::ByteSize;
use std::time::Instant;
use workloads::tracegen::collect;

/// Migration periods swept, in accesses.
pub const PERIODS: [u64; 4] = [1_024, 8_192, 65_536, 262_144];

/// Memory-side cache of the flat hierarchy (unused by flat timing, but
/// part of the simulator's configuration, as in the sweep itself).
const FLAT_MSC: ByteSize = ByteSize::mib(8);

/// The migration T-sweep workload.
pub struct Sweep {
    cfg: MigrationSweepConfig,
}

impl Sweep {
    /// The sweep at `accesses_per_core_per_phase` over `cores` cores.
    pub fn new(cores: u32, accesses_per_core_per_phase: u64, seed: u64) -> Self {
        Sweep {
            cfg: MigrationSweepConfig {
                cores,
                accesses_per_core_per_phase,
                periods: PERIODS.to_vec(),
                seed,
                ..MigrationSweepConfig::cori()
            },
        }
    }

    fn machines(&self) -> (MachineConfig, MachineConfig, ByteSize) {
        (
            MachineConfig::knl7210(MemSetup::DramOnly, 64),
            MachineConfig::knl7210(MemSetup::CacheMode, 64),
            ByteSize::bytes(self.cfg.budget_bytes()),
        )
    }

    /// The sweep's points in `MigrationSweep` order (statics DDR,
    /// split, cache, HBM, then one migrated point per period): span
    /// name, placement, and whether the point runs in cache mode.
    fn points(&self) -> Vec<(String, TracePlacement, bool)> {
        let budget = self.cfg.budget_bytes();
        let mut points = vec![
            ("ddr".to_string(), TracePlacement::AllDdr, false),
            ("split".to_string(), TracePlacement::SplitAt(budget), false),
            ("cache".to_string(), TracePlacement::AllDdr, true),
            ("hbm".to_string(), TracePlacement::AllHbm, false),
        ];
        for t in PERIODS {
            let spec = MigrationSpec::new(t, self.cfg.budget_pages);
            points.push((
                format!("migrated.t{t}"),
                TracePlacement::Migrated(spec),
                false,
            ));
        }
        points
    }
}

fn classify_misses() -> u64 {
    with_global_classify_cache(|c| c.stats().misses)
}

impl Workload for Sweep {
    fn pass(&mut self) -> Pass {
        let mut pass = Pass::default();
        let (flat, cache, budget) = self.machines();
        let spec = self.cfg.trace_spec();
        let t0 = Instant::now();
        with_global_classify_cache(|c| c.clear());
        classified_for(&spec, &flat, FLAT_MSC);
        classified_for(&spec, &cache, budget);
        pass.setup_s = t0.elapsed().as_secs_f64();

        let misses = classify_misses();
        let t = Instant::now();
        let sweep = run_migration_sweep(&self.cfg);
        pass.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        pass.computed.push(true);
        // Set-up classified everything the timed phase replays.
        let reclassified = classify_misses() != misses;
        for s in &sweep.statics {
            pass.accesses += s.report.accesses;
            pass.digests
                .push(digest::report(digest::Fnv::default(), &s.report).finish());
        }
        for p in &sweep.migrated {
            pass.accesses += p.report.accesses;
            let h = digest::report(digest::Fnv::default(), &p.report);
            pass.digests.push(digest::migration(h, &p.stats).finish());
        }
        pass.bad = sweep
            .statics
            .iter()
            .map(|s| s.report.accesses)
            .chain(sweep.migrated.iter().map(|p| p.report.accesses))
            .map(|n| reclassified || n != self.cfg.total_accesses())
            .collect();
        pass
    }

    fn traced(
        &mut self,
        tracer: &mut Tracer,
        root: &Open,
        passes: &[Pass],
        m: &mut Metrics,
    ) -> Check {
        let mut check = Check::default();
        let (flat_cfg, cache_cfg, budget) = self.machines();
        let spec = self.cfg.trace_spec();
        let cores = self.cfg.cores;
        let trace = tracer.time(root, "tracegen", self.cfg.total_accesses(), || {
            collect(spec.source().as_mut())
        });
        let n = trace.len() as u64;
        let flat = tracer.time(root, "classify.flat", n, || {
            ClassifiedTrace::build_from_trace(&flat_cfg, cores, FLAT_MSC, spec.label(), &trace)
        });
        let cache = tracer.time(root, "classify.cache", n, || {
            ClassifiedTrace::build_from_trace(&cache_cfg, cores, budget, spec.label(), &trace)
        });
        drop(trace);
        let [_, _, flat_mem] = level_fractions(&flat);
        let [_, msc_hit, cache_mem] = level_fractions(&cache);
        m.insert("classify.memory_fraction.flat", flat_mem);
        m.insert("classify.memory_fraction.cache", cache_mem);
        m.insert("classify.msc_hit_fraction", msc_hit);

        let mut device = DeviceTotals::default();
        let (mut rebalances, mut moved) = (0.0, 0.0);
        let points = self.points();
        let mut run = |tracer: &mut Tracer, op: usize, gang: bool| {
            let (name, placement, in_cache) = &points[op];
            let (cfg, ct, msc) = if *in_cache {
                (&cache_cfg, &cache, budget)
            } else {
                (&flat_cfg, &flat, FLAT_MSC)
            };
            let mut sim = tracer.time(root, "sim.new", 0, || {
                TraceSim::new(cfg, cores, *placement, msc)
            });
            let report = timed_replay(tracer, root, &mut sim, ct, name, gang);
            let mut h = digest::report(digest::Fnv::default(), &report);
            if let Some(s) = sim.migration_stats() {
                h = digest::migration(h, &s);
            }
            // Each explicit point must reproduce the sweep's own.
            check.op(h.finish() == passes[0].digests[op]);
            sim
        };
        for op in 0..points.len() {
            let sim = run(tracer, op, false);
            device.add(&sim);
            if let Some(s) = sim.migration_stats() {
                rebalances += s.rebalances as f64;
                moved += (s.promoted_pages + s.demoted_pages) as f64;
            }
        }
        if gang_host() {
            for op in [0, 3, 2] {
                let sim = run(tracer, op, true);
                if op != 3 {
                    gang_metrics(m, &points[op].0, &sim);
                }
            }
        }
        device.report(m);
        m.insert("migrate.rebalances", rebalances);
        m.insert("migrate.moved_pages", moved);
        check
    }
}
