//! Replay workloads for `repro profile` and the replay rows of
//! `repro gate`: a trace generator at a core count and length
//! ([`ReplayConfig`]), the telemetry-enabled profile run, and the
//! paired overhead measurements (telemetry, disabled migration,
//! time-series sampling), each asserting its two arms bit-identical.
//! Replay throughput itself is measured by the repository benchmark
//! (`benchmark/`, `hmbench`).

use crate::gate::{run_equal_pairs, timed, Paired, Side};
use hybridmem::json::Json;
use hybridmem::service::parse_workload;
use knl::tracesim::{TracePlacement, TraceSim, TraceSimReport};
use knl::{MachineConfig, MemSetup};
use simfabric::ByteSize;
use std::time::Instant;
use workloads::tracegen::{replay_streaming, TraceKind};

/// Seed shared by every replay-bench configuration.
pub const BENCH_SEED: u64 = 0xBE9C;

/// The configuration `repro profile` replays when given none: STREAM,
/// 64 cores, 50 k accesses per core (3.2 M accesses).
pub const DEFAULT_PROFILE_LABEL: &str = "stream_64x50000";

/// One benchmark point: a trace generator at a core count and length.
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// Trace generator.
    pub kind: TraceKind,
    /// Simulated core count.
    pub cores: u32,
    /// Approximate accesses per core.
    pub accesses_per_core: u64,
}

impl ReplayConfig {
    /// Stable identifier, e.g. `stream_64x50000`.
    pub fn label(&self) -> String {
        format!(
            "{}_{}x{}",
            self.kind.name().to_lowercase(),
            self.cores,
            self.accesses_per_core
        )
    }

    /// Parse a [`label`](Self::label)-format identifier back into a
    /// configuration (`repro profile stream_64x50000`) by the label
    /// grammar of [`parse_workload`]. Kind names match
    /// case-insensitively; errors describe the expected shape. The
    /// advisor's total-access cap does not apply: a profile replays
    /// through the streaming path, in bounded memory.
    pub fn parse_label(label: &str) -> Result<ReplayConfig, String> {
        let (kind, cores, accesses_per_core) = parse_workload(label)?;
        Ok(ReplayConfig {
            kind,
            cores,
            accesses_per_core,
        })
    }

    fn sim(&self) -> TraceSim {
        TraceSim::new(
            &MachineConfig::knl7210(MemSetup::DramOnly, 64),
            self.cores,
            TracePlacement::AllDdr,
            ByteSize::mib(8),
        )
    }
}

/// Output of a telemetry-enabled streaming profile run.
#[derive(Debug, Clone)]
pub struct ProfileRun {
    /// Accesses replayed.
    pub accesses: u64,
    /// Wall-clock seconds (including trace generation, as the
    /// streaming path is always timed).
    pub seconds: f64,
    /// Chrome `trace_event` JSONL (spans + metric counter series).
    pub chrome_jsonl: String,
    /// The registry as a `telemetry_metrics/v1` document.
    pub metrics: Json,
    /// The in-replay sampler's `timeseries/v1` JSONL export.
    pub timeseries_jsonl: String,
}

/// The sampling interval [`profile_config`] uses for `cfg`: about 64
/// windows over the whole trace, floored so tiny smoke configs still
/// sample. Derived from the config alone, so the export is
/// reproducible from the label.
pub(crate) fn profile_timeseries_interval(cfg: &ReplayConfig) -> u64 {
    (cfg.cores as u64 * cfg.accesses_per_core / 64).max(1)
}

/// Windows the profile sampler retains (more than
/// [`profile_timeseries_interval`] produces, so profiles never drop).
pub(crate) const PROFILE_TIMESERIES_CAPACITY: usize = 128;

/// Profile one configuration's streaming replay with telemetry on,
/// producing both exporter outputs. Telemetry never changes replay
/// results, so the run is the uninstrumented streaming replay, just
/// observed.
pub fn profile_config(cfg: &ReplayConfig) -> ProfileRun {
    let mut sim = cfg.sim();
    sim.enable_telemetry();
    sim.enable_timeseries(
        profile_timeseries_interval(cfg),
        PROFILE_TIMESERIES_CAPACITY,
    );
    let mut source = cfg
        .kind
        .source(cfg.cores, cfg.accesses_per_core, BENCH_SEED);
    let t0 = Instant::now();
    let report = replay_streaming(&mut sim, source.as_mut());
    let seconds = t0.elapsed().as_secs_f64();
    let registry = sim.metrics_registry();
    let chrome_jsonl = simfabric::telemetry::chrome_trace_jsonl(
        sim.telemetry_spans().expect("telemetry enabled"),
        &registry,
    );
    let timeseries_jsonl = sim.timeseries().expect("timeseries enabled").to_jsonl();
    ProfileRun {
        accesses: report.accesses,
        seconds,
        chrome_jsonl,
        metrics: hybridmem::metrics_to_json(&registry),
        timeseries_jsonl,
    }
}

/// Replay `cfg` on the streaming path from a fresh source, timing the
/// replay alone (the simulator is built outside the timer).
fn timed_streaming(cfg: &ReplayConfig, sim: &mut TraceSim) -> (f64, TraceSimReport) {
    let mut source = cfg
        .kind
        .source(cfg.cores, cfg.accesses_per_core, BENCH_SEED);
    timed(|| replay_streaming(sim, source.as_mut()))
}

/// Measure telemetry overhead on `cfg`'s streaming path: `iters`
/// alternating telemetry-off (A) / telemetry-on (B) pairs
/// ([`run_pairs`](crate::gate::run_pairs)), asserting each pair's
/// reports bit-identical — telemetry is observation, never simulation.
pub(crate) fn measure_overhead(cfg: &ReplayConfig, iters: usize) -> Paired {
    run_equal_pairs(
        iters,
        |side| {
            let mut sim = cfg.sim();
            if side == Side::B {
                sim.enable_telemetry();
            }
            timed_streaming(cfg, &mut sim)
        },
        "telemetry must replay bit-identically to uninstrumented",
    )
}

/// Measure the cost the migration plumbing adds to a *static* replay:
/// `iters` alternating pairs of an all-DDR run (A) against a
/// `Migrated { period: 0 }` run (B) — a disabled spec, so no scheduler
/// is built and routing must cost exactly one extra `Option` branch.
/// Asserts both, and that the pair replays bit-identically (a disabled
/// scheduler degenerates to the static placement).
pub(crate) fn measure_migration_overhead(cfg: &ReplayConfig, iters: usize) -> Paired {
    let mcfg = MachineConfig::knl7210(MemSetup::DramOnly, 64);
    let disabled = TracePlacement::Migrated(memkind_sim::MigrationSpec::new(0, 0));
    run_equal_pairs(
        iters,
        |side| {
            let placement = match side {
                Side::A => TracePlacement::AllDdr,
                Side::B => disabled,
            };
            let mut sim = TraceSim::new(&mcfg, cfg.cores, placement, ByteSize::mib(8));
            let run = timed_streaming(cfg, &mut sim);
            assert!(
                sim.migration_stats().is_none(),
                "a period-0 spec must not build a scheduler"
            );
            run
        },
        "disabled migration must replay bit-identically to AllDdr",
    )
}

/// Measure what the time-series sampler costs a streaming replay:
/// `iters` alternating sampling-off (A) / sampling-on (B) pairs,
/// asserting each pair's reports bit-identical — sampling is
/// observation, never simulation.
pub(crate) fn measure_sampling_overhead(cfg: &ReplayConfig, iters: usize) -> Paired {
    let interval = profile_timeseries_interval(cfg);
    run_equal_pairs(
        iters,
        |side| {
            let mut sim = cfg.sim();
            if side == Side::B {
                sim.enable_timeseries(interval, PROFILE_TIMESERIES_CAPACITY);
            }
            timed_streaming(cfg, &mut sim)
        },
        "sampling must replay bit-identically to unsampled",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_labels_parse_back() {
        // Every replay label `repro gate` and `repro profile` parse at
        // run time must parse here, and print back unchanged.
        let gates = crate::gate::table();
        let labels = gates
            .iter()
            .map(|g| g.config)
            .filter(|&c| c != "smoke")
            .chain([DEFAULT_PROFILE_LABEL]);
        for label in labels {
            let parsed = ReplayConfig::parse_label(label).expect("round-trips");
            assert_eq!(parsed.label(), label);
        }
        let profile = ReplayConfig::parse_label(DEFAULT_PROFILE_LABEL).unwrap();
        assert_eq!(
            (profile.kind, profile.cores, profile.accesses_per_core),
            (TraceKind::Stream, 64, 50_000)
        );
        // `repro gate NAME` selects by name, so no two rows may share one.
        let mut names: Vec<_> = gates.iter().map(|g| g.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), gates.len(), "duplicate gate name");
        assert!(ReplayConfig::parse_label("stream").is_err());
        assert!(ReplayConfig::parse_label("stream_64").is_err());
        assert!(ReplayConfig::parse_label("warp_8x100").is_err());
        assert!(ReplayConfig::parse_label("stream_0x100").is_err());
        assert!(ReplayConfig::parse_label("stream_8x0").is_err());
        // A label past the advisor's admission limit still parses:
        // only the advisor caches a whole classified trace.
        let over_cap = knl::classified::CLASSIFY_CACHE_MAX_ACCESSES / 64 + 1;
        let big = format!("stream_64x{over_cap}");
        assert_eq!(ReplayConfig::parse_label(&big).unwrap().label(), big);
        // Kind names match case-insensitively.
        assert_eq!(
            ReplayConfig::parse_label("XSBench_4x10").unwrap().label(),
            "xsbench_4x10"
        );
    }

    #[test]
    fn profile_run_passes_both_checkers() {
        let cfg = ReplayConfig {
            kind: TraceKind::Stream,
            cores: 4,
            accesses_per_core: 500,
        };
        let run = simfabric::par::with_threads(2, || profile_config(&cfg));
        assert!(run.accesses > 0 && run.seconds > 0.0);
        let trace = hybridmem::check_chrome_trace(&run.chrome_jsonl).expect("valid trace");
        for phase in ["generate", "classify", "merge", "finish"] {
            assert!(
                trace.span_names.iter().any(|n| n == phase),
                "missing span {phase:?} in {:?}",
                trace.span_names
            );
        }
        assert!(trace.counter_series >= 5, "{}", trace.counter_series);
        let metrics = hybridmem::check_metrics(&run.metrics).expect("valid metrics");
        assert!(metrics.total() >= 5);
        let ts = hybridmem::check_timeseries(&run.timeseries_jsonl).expect("valid timeseries");
        assert_eq!(ts.interval, profile_timeseries_interval(&cfg));
        assert!(ts.windows > 1, "{} windows", ts.windows);
        assert!(
            ts.series.iter().any(|s| s == "dram.ddr.lines"),
            "{:?}",
            ts.series
        );
    }

    #[test]
    fn sampling_overhead_pairs_are_bit_identical() {
        let cfg = ReplayConfig {
            kind: TraceKind::Gups,
            cores: 2,
            accesses_per_core: 400,
        };
        let m = simfabric::par::with_threads(2, || measure_sampling_overhead(&cfg, 2));
        assert_eq!(m.ratios.len(), 2);
        assert!(m.median_ratio().is_finite() && m.median_ratio() > 0.0);
    }

    #[test]
    fn overhead_measurement_produces_finite_ratio() {
        let cfg = ReplayConfig {
            kind: TraceKind::Stream,
            cores: 2,
            accesses_per_core: 200,
        };
        let m = simfabric::par::with_threads(2, || measure_overhead(&cfg, 2));
        assert!(m.best_secs.iter().all(|s| s.is_finite()));
        assert_eq!(m.ratios.len(), 2);
        assert!(m.median_ratio() > 0.0 && m.median_ratio().is_finite());
    }
}
