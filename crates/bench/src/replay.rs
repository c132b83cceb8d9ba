//! Trace-replay throughput benchmark: times the sequential and
//! streaming replay paths over the bundled trace generators and
//! reports accesses/second plus peak trace-buffer bytes.
//!
//! This backs both the `trace_replay` bench group and the
//! `repro bench-replay` subcommand, which writes
//! `BENCH_trace_replay.json` so the replay-performance trajectory is
//! tracked in-tree from change to change. The two paths are bit-identical by
//! contract (`tests/parallel_equivalence.rs`); [`run_config`] asserts
//! report equality as a cheap guard, so a benchmark run can never
//! silently time a diverged engine.

use crate::gate::{run_equal_pairs, timed, Paired, Side};
use hybridmem::json::Json;
use hybridmem::service::parse_workload;
use knl::tracesim::{worker_threads, TracePlacement, TraceSim, TraceSimReport};
use knl::{MachineConfig, MemSetup};
use simfabric::ByteSize;
use std::time::Instant;
use workloads::tracegen::{replay_streaming, TraceKind};

/// Seed shared by every replay-bench configuration.
pub const BENCH_SEED: u64 = 0xBE9C;

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
    /// configuration (`repro profile stream_64x50000`) under the
    /// advisor's admission rules ([`parse_workload`]). Kind names
    /// match case-insensitively; errors describe the expected shape.
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

/// The bundled benchmark configurations, largest first. The leading
/// entry (STREAM, 64 cores, 50 k accesses/core — 3.2 M accesses) is
/// the acceptance config the ≥ 1.5× streaming-throughput bar is
/// measured on.
pub fn standard_configs() -> Vec<ReplayConfig> {
    use TraceKind::*;
    vec![
        ReplayConfig {
            kind: Stream,
            cores: 64,
            accesses_per_core: 50_000,
        },
        ReplayConfig {
            kind: Gups,
            cores: 64,
            accesses_per_core: 25_000,
        },
        ReplayConfig {
            kind: XsBench,
            cores: 64,
            accesses_per_core: 25_000,
        },
        ReplayConfig {
            kind: Bfs,
            cores: 64,
            accesses_per_core: 25_000,
        },
        // Chase is single-core by construction: the streaming merge
        // must buffer the whole classified trace (documented worst
        // case), so keep it modest.
        ReplayConfig {
            kind: Chase,
            cores: 8,
            accesses_per_core: 25_000,
        },
    ]
}

/// Tiny configurations for the CI smoke run (seconds, not minutes).
pub fn smoke_configs() -> Vec<ReplayConfig> {
    use TraceKind::*;
    vec![
        ReplayConfig {
            kind: Stream,
            cores: 8,
            accesses_per_core: 2_000,
        },
        ReplayConfig {
            kind: Gups,
            cores: 8,
            accesses_per_core: 1_000,
        },
    ]
}

/// One timed path of a configuration.
#[derive(Debug, Clone)]
pub struct PathMeasurement {
    /// `"sequential"` or `"streaming"`.
    pub path: &'static str,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Millions of accesses replayed per second.
    pub macc_per_s: f64,
    /// Peak bytes of trace buffered inside the replay pipeline.
    pub peak_buffer_bytes: u64,
}

/// Both paths of one configuration.
#[derive(Debug, Clone)]
pub struct ReplayMeasurement {
    /// The configuration measured.
    pub config: ReplayConfig,
    /// Total accesses in the trace.
    pub accesses: u64,
    /// Sequential, then streaming.
    pub paths: Vec<PathMeasurement>,
}

impl ReplayMeasurement {
    /// Streaming throughput over sequential throughput.
    pub fn streaming_speedup(&self) -> f64 {
        let get = |name| {
            self.paths
                .iter()
                .find(|p| p.path == name)
                .map(|p| p.macc_per_s)
                .unwrap_or(0.0)
        };
        let seq = get("sequential");
        if seq > 0.0 {
            get("streaming") / seq
        } else {
            0.0
        }
    }
}

/// Time both replay paths for one configuration.
///
/// The sequential path is timed replay-only (the trace is materialized
/// outside the timer — the pre-streaming pipeline's best case); the
/// streaming path is timed end-to-end *including* generation, since
/// overlapping generation with replay is the point.
pub fn run_config(cfg: &ReplayConfig) -> ReplayMeasurement {
    let trace = cfg
        .kind
        .generate(cfg.cores, cfg.accesses_per_core, BENCH_SEED);
    let n = trace.len() as u64;
    let mut paths = Vec::new();

    let mut seq = cfg.sim();
    let t0 = Instant::now();
    let seq_report = seq.run(&trace);
    paths.push(measure("sequential", t0.elapsed().as_secs_f64(), n, &seq));

    drop(trace);
    let mut stream_sim = cfg.sim();
    let t0 = Instant::now();
    let mut source = cfg
        .kind
        .source(cfg.cores, cfg.accesses_per_core, BENCH_SEED);
    let stream_report = replay_streaming(&mut stream_sim, source.as_mut());
    paths.push(measure(
        "streaming",
        t0.elapsed().as_secs_f64(),
        n,
        &stream_sim,
    ));

    assert_eq!(
        stream_report, seq_report,
        "streaming diverged from sequential"
    );
    ReplayMeasurement {
        config: *cfg,
        accesses: n,
        paths,
    }
}

fn measure(path: &'static str, seconds: f64, accesses: u64, sim: &TraceSim) -> PathMeasurement {
    PathMeasurement {
        path,
        seconds,
        macc_per_s: accesses as f64 / seconds / 1e6,
        peak_buffer_bytes: sim.last_peak_trace_buffer_bytes() as u64,
    }
}

/// Run a set of configurations and render the `bench_trace_replay/v1`
/// report.
pub fn bench_report(configs: &[ReplayConfig]) -> Json {
    let rows: Vec<Json> = configs
        .iter()
        .map(|cfg| {
            let m = run_config(cfg);
            let paths: Vec<Json> = m
                .paths
                .iter()
                .map(|p| {
                    Json::obj([
                        ("path", Json::Str(p.path.to_string())),
                        ("seconds", Json::Num(p.seconds)),
                        ("macc_per_s", Json::Num(p.macc_per_s)),
                        ("peak_buffer_bytes", Json::Num(p.peak_buffer_bytes as f64)),
                    ])
                })
                .collect();
            Json::obj([
                ("label", Json::Str(m.config.label())),
                ("kind", Json::Str(m.config.kind.name().to_string())),
                ("cores", Json::Num(m.config.cores as f64)),
                ("accesses", Json::Num(m.accesses as f64)),
                ("paths", Json::Arr(paths)),
                (
                    "streaming_speedup_vs_sequential",
                    Json::Num(m.streaming_speedup()),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("schema", Json::Str("bench_trace_replay/v1".to_string())),
        ("worker_threads", Json::Num(worker_threads() as f64)),
        ("configs", Json::Arr(rows)),
    ])
}

/// Validate a `bench_trace_replay/v1` report (the CI smoke gate):
/// schema tag, non-empty config list, every config carrying the
/// sequential and streaming paths with positive throughput (older
/// reports also carry a `parallel` path, checked like any other), and
/// a well-formed
/// `sweep_reuse` section (the classify-once engine's speedup record)
/// and a well-formed `advisor_service` section (the batch query
/// engine's) — both required, so a regenerated report can never
/// silently drop them.
pub fn check_report(report: &Json) -> Result<(), String> {
    let schema = report.str_field("schema")?;
    if schema != "bench_trace_replay/v1" {
        return Err(format!("unexpected schema {schema:?}"));
    }
    report.num_field("worker_threads")?;
    let configs = report.arr_field("configs")?;
    if configs.is_empty() {
        return Err("empty configs array".to_string());
    }
    for cfg in configs {
        let label = cfg.str_field("label")?;
        cfg.str_field("kind")?;
        cfg.num_field("cores")?;
        cfg.num_field("streaming_speedup_vs_sequential")?;
        let accesses = cfg.num_field("accesses")?;
        if accesses <= 0.0 {
            return Err(format!("{label}: non-positive access count"));
        }
        let paths = cfg.arr_field("paths")?;
        let mut seen = Vec::new();
        for p in paths {
            let name = p.str_field("path")?;
            let rate = p.num_field("macc_per_s")?;
            p.num_field("seconds")?;
            p.num_field("peak_buffer_bytes")?;
            if rate <= 0.0 || !rate.is_finite() {
                return Err(format!("{label}/{name}: non-positive throughput {rate}"));
            }
            seen.push(name);
        }
        for want in ["sequential", "streaming"] {
            if !seen.iter().any(|s| s == want) {
                return Err(format!("{label}: missing path {want:?}"));
            }
        }
    }
    let sweep = report
        .get("sweep_reuse")
        .ok_or("missing sweep_reuse section (regenerate with repro bench-replay)")?;
    crate::sweep::check_sweep_section(sweep)?;
    let advisor = report
        .get("advisor_service")
        .ok_or("missing advisor_service section (regenerate with repro bench-replay)")?;
    crate::advisor::check_advisor_section(advisor)?;
    // The history section is optional (fresh reports have none), but
    // when present it must be well-formed.
    crate::history::check_history_section(report)?;
    Ok(())
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
pub fn profile_timeseries_interval(cfg: &ReplayConfig) -> u64 {
    (cfg.cores as u64 * cfg.accesses_per_core / 64).max(1)
}

/// Windows the profile sampler retains (more than
/// [`profile_timeseries_interval`] produces, so profiles never drop).
pub const PROFILE_TIMESERIES_CAPACITY: usize = 128;

/// Profile one configuration's streaming replay with telemetry on,
/// producing both exporter outputs. Telemetry never changes replay
/// results, so the run is the same replay `bench_report` times — just
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

/// Telemetry-enabled streaming pass over `configs`, merging each
/// config's registry under its label prefix — the `--metrics`
/// companion to [`bench_report`], run separately so the timed paths
/// stay unobserved.
pub fn collect_metrics(configs: &[ReplayConfig]) -> Json {
    let mut merged = simfabric::MetricsRegistry::new();
    for cfg in configs {
        let mut sim = cfg.sim();
        sim.enable_telemetry();
        let mut source = cfg
            .kind
            .source(cfg.cores, cfg.accesses_per_core, BENCH_SEED);
        let _ = replay_streaming(&mut sim, source.as_mut());
        merged.merge_prefixed(&format!("{}.", cfg.label()), &sim.metrics_registry());
    }
    hybridmem::metrics_to_json(&merged)
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
pub fn measure_overhead(cfg: &ReplayConfig, iters: usize) -> Paired {
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
pub fn measure_migration_overhead(cfg: &ReplayConfig, iters: usize) -> Paired {
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
pub fn measure_sampling_overhead(cfg: &ReplayConfig, iters: usize) -> Paired {
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
    fn labels_are_stable() {
        assert_eq!(standard_configs()[0].label(), "stream_64x50000");
        assert_eq!(smoke_configs()[0].label(), "stream_8x2000");
    }

    #[test]
    fn smoke_report_round_trips_and_validates() {
        let sweep_cfg = crate::sweep::SweepBenchConfig {
            kind: TraceKind::Stream,
            cores: 2,
            accesses_per_core: 200,
            periods: vec![100],
            budget_pages: 16,
        };
        let advisor_cfg = crate::advisor::AdvisorBenchConfig {
            queries: 8,
            kinds: vec![TraceKind::Stream],
            budgets_pages: vec![8, 16],
            cores: 2,
            accesses_per_core: 150,
        };
        let report = simfabric::par::with_threads(2, || {
            crate::advisor::bench_report_with_service(
                &[ReplayConfig {
                    kind: TraceKind::Stream,
                    cores: 4,
                    accesses_per_core: 500,
                }],
                &sweep_cfg,
                &advisor_cfg,
                1,
            )
        });
        check_report(&report).expect("fresh report validates");
        let parsed = hybridmem::json::parse(&report.to_pretty()).expect("parses");
        check_report(&parsed).expect("parsed report validates");
        // A report with the sweep section but no advisor section is
        // rejected too.
        let sweep_only = crate::sweep::bench_report_with_sweep(
            &[ReplayConfig {
                kind: TraceKind::Stream,
                cores: 2,
                accesses_per_core: 200,
            }],
            &sweep_cfg,
            1,
        );
        assert!(check_report(&sweep_only)
            .unwrap_err()
            .contains("missing advisor_service"));
        // A report without the sweep section is rejected outright.
        let bare = bench_report(&[ReplayConfig {
            kind: TraceKind::Stream,
            cores: 2,
            accesses_per_core: 200,
        }]);
        assert!(check_report(&bare)
            .unwrap_err()
            .contains("missing sweep_reuse"));
    }

    #[test]
    fn committed_report_with_parallel_rows_still_validates() {
        // The committed report predates the removal of the windowed
        // parallel path, so its configs carry a third `parallel` path.
        let text = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_trace_replay.json"
        ));
        let report = hybridmem::json::parse(text).expect("committed report parses");
        check_report(&report).expect("committed report validates");
    }

    #[test]
    fn check_report_rejects_malformed_inputs() {
        let bad = hybridmem::json::parse("{\"schema\": \"nope\"}").unwrap();
        assert!(check_report(&bad).is_err());
        let no_configs = Json::obj([
            ("schema", Json::Str("bench_trace_replay/v1".to_string())),
            ("worker_threads", Json::Num(1.0)),
            ("configs", Json::Arr(vec![])),
        ]);
        assert!(check_report(&no_configs).is_err());
        let missing_path = Json::obj([
            ("schema", Json::Str("bench_trace_replay/v1".to_string())),
            ("worker_threads", Json::Num(1.0)),
            (
                "configs",
                Json::Arr(vec![Json::obj([
                    ("label", Json::Str("x".into())),
                    ("kind", Json::Str("STREAM".into())),
                    ("cores", Json::Num(4.0)),
                    ("accesses", Json::Num(100.0)),
                    ("streaming_speedup_vs_sequential", Json::Num(1.0)),
                    ("paths", Json::Arr(vec![])),
                ])]),
            ),
        ]);
        assert!(check_report(&missing_path).is_err());
    }

    #[test]
    fn config_labels_parse_back() {
        for cfg in standard_configs().iter().chain(&smoke_configs()) {
            let parsed = ReplayConfig::parse_label(&cfg.label()).expect("round-trips");
            assert_eq!(parsed.label(), cfg.label());
            assert_eq!(parsed.cores, cfg.cores);
            assert_eq!(parsed.accesses_per_core, cfg.accesses_per_core);
        }
        assert!(ReplayConfig::parse_label("stream").is_err());
        assert!(ReplayConfig::parse_label("stream_64").is_err());
        assert!(ReplayConfig::parse_label("warp_8x100").is_err());
        assert!(ReplayConfig::parse_label("stream_0x100").is_err());
        assert!(ReplayConfig::parse_label("stream_8x0").is_err());
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
    fn collected_metrics_validate_and_carry_label_prefixes() {
        let configs = [
            ReplayConfig {
                kind: TraceKind::Stream,
                cores: 2,
                accesses_per_core: 300,
            },
            ReplayConfig {
                kind: TraceKind::Gups,
                cores: 2,
                accesses_per_core: 300,
            },
        ];
        let doc = simfabric::par::with_threads(2, || collect_metrics(&configs));
        hybridmem::check_metrics(&doc).expect("valid metrics");
        let metrics = match doc.get("metrics") {
            Some(Json::Obj(m)) => m,
            _ => panic!("metrics object"),
        };
        for cfg in &configs {
            let key = format!("{}.shard.accesses", cfg.label());
            assert!(metrics.contains_key(&key), "missing {key}");
        }
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
