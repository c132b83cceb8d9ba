//! The repository benchmark: four workloads over the simulator's
//! public API, each timed untraced for the end-to-end metrics and then
//! run once more as explicit layer calls wrapped in benchmark-side
//! spans for the per-layer metrics. See `README.md` for the workloads,
//! the metric tables and the recorded baselines.

pub mod advisor;
pub mod digest;
pub mod expected;
pub mod replay;
pub mod spans;
pub mod stats;
pub mod sweep;

use simfabric::telemetry::SpanRecord;
use spans::{coverage, totals_by_name, Open, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;
use workloads::tracegen::TraceKind;

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Workload names, in run order.
pub const WORKLOADS: [&str; 4] = [
    "replay_stream",
    "replay_random",
    "sweep_migrate",
    "advisor_serve",
];

/// Seed used when `--seed` is not given; the expected digests are
/// recorded at it.
pub const DEFAULT_SEED: u64 = 0xBE9C;

/// Environment knobs that would change what is measured. The benchmark
/// sets workers and timing mode through the API and refuses to run
/// with any of these inherited.
pub const KNOBS: [&str; 8] = [
    "TRACESIM_THREADS",
    "TRACESIM_TIMING",
    "TRACESIM_PAR_WINDOW",
    "TRACESIM_MESH_BATCH",
    "TRACESIM_LOOKAHEAD_CHUNKS",
    "TRACESIM_CLASSIFY_CACHE_MB",
    "SWEEP_REUSE",
    "ADVISOR_CACHE_MB",
];

/// End-to-end metrics (name, unit), reported by every workload from
/// its untraced passes.
pub const END_TO_END: [(&str, &str); 4] = [
    ("macc_per_s", "Macc/s"),
    ("op_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (name, unit), reported by every workload from its
/// traced pass; a layer the workload's traced pass does not call
/// reports 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("tracegen.ns_per_access", "ns"),
    ("classify.ns_per_access.flat", "ns"),
    ("classify.ns_per_access.cache", "ns"),
    ("classify.memory_fraction.flat", "ratio"),
    ("classify.memory_fraction.cache", "ratio"),
    ("classify.msc_hit_fraction", "ratio"),
    ("timing.ns_per_access.ddr", "ns"),
    ("timing.ns_per_access.hbm", "ns"),
    ("timing.ns_per_access.cache", "ns"),
    ("timing.gang_ns_per_access.ddr", "ns"),
    ("timing.gang_ns_per_access.hbm", "ns"),
    ("timing.gang_ns_per_access.cache", "ns"),
    ("timing.gang_ops_per_flush.ddr", "ops/flush"),
    ("timing.gang_ops_per_flush.cache", "ops/flush"),
    ("timing.gang_bailed_out.ddr", "bool"),
    ("timing.gang_bailed_out.cache", "bool"),
    ("dram.ddr.row_hit_ratio", "ratio"),
    ("dram.hbm.row_hit_ratio", "ratio"),
    ("dram.ddr.bank_conflicts", "count"),
    ("dram.hbm.bank_conflicts", "count"),
    ("mshr.stalls", "count"),
    ("mesh.messages", "count"),
    ("pipeline.overlap_ratio", "ratio"),
    ("pipeline.consumer_stalls", "count"),
    ("pipeline.producer_stalls", "count"),
    ("pipeline.peak_buffer_bytes", "B"),
    ("sim.new_ms", "ms"),
    ("migrate.overhead_ns_per_access.t1024", "ns"),
    ("migrate.overhead_ns_per_access.t8192", "ns"),
    ("migrate.overhead_ns_per_access.t65536", "ns"),
    ("migrate.overhead_ns_per_access.t262144", "ns"),
    ("migrate.rebalances", "count"),
    ("migrate.moved_pages", "count"),
    ("classify_cache.hit_ratio", "ratio"),
    ("classify_cache.peak_mib", "MiB"),
    ("service.parse_us", "us"),
    ("service.canonicalize_us", "us"),
    ("service.hit_us", "us"),
    ("service.miss_ms", "ms"),
    ("service.miss_p95_ms", "ms"),
    ("service.respond_us", "us"),
    ("service.result_cache_hit_ratio", "ratio"),
    ("service.miss_classify_ms", "ms"),
    ("service.miss_replay_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.wall_ratio", "ratio"),
];

/// Workers for the untraced passes and the traced pass's inline
/// timing. One, not two: on the 2-vCPU host the benchmark was defined
/// on, two workers engage the concurrent timing gang, which made the
/// sweep 2.1x slower and spread the advisor's throughput 33% between
/// runs against 7% at one worker (see README.md).
pub const WORKERS: usize = 1;

/// Workers of the traced pass's gang timing replays, which size the
/// concurrent timing gang against inline timing.
pub const GANG_WORKERS: usize = 2;

/// Whether the host has the cores for the gang timing replays.
pub fn gang_host() -> bool {
    std::thread::available_parallelism().is_ok_and(|n| n.get() >= GANG_WORKERS)
}

/// Untraced passes every run makes, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;

/// One untraced pass of a workload.
#[derive(Debug, Default)]
pub struct Pass {
    /// Set-up seconds (not part of the timed phase).
    pub setup_s: f64,
    /// Simulated accesses the timed phase answered.
    pub accesses: u64,
    /// Host milliseconds of each timed op, in op order; the same ops
    /// in the same order in every pass.
    pub op_ms: Vec<f64>,
    /// Whether each timed op computed (false for advisor queries the
    /// result cache answered).
    pub computed: Vec<bool>,
    /// Digest of each op's simulated results, in op order.
    pub digests: Vec<u64>,
    /// Whether each op failed a check of its own, in op order.
    pub bad: Vec<bool>,
    /// Per-layer values only an untraced pass observes.
    pub layer: Vec<(&'static str, f64)>,
}

/// Op outcomes of a traced pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Check {
    /// Ops run.
    pub attempted: u64,
    /// Ops whose results did not match.
    pub failed: u64,
}

impl Check {
    /// Count one op, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// A benchmark workload.
pub trait Workload {
    /// Set up and run one untraced pass.
    fn pass(&mut self) -> Pass;

    /// Run the traced pass as explicit layer calls under `root`,
    /// checking its results against the untraced `passes` and filling
    /// the workload-specific per-layer metrics.
    fn traced(
        &mut self,
        tracer: &mut Tracer,
        root: &Open,
        passes: &[Pass],
        m: &mut Metrics,
    ) -> Check;
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds the untraced passes aim to fill.
    pub seconds: f64,
    /// Run the traced pass too.
    pub trace: bool,
    /// Test-scale inputs.
    pub smoke: bool,
}

impl Options {
    /// The scale name expected digests are recorded under.
    pub fn scale(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }

    /// Whether this run's results must match the expected digests:
    /// at the default seed, and at every seed for STREAM, whose trace
    /// does not depend on the seed.
    pub fn checks_expected(&self) -> bool {
        self.seed == DEFAULT_SEED || self.workload == "replay_stream"
    }
}

/// The workload `opts` names, at its scale and seed.
pub fn make_workload(opts: &Options) -> Result<Box<dyn Workload>, String> {
    let (s, seed) = (opts.smoke, opts.seed);
    Ok(match opts.workload.as_str() {
        "replay_stream" => Box::new(replay::Replay::new(
            TraceKind::Stream,
            if s { 8 } else { 64 },
            if s { 2_000 } else { 50_000 },
            seed,
        )),
        "replay_random" => Box::new(replay::Replay::new(
            TraceKind::Gups,
            if s { 8 } else { 64 },
            if s { 1_000 } else { 25_000 },
            seed,
        )),
        "sweep_migrate" => Box::new(sweep::Sweep::new(
            if s { 4 } else { 32 },
            if s { 1_024 } else { 8_192 },
            seed,
        )),
        "advisor_serve" => Box::new(advisor::Advisor::new(
            if s {
                &[TraceKind::Stream]
            } else {
                &TraceKind::ALL
            },
            if s { 24 } else { 600 },
            if s { 2 } else { 8 },
            if s { 300 } else { 4_000 },
            seed,
        )),
        other => return Err(format!("unknown workload {other:?}; known: {WORKLOADS:?}")),
    })
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops run (replays, sweep points, queries), traced pass included.
    pub attempted: u64,
    /// Ops whose results failed a check.
    pub failed: u64,
    /// Untraced passes made.
    pub passes: usize,
    /// Ops behind `op_p50_ms` (each one's median over the passes).
    pub computed_ops: usize,
    /// The first pass's per-op digests (what `--bless` records).
    pub digests: Vec<u64>,
    /// End-to-end metrics.
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Metrics,
    /// The traced pass's spans (traced runs only).
    pub spans: Vec<SpanRecord>,
    /// The spans and per-layer metrics as Chrome JSONL (traced runs
    /// only).
    pub trace_jsonl: String,
}

/// This process's peak resident set (VmHWM), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Each op's median host time over the passes, in op order, so a slow
/// stretch of the host that hits part of every pass does not move the
/// result. (The minimum spread less between runs while the host was
/// quiet and more while it was loaded; see README.md.)
pub fn median_op_ms(passes: &[Pass]) -> Vec<f64> {
    (0..passes.first().map_or(0, |p| p.op_ms.len()))
        .map(|i| {
            let times: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.op_ms.get(i).copied())
                .collect();
            stats::median(&times).value
        })
        .collect()
}

/// Run `opts`'s workload: untraced passes until `opts.seconds` would
/// be exceeded (at least [`MIN_PASSES`]), then, if asked, the traced
/// pass. Every pass's per-op digests must match the first pass's and,
/// when given, `expected`.
pub fn run(opts: &Options, expected: Option<&[u64]>) -> Result<Outcome, String> {
    let mut w = make_workload(opts)?;
    simfabric::par::with_threads(WORKERS, || {
        let cache_before = knl::with_global_classify_cache(|c| c.stats());
        let start = Instant::now();
        let mut passes: Vec<Pass> = Vec::new();
        let mut walls: Vec<f64> = Vec::new();
        let mut peak_rss = 0.0;
        while passes.len() < MIN_PASSES
            || start.elapsed().as_secs_f64() + stats::median(&walls).value <= opts.seconds
        {
            let t = Instant::now();
            passes.push(w.pass());
            walls.push(t.elapsed().as_secs_f64());
            // Read after a fixed amount of work: the allocator's high
            // water keeps creeping up with every further pass.
            if passes.len() == MIN_PASSES {
                peak_rss = peak_rss_mib();
            }
        }
        let mut out = Outcome {
            passes: passes.len(),
            digests: passes[0].digests.clone(),
            ..Outcome::default()
        };
        for p in &passes {
            for (i, d) in p.digests.iter().enumerate() {
                let matches = *d == passes[0].digests[i]
                    && expected.is_none_or(|e| e.len() == p.digests.len() && e[i] == *d);
                out.attempted += 1;
                out.failed += u64::from(p.bad[i] || !matches);
            }
        }

        let op_medians = median_op_ms(&passes);
        let computed_ms: Vec<f64> = op_medians
            .iter()
            .zip(&passes[0].computed)
            .filter(|(_, computed)| **computed)
            .map(|(ms, _)| *ms)
            .collect();
        let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
        let op_p50 = stats::median(&computed_ms);
        out.computed_ops = op_p50.n;
        let e = &mut out.end_to_end;
        e.insert(
            "macc_per_s",
            passes[0].accesses as f64 / op_medians.iter().sum::<f64>() / 1e3,
        );
        e.insert("op_p50_ms", op_p50.value);
        e.insert("setup_s", stats::median(&setups).value);
        e.insert("peak_rss_mib", peak_rss);
        if !opts.trace {
            return Ok(out);
        }

        let mut tracer = Tracer::new();
        let mut m = Metrics::new();
        let root = tracer.open(None);
        let check = w.traced(&mut tracer, &root, &passes, &mut m);
        tracer.close(root, "pass", 0);
        out.attempted += check.attempted;
        out.failed += check.failed;

        let records = tracer.log().records();
        let t = totals_by_name(records);
        let ns_per_access = |name: &str| -> Option<f64> {
            t.get(name)
                .filter(|e| e.1 > 0.0)
                .map(|&(us, acc, _)| us * 1e3 / acc)
        };
        for (metric, span) in [
            ("tracegen.ns_per_access", "tracegen"),
            ("classify.ns_per_access.flat", "classify.flat"),
            ("classify.ns_per_access.cache", "classify.cache"),
            ("timing.ns_per_access.ddr", "timing.ddr"),
            ("timing.ns_per_access.hbm", "timing.hbm"),
            ("timing.ns_per_access.cache", "timing.cache"),
            ("timing.gang_ns_per_access.ddr", "timing.gang.ddr"),
            ("timing.gang_ns_per_access.hbm", "timing.gang.hbm"),
            ("timing.gang_ns_per_access.cache", "timing.gang.cache"),
        ] {
            if let Some(v) = ns_per_access(span) {
                m.insert(metric, v);
            }
        }
        for (metric, period) in [
            ("migrate.overhead_ns_per_access.t1024", 1_024),
            ("migrate.overhead_ns_per_access.t8192", 8_192),
            ("migrate.overhead_ns_per_access.t65536", 65_536),
            ("migrate.overhead_ns_per_access.t262144", 262_144),
        ] {
            let migrated = ns_per_access(&format!("timing.migrated.t{period}"));
            if let (Some(mig), Some(ddr)) = (migrated, ns_per_access("timing.ddr")) {
                m.insert(metric, mig - ddr);
            }
        }
        if let Some(&(us, _, n)) = t.get("sim.new") {
            m.insert("sim.new_ms", us / n as f64 / 1e3);
        }
        let cache = knl::with_global_classify_cache(|c| (c.stats(), c.peak_bytes()));
        let hits = cache.0.hits - cache_before.hits;
        let lookups = hits + cache.0.misses - cache_before.misses;
        if lookups > 0 {
            m.insert("classify_cache.hit_ratio", hits as f64 / lookups as f64);
        }
        m.insert("classify_cache.peak_mib", cache.1 as f64 / (1 << 20) as f64);
        m.insert("trace.coverage", coverage(records));
        let traced_us = records
            .iter()
            .find(|r| r.name == "pass")
            .map_or(0.0, |r| r.dur_us);
        let wall = stats::median(&walls).value;
        if wall > 0.0 {
            m.insert("trace.wall_ratio", traced_us / 1e6 / wall);
        }
        for (name, _) in PER_LAYER {
            m.entry(name).or_insert(0.0);
        }
        let mut registry = simfabric::MetricsRegistry::new();
        for (name, v) in &m {
            registry.gauge(name, *v);
        }
        out.trace_jsonl = simfabric::telemetry::chrome_trace_jsonl(tracer.log(), &registry);
        out.spans = records.to_vec();
        out.per_layer = m;
        Ok(out)
    })
}

/// A JSON number with all its digits (non-finite values, which JSON
/// cannot carry, as 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`,
/// the latter holding every declared metric of `declared` with its
/// unit.
pub fn result_json(out: &Outcome, declared: &[(&str, &str)], values: &Metrics) -> String {
    let metrics: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}
