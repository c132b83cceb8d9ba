//! `replay_stream` / `replay_random`: one trace replayed through
//! `replay_streaming` under DDR (flat, all-DDR), MCDRAM (flat,
//! all-HBM) and cache mode (8 MiB memory-side cache), each replay on a
//! fresh simulator so simulated caches start empty.

use crate::spans::{totals_by_name, Open, Tracer};
use crate::{digest, gang_host, Check, Metrics, Pass, Workload, GANG_WORKERS, WORKERS};
use knl::classified::ClassifiedTrace;
use knl::tracesim::{TimingMode, TracePlacement, TraceSim, TraceSimReport};
use knl::{MachineConfig, MemSetup};
use simfabric::telemetry::MetricValue;
use simfabric::ByteSize;
use std::time::Instant;
use workloads::tracegen::{collect, replay_streaming, TraceKind};

/// Memory-side cache capacity of the cache-mode replay (the trace's
/// footprint is 64 MiB or more, so the cache overflows).
const MSC: ByteSize = ByteSize::mib(8);

/// The three memory configurations, in op order.
const CONFIGS: [&str; 3] = ["ddr", "hbm", "cache"];

fn machine(config: &str) -> (MachineConfig, TracePlacement) {
    match config {
        "ddr" => (
            MachineConfig::knl7210(MemSetup::DramOnly, 64),
            TracePlacement::AllDdr,
        ),
        "hbm" => (
            MachineConfig::knl7210(MemSetup::HbmOnly, 64),
            TracePlacement::AllHbm,
        ),
        _ => (
            MachineConfig::knl7210(MemSetup::CacheMode, 64),
            TracePlacement::AllDdr,
        ),
    }
}

fn new_sim(cores: u32, config: &str) -> TraceSim {
    let (cfg, placement) = machine(config);
    TraceSim::new(&cfg, cores, placement, MSC)
}

fn counter(sim: &TraceSim, name: &str) -> f64 {
    match sim.metrics_registry().get(name) {
        Some(MetricValue::Counter(n)) => *n as f64,
        _ => 0.0,
    }
}

/// One replay workload: a generator at a core count and length.
pub struct Replay {
    kind: TraceKind,
    cores: u32,
    per_core: u64,
    seed: u64,
}

impl Replay {
    /// A replay of `kind` over `cores` × `per_core` accesses.
    pub fn new(kind: TraceKind, cores: u32, per_core: u64, seed: u64) -> Self {
        Replay {
            kind,
            cores,
            per_core,
            seed,
        }
    }
}

/// Replay `ct` through `sim` in the default (concurrent) timing mode as
/// a span `timing.<point>`, or, with `gang`, on [`GANG_WORKERS`]
/// workers, where the concurrent gang engages, as `timing.gang.<point>`.
pub fn timed_replay(
    tracer: &mut Tracer,
    root: &Open,
    sim: &mut TraceSim,
    ct: &ClassifiedTrace,
    point: &str,
    gang: bool,
) -> TraceSimReport {
    sim.set_timing_mode(Some(TimingMode::Concurrent));
    let (name, workers) = if gang {
        (format!("timing.gang.{point}"), GANG_WORKERS)
    } else {
        (format!("timing.{point}"), WORKERS)
    };
    tracer.time(root, &name, ct.accesses(), || {
        simfabric::par::with_threads(workers, || sim.run_classified(ct))
    })
}

impl Workload for Replay {
    fn pass(&mut self) -> Pass {
        let mut pass = Pass::default();
        let t0 = Instant::now();
        let sims: Vec<TraceSim> = CONFIGS.iter().map(|c| new_sim(self.cores, c)).collect();
        pass.setup_s = t0.elapsed().as_secs_f64();
        let (mut consumer, mut producer, mut peak) = (0.0, 0.0, 0.0f64);
        for mut sim in sims {
            let t = Instant::now();
            let mut source = self.kind.source(self.cores, self.per_core, self.seed);
            let report = replay_streaming(&mut sim, source.as_mut());
            let dt = t.elapsed().as_secs_f64();
            pass.op_ms.push(dt * 1e3);
            pass.computed.push(true);
            pass.accesses += report.accesses;
            pass.digests.push(digest::replay(&report, &sim));
            pass.bad.push(report.accesses == 0);
            let pipe = sim.last_pipe_stats();
            consumer += pipe.consumer_stalls as f64;
            producer += pipe.producer_stalls as f64;
            peak = peak.max(sim.last_peak_trace_buffer_bytes() as f64);
        }
        pass.layer = vec![
            ("pipeline.consumer_stalls", consumer),
            ("pipeline.producer_stalls", producer),
            ("pipeline.peak_buffer_bytes", peak),
        ];
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
        let trace = tracer.time(root, "tracegen", self.cores as u64 * self.per_core, || {
            collect(
                self.kind
                    .source(self.cores, self.per_core, self.seed)
                    .as_mut(),
            )
        });
        let n = trace.len() as u64;
        let spec = self.kind.spec(self.cores, self.per_core, self.seed);
        let build = |config: &str| {
            ClassifiedTrace::build_from_trace(&machine(config).0, self.cores, MSC, &spec, &trace)
        };
        let flat = tracer.time(root, "classify.flat", n, || build("ddr"));
        let cache = tracer.time(root, "classify.cache", n, || build("cache"));
        drop(trace);
        let [_, _, flat_mem] = level_fractions(&flat);
        let [_, msc_hit, cache_mem] = level_fractions(&cache);
        m.insert("classify.memory_fraction.flat", flat_mem);
        m.insert("classify.memory_fraction.cache", cache_mem);
        m.insert("classify.msc_hit_fraction", msc_hit);

        let mut device = DeviceTotals::default();
        for gang in [false, true] {
            if gang && !gang_host() {
                continue;
            }
            for (op, config) in CONFIGS.iter().enumerate() {
                let ct = if *config == "cache" { &cache } else { &flat };
                let mut sim = tracer.time(root, "sim.new", 0, || new_sim(self.cores, config));
                let report = timed_replay(tracer, root, &mut sim, ct, config, gang);
                // The classified replay must reproduce the streaming
                // replay of the untraced passes bit for bit.
                check.op(digest::replay(&report, &sim) == passes[0].digests[op]);
                if !gang {
                    device.add(&sim);
                } else if *config != "hbm" {
                    gang_metrics(m, config, &sim);
                }
            }
        }
        device.report(m);

        // Serial-equivalent layer time of one untraced pass (three
        // generations, three classifications, three timing replays)
        // over its measured replay time: above 1 means the streaming
        // pipeline overlaps its stages.
        let t = totals_by_name(tracer.log().records());
        let us = |name: &str| t.get(name).map_or(0.0, |e| e.0);
        let serial_us = 3.0 * us("tracegen")
            + 2.0 * us("classify.flat")
            + us("classify.cache")
            + CONFIGS
                .iter()
                .map(|c| us(&format!("timing.{c}")))
                .sum::<f64>();
        let replay_us = crate::median_op_ms(passes).iter().sum::<f64>() * 1e3;
        if replay_us > 0.0 {
            m.insert("pipeline.overlap_ratio", serial_us / replay_us);
        }
        if let Some(last) = passes.last() {
            m.extend(last.layer.iter().copied());
        }
        check
    }
}

/// Shares of classified accesses that hit the memory-side cache or
/// went to memory, indexed [L2-or-better, MSC hit, memory].
pub fn level_fractions(ct: &ClassifiedTrace) -> [f64; 3] {
    let h = ct.level_hits();
    let n = ct.accesses().max(1) as f64;
    [(h[0] + h[1]) as f64 / n, h[2] as f64 / n, h[3] as f64 / n]
}

/// Record the concurrent timing gang's counters for `config`, from a
/// gang replay.
pub fn gang_metrics(m: &mut Metrics, config: &str, sim: &TraceSim) {
    let s = sim.last_timing_stats();
    let per_flush = if s.flushes > 0 {
        s.ops as f64 / s.flushes as f64
    } else {
        0.0
    };
    let (ops, bailed) = match config {
        "ddr" => (
            "timing.gang_ops_per_flush.ddr",
            "timing.gang_bailed_out.ddr",
        ),
        _ => (
            "timing.gang_ops_per_flush.cache",
            "timing.gang_bailed_out.cache",
        ),
    };
    m.insert(ops, per_flush);
    m.insert(bailed, s.bailed_out as u64 as f64);
}

/// Simulated device counters summed over a traced pass's
/// default-mode timing replays.
#[derive(Debug, Default)]
pub struct DeviceTotals {
    ddr: [u64; 2],
    hbm: [u64; 2],
    ddr_conflicts: u64,
    hbm_conflicts: u64,
    mshr_stalls: f64,
    mesh_messages: u64,
}

impl DeviceTotals {
    /// Add one finished replay's counters.
    pub fn add(&mut self, sim: &TraceSim) {
        let (d, h) = (sim.ddr_stats(), sim.hbm_stats());
        self.ddr[0] += d.row_hits.get();
        self.ddr[1] += d.total();
        self.hbm[0] += h.row_hits.get();
        self.hbm[1] += h.total();
        self.ddr_conflicts += d.bank_conflicts.get();
        self.hbm_conflicts += h.bank_conflicts.get();
        self.mshr_stalls += counter(sim, "mshr.stalls");
        self.mesh_messages += sim.mesh_stats().messages.get();
    }

    /// Write the totals as per-layer metrics.
    pub fn report(&self, m: &mut Metrics) {
        let ratio = |[hits, total]: [u64; 2]| {
            if total > 0 {
                hits as f64 / total as f64
            } else {
                0.0
            }
        };
        m.insert("dram.ddr.row_hit_ratio", ratio(self.ddr));
        m.insert("dram.hbm.row_hit_ratio", ratio(self.hbm));
        m.insert("dram.ddr.bank_conflicts", self.ddr_conflicts as f64);
        m.insert("dram.hbm.bank_conflicts", self.hbm_conflicts as f64);
        m.insert("mshr.stalls", self.mshr_stalls);
        m.insert("mesh.messages", self.mesh_messages as f64);
    }
}
