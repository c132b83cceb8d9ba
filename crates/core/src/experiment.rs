//! Experiment descriptors and the sweep runner.
//!
//! A sweep is the paper's unit of evaluation: one application, one
//! varying parameter (problem size or thread count), three memory
//! configurations. Points are independent, so the runner evaluates
//! them in parallel on scoped threads.

use knl::tracesim::{TracePlacement, TraceSim, TraceSimReport};
use knl::{Machine, MachineConfig, MachineError, MemSetup};
use simfabric::par;
use simfabric::ByteSize;
use workloads::dgemm::Dgemm;
use workloads::graph500::Graph500;
use workloads::gups::Gups;
use workloads::minife::MiniFe;
use workloads::stream::StreamBench;
use workloads::tracegen::TraceKind;
use workloads::xsbench::XsBench;
use workloads::PaperWorkload;

/// Which application a sweep runs — the constructible mirror of the
/// workload structs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppSpec {
    /// STREAM triad.
    Stream,
    /// DGEMM.
    Dgemm,
    /// MiniFE CG.
    MiniFe,
    /// GUPS.
    Gups,
    /// Graph500 BFS.
    Graph500,
    /// XSBench.
    XsBench,
}

impl AppSpec {
    /// Instantiate the workload at a given footprint.
    pub fn build(self, footprint: ByteSize) -> Box<dyn PaperWorkload + Send + Sync> {
        match self {
            AppSpec::Stream => Box::new(StreamBench::new(footprint)),
            AppSpec::Dgemm => Box::new(Dgemm::with_footprint(footprint)),
            AppSpec::MiniFe => Box::new(MiniFe::with_footprint(footprint)),
            AppSpec::Gups => Box::new(Gups::new(footprint)),
            AppSpec::Graph500 => Box::new(Graph500::with_footprint(footprint)),
            AppSpec::XsBench => Box::new(XsBench::with_footprint(footprint)),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AppSpec::Stream => "STREAM",
            AppSpec::Dgemm => "DGEMM",
            AppSpec::MiniFe => "MiniFE",
            AppSpec::Gups => "GUPS",
            AppSpec::Graph500 => "Graph500",
            AppSpec::XsBench => "XSBench",
        }
    }
}

/// One evaluated point.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// X-coordinate (GB for size sweeps, threads for thread sweeps).
    pub x: f64,
    /// Metric value; `None` when the configuration cannot run the
    /// point (HBM bind too small, DGEMM at 256 threads, …) — rendered
    /// as the paper's missing bars.
    pub value: Option<f64>,
}

/// A named series of measurements (one memory setup).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label ("DRAM", "HBM", "Cache Mode").
    pub label: String,
    /// Points in x order.
    pub points: Vec<Measurement>,
}

impl Series {
    /// The value at `x`, if present and runnable.
    pub(crate) fn value_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| (p.x - x).abs() < 1e-9)
            .and_then(|p| p.value)
    }
}

fn run_point(app: AppSpec, footprint: ByteSize, setup: MemSetup, threads: u32) -> Option<f64> {
    let workload = app.build(footprint);
    let mut machine = Machine::knl7210(setup, threads).ok()?;
    match workload.run_model(&mut machine) {
        Ok(v) => Some(v),
        Err(MachineError::Alloc(_)) | Err(MachineError::Invalid(_)) => None,
    }
}

/// A sweep over problem size at fixed thread count (the Fig. 2/4
/// shape).
#[derive(Debug, Clone, PartialEq)]
pub struct SizeSweep {
    /// Application under test.
    pub app: AppSpec,
    /// Footprints to evaluate, in GB (decimal axis labels as the paper
    /// prints them; converted via GiB internally).
    pub sizes_gb: Vec<f64>,
    /// OpenMP thread count (64 in the paper's Fig. 4).
    pub threads: u32,
    /// Memory setups to compare.
    pub setups: Vec<MemSetup>,
}

impl SizeSweep {
    /// The paper's default: 64 threads, all three setups.
    pub fn paper(app: AppSpec, sizes_gb: Vec<f64>) -> Self {
        SizeSweep {
            app,
            sizes_gb,
            threads: 64,
            setups: MemSetup::PAPER_SETUPS.to_vec(),
        }
    }

    /// Evaluate every (setup × size) point in parallel.
    pub fn run(&self) -> Vec<Series> {
        par::par_map(&self.setups, |&setup| Series {
            label: setup.label().to_string(),
            points: par::par_map(&self.sizes_gb, |&gb| Measurement {
                x: gb,
                value: run_point(self.app, ByteSize::gib_f(gb), setup, self.threads),
            }),
        })
    }
}

/// A sweep over thread count at fixed problem size (the Fig. 5/6
/// shape).
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadSweep {
    /// Application under test.
    pub app: AppSpec,
    /// Fixed footprint in GB.
    pub size_gb: f64,
    /// Thread counts (64/128/192/256 in the paper).
    pub threads: Vec<u32>,
    /// Memory setups to compare.
    pub setups: Vec<MemSetup>,
}

impl ThreadSweep {
    /// The paper's default thread ladder over all three setups.
    pub fn paper(app: AppSpec, size_gb: f64) -> Self {
        ThreadSweep {
            app,
            size_gb,
            threads: vec![64, 128, 192, 256],
            setups: MemSetup::PAPER_SETUPS.to_vec(),
        }
    }

    /// Evaluate every (setup × threads) point in parallel.
    pub fn run(&self) -> Vec<Series> {
        par::par_map(&self.setups, |&setup| Series {
            label: setup.label().to_string(),
            points: par::par_map(&self.threads, |&t| Measurement {
                x: t as f64,
                value: run_point(self.app, ByteSize::gib_f(self.size_gb), setup, t),
            }),
        })
    }
}

/// One replayed (trace generator × memory setup) point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceReplay {
    /// Which generator produced the trace.
    pub kind: TraceKind,
    /// The memory setup it was replayed under.
    pub setup: MemSetup,
    /// The trace simulator's report.
    pub report: TraceSimReport,
}

/// A sweep replaying workload-shaped traces through the line-accurate
/// trace simulator — the trace-level complement of the analytic
/// [`SizeSweep`]/[`ThreadSweep`]. Each kind is classified once per
/// hierarchy config into a bounded artifact (streamed from
/// [`TraceKind::source`], never materializing the full trace) and
/// each setup replays the artifact through the timing stage
/// (`crate::sweep`). The worker count comes from
/// [`par::num_threads`] and the output is bit-identical at any
/// setting.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSweep {
    /// Trace generators to replay.
    pub kinds: Vec<TraceKind>,
    /// Simulated (and trace-emitting) core count.
    pub cores: u32,
    /// Approximate per-core trace length.
    pub accesses_per_core: u64,
    /// Generator seed.
    pub seed: u64,
    /// Memory setups to compare.
    pub setups: Vec<MemSetup>,
}

impl TraceSweep {
    /// All five generators over the paper's three memory setups.
    pub fn paper(cores: u32, accesses_per_core: u64, seed: u64) -> Self {
        TraceSweep {
            kinds: TraceKind::ALL.to_vec(),
            cores,
            accesses_per_core,
            seed,
            setups: MemSetup::PAPER_SETUPS.to_vec(),
        }
    }

    fn placement(setup: MemSetup) -> TracePlacement {
        match setup {
            MemSetup::HbmOnly => TracePlacement::AllHbm,
            _ => TracePlacement::AllDdr,
        }
    }

    /// Replay every (kind × setup) point. Each kind classifies once
    /// through the global classify cache (every setup, cache mode
    /// included, shares one artifact) and the timing stage replays the
    /// artifact per setup — see
    /// `crate::sweep`. The replays themselves are internally
    /// parallel, so points run in sequence rather than oversubscribing
    /// the worker pool.
    pub fn run(&self) -> Vec<TraceReplay> {
        self.run_inner(false).0
    }

    /// [`run`](Self::run) with telemetry enabled on every point's
    /// simulator, returning each point's metrics folded into one
    /// registry under a `{kind}.{setup}.` prefix (e.g.
    /// `stream.dram.mesh.messages`). Telemetry never changes replay
    /// results, so the reports match [`run`](Self::run) exactly.
    pub fn run_with_metrics(&self) -> (Vec<TraceReplay>, simfabric::MetricsRegistry) {
        self.run_inner(true)
    }

    /// Metric-name prefix of one (kind × setup) point.
    pub(crate) fn point_prefix(kind: TraceKind, setup: MemSetup) -> String {
        format!(
            "{}.{}.",
            kind.name().to_lowercase(),
            setup.label().to_lowercase().replace(' ', "_")
        )
    }

    fn run_inner(&self, telemetry: bool) -> (Vec<TraceReplay>, simfabric::MetricsRegistry) {
        let mut out = Vec::with_capacity(self.kinds.len() * self.setups.len());
        let mut metrics = simfabric::MetricsRegistry::new();
        let msc = ByteSize::mib(8);
        for &kind in &self.kinds {
            let spec = crate::sweep::TraceSpec::from_kind(
                kind,
                self.cores,
                self.accesses_per_core,
                self.seed,
            );
            for &setup in &self.setups {
                let cfg = MachineConfig::knl7210(setup, 64);
                let mut sim = TraceSim::new(&cfg, self.cores, Self::placement(setup), msc);
                if telemetry {
                    sim.enable_telemetry();
                }
                let report = crate::sweep::replay_into(&mut sim, &spec, &cfg, msc);
                if telemetry {
                    metrics
                        .merge_prefixed(&Self::point_prefix(kind, setup), &sim.metrics_registry());
                }
                out.push(TraceReplay {
                    kind,
                    setup,
                    report,
                });
            }
        }
        (out, metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_sweep_produces_three_series_with_missing_hbm_points() {
        let sweep = SizeSweep::paper(AppSpec::Stream, vec![6.0, 24.0]);
        let series = sweep.run();
        assert_eq!(series.len(), 3);
        let hbm = series.iter().find(|s| s.label == "HBM").unwrap();
        assert!(hbm.value_at(6.0).is_some());
        assert!(hbm.value_at(24.0).is_none(), "24 GB cannot fit HBM");
        let dram = series.iter().find(|s| s.label == "DRAM").unwrap();
        assert!(dram.value_at(24.0).is_some());
    }

    #[test]
    fn thread_sweep_covers_ladder() {
        let sweep = ThreadSweep::paper(AppSpec::Gups, 4.0);
        let series = sweep.run();
        for s in &series {
            assert_eq!(s.points.len(), 4);
            assert!(s.points.iter().all(|p| p.value.is_some()), "{}", s.label);
        }
    }

    #[test]
    fn dgemm_256_threads_is_a_missing_point() {
        let sweep = ThreadSweep::paper(AppSpec::Dgemm, 6.0);
        let series = sweep.run();
        let dram = series.iter().find(|s| s.label == "DRAM").unwrap();
        assert!(dram.value_at(256.0).is_none());
        assert!(dram.value_at(192.0).is_some());
    }

    #[test]
    fn appspec_roundtrip_names() {
        for app in [
            AppSpec::Stream,
            AppSpec::Dgemm,
            AppSpec::MiniFe,
            AppSpec::Gups,
            AppSpec::Graph500,
            AppSpec::XsBench,
        ] {
            assert!(!app.name().is_empty());
            let w = app.build(ByteSize::gib(1));
            assert_eq!(w.name(), app.name());
        }
    }

    #[test]
    fn trace_sweep_covers_kinds_by_setups_and_is_worker_independent() {
        let sweep = TraceSweep {
            kinds: vec![TraceKind::Stream, TraceKind::Gups],
            cores: 4,
            accesses_per_core: 200,
            seed: 42,
            setups: vec![MemSetup::DramOnly, MemSetup::HbmOnly],
        };
        let one = par::with_threads(1, || sweep.run());
        let eight = par::with_threads(8, || sweep.run());
        assert_eq!(one.len(), 4);
        assert_eq!(one, eight, "replay must not depend on worker count");
        for r in &one {
            assert!(r.report.accesses > 0, "{:?}", r);
        }
    }

    #[test]
    fn trace_sweep_metrics_ride_along_without_changing_reports() {
        let sweep = TraceSweep {
            kinds: vec![TraceKind::Stream],
            cores: 4,
            accesses_per_core: 200,
            seed: 42,
            setups: vec![MemSetup::DramOnly, MemSetup::CacheMode],
        };
        let plain = sweep.run();
        let (with_tel, metrics) = sweep.run_with_metrics();
        assert_eq!(plain, with_tel, "telemetry must not change replays");
        assert_eq!(
            TraceSweep::point_prefix(TraceKind::Stream, MemSetup::CacheMode),
            "stream.cache_mode."
        );
        for r in &plain {
            let key = format!(
                "{}shard.accesses",
                TraceSweep::point_prefix(r.kind, r.setup)
            );
            match metrics.get(&key) {
                Some(simfabric::MetricValue::Counter(n)) => {
                    assert_eq!(*n, r.report.accesses, "{key}")
                }
                other => panic!("{key}: {other:?}"),
            }
        }
    }

    #[test]
    fn series_helpers() {
        let s = Series {
            label: "X".into(),
            points: vec![
                Measurement {
                    x: 1.0,
                    value: Some(5.0),
                },
                Measurement {
                    x: 2.0,
                    value: None,
                },
                Measurement {
                    x: 3.0,
                    value: Some(9.0),
                },
            ],
        };
        assert_eq!(s.value_at(1.0), Some(5.0));
        assert_eq!(s.value_at(2.0), None);
        assert_eq!(s.value_at(7.0), None);
    }
}
