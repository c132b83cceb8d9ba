//! The reference replay: an independent, deliberately naive model of
//! trace replay that the replay engines are checked against.
//!
//! `TraceSim::run_streaming` and `TraceSim::run_classified` share one
//! timing body, so comparing them with each other proves only that
//! their inputs and merge order agree. This model shares none of that
//! timing path. It calls the substrate models, which are checked
//! against naive references of their own (`Hierarchy`,
//! `MemorySideCache`, `DramModel`, `PageScheduler`, `MeshModel`'s path
//! averages and `TimeSeriesRecorder`), and spells out everything the
//! engines build on top of them:
//!
//! - per-core `VecDeque`s, with the next core picked by a linear scan
//!   for the least `(clock, core)`;
//! - the private-cache and translation latency summed from the
//!   `HierarchyConfig` fields;
//! - an insertion-ordered `Vec` for each core's MSHR file;
//! - the mesh's request and response half-trips added from the
//!   average round trip;
//! - cache mode's memory-side tag probe inline at each L2 miss, and a
//!   miss priced as three device accesses: tag probe, DDR fetch, fill;
//! - the page scheduler ticked at each access's pre-stall clock, then
//!   its transit floor applied to the arrival;
//! - each time-series queue wait computed per access as
//!   `served − arrive − floor`.
//!
//! The model calls no `knl::tracesim` function: it reads `TraceAccess`
//! fields and builds `TraceSimReport` and `ShardTotals` values only.
//! Only [`assert_matches`](ReferenceReplay::assert_matches) touches a
//! `TraceSim`, and only through the accessors that expose its results.

use cachesim::cache::AccessKind;
use cachesim::hierarchy::{Hierarchy, HierarchyConfig, LevelHit};
use cachesim::mcdram_cache::MemorySideCache;
use cachesim::mshr::MshrOutcome;
use cachesim::tlb::TlbOutcome;
use knl::tracesim::{ShardTotals, TraceAccess, TracePlacement, TraceSim, TraceSimReport};
use knl::{MachineConfig, MemSetup};
use memdev::bank::DramModel;
use memkind_sim::{MigrationCost, PageScheduler};
use mesh::MeshModel;
use simfabric::telemetry::timeseries::{SeriesId, TimeSeriesRecorder};
use simfabric::telemetry::MetricValue;
use simfabric::{ByteSize, Duration, SimTime};
use std::collections::VecDeque;

const LINE_BYTES: u64 = 64;

/// The KNL 7210's core clock: an independent access occupies its core
/// for one cycle.
const CORE_GHZ: f64 = 1.3;

/// One core's MSHR file: `(line, completion)` per outstanding fetch,
/// in allocation order, retired with `retain`.
struct NaiveMshr {
    entries: Vec<(u64, SimTime)>,
    allocations: u64,
    merges: u64,
    stalls: u64,
}

impl NaiveMshr {
    fn new() -> Self {
        NaiveMshr {
            entries: Vec::new(),
            allocations: 0,
            merges: 0,
            stalls: 0,
        }
    }

    fn register(&mut self, line: u64, now: SimTime, capacity: usize) -> MshrOutcome {
        self.entries.retain(|&(_, done)| done > now);
        if let Some(&(_, ready_at)) = self.entries.iter().find(|&&(l, _)| l == line) {
            self.merges += 1;
            return MshrOutcome::Merged { ready_at };
        }
        if self.entries.len() >= capacity {
            self.stalls += 1;
            let free_at = self.entries.iter().map(|&(_, done)| done).min().unwrap();
            return MshrOutcome::Stall { free_at };
        }
        self.allocations += 1;
        self.entries.push((line, SimTime::from_ps(u64::MAX)));
        MshrOutcome::Allocated
    }

    fn complete(&mut self, line: u64, done: SimTime) {
        self.entries.iter_mut().find(|e| e.0 == line).unwrap().1 = done;
    }

    /// Fetches still in flight after `now`.
    fn in_flight(&self, now: SimTime) -> usize {
        self.entries.iter().filter(|&&(_, done)| done > now).count()
    }
}

/// The sampled series, registered in the order the engines register
/// theirs, plus the per-device wait sums.
struct Sampling {
    rec: TimeSeriesRecorder,
    ids: [SeriesId; 8],
    /// Queue waits summed over the accesses each device served last:
    /// `[DDR, MCDRAM]`.
    wait: [u64; 2],
}

/// One replay model: construct it like a `TraceSim`, feed it whole
/// traces with [`replay`](Self::replay), and check an engine's
/// simulator against it with [`assert_matches`](Self::assert_matches).
/// State carries over between replays, as on a `TraceSim` that keeps
/// its hierarchies and memory-side caches warm.
pub struct ReferenceReplay {
    hier_cfg: HierarchyConfig,
    hierarchies: Vec<Hierarchy>,
    /// Cache mode: one memory-side cache per core.
    msc: Option<Vec<MemorySideCache>>,
    mshr_capacity: usize,
    mshrs: Vec<NaiveMshr>,
    clocks: Vec<SimTime>,
    totals: Vec<ShardTotals>,
    placement: TracePlacement,
    scheduler: Option<PageScheduler>,
    mesh: MeshModel,
    /// Round trip to a `[DDR, MCDRAM]` port, and its hop count.
    round_trip: [Duration; 2],
    hops: [u64; 2],
    ddr: DramModel,
    hbm: DramModel,
    sampling: Option<Sampling>,
}

impl ReferenceReplay {
    /// A model of `TraceSim::new(cfg, cores, placement, msc_capacity)`;
    /// `sampling` is `(interval, capacity)` of an
    /// `enable_timeseries` call made right after construction.
    pub fn new(
        cfg: &MachineConfig,
        cores: u32,
        placement: TracePlacement,
        msc_capacity: ByteSize,
        sampling: Option<(u64, usize)>,
    ) -> Self {
        let mut hier_cfg = HierarchyConfig::knl_flat(cfg.ddr.idle_latency);
        // The bank models time every device access.
        hier_cfg.memory_latency = Duration::ZERO;
        let cores = cores as usize;
        // Hybrid replays as cache mode at the capacity it is given.
        let cache_mode = matches!(cfg.setup, MemSetup::CacheMode | MemSetup::Hybrid);
        let mesh = MeshModel::knl(cfg.cluster);
        let (ddr, hbm) = (DramModel::ddr4_knl(), DramModel::mcdram_knl());
        ReferenceReplay {
            hier_cfg,
            hierarchies: (0..cores).map(|_| Hierarchy::new(hier_cfg)).collect(),
            msc: cache_mode.then(|| {
                (0..cores)
                    .map(|_| MemorySideCache::new(msc_capacity, LINE_BYTES as u32))
                    .collect()
            }),
            mshr_capacity: knl::calib::STREAM_MLP_PER_CORE_1T as usize,
            mshrs: (0..cores).map(|_| NaiveMshr::new()).collect(),
            clocks: vec![SimTime::ZERO; cores],
            totals: vec![ShardTotals::default(); cores],
            placement,
            scheduler: match placement {
                TracePlacement::Migrated(spec) if !cache_mode => {
                    PageScheduler::new(spec, MigrationCost::from_devices(&cfg.ddr, &cfg.mcdram))
                }
                _ => None,
            },
            round_trip: [
                mesh.avg_memory_latency(false),
                mesh.avg_memory_latency(true),
            ],
            hops: [mesh.avg_memory_hops(false), mesh.avg_memory_hops(true)],
            mesh,
            sampling: sampling.map(|(interval, capacity)| {
                let mut rec = TimeSeriesRecorder::new(interval, capacity);
                let ids = [
                    rec.register_counter("dram.ddr.lines"),
                    rec.register_counter("dram.hbm.lines"),
                    rec.register_counter("dram.ddr.wait_ps"),
                    rec.register_counter("dram.hbm.wait_ps"),
                    rec.register_gauge("mshr.inflight"),
                    rec.register_counter("mshr.stalls"),
                    rec.register_gauge("migrate.resident_pages"),
                    rec.register_counter("migrate.moves"),
                ];
                Sampling {
                    rec,
                    ids,
                    wait: [0; 2],
                }
            }),
            ddr,
            hbm,
        }
    }

    /// Replay `trace`: per-core program order, and across cores always
    /// the core with the least clock, the lower core on a tie. Returns
    /// the report over every access replayed so far.
    pub fn replay(&mut self, trace: &[TraceAccess]) -> TraceSimReport {
        let cores = self.clocks.len();
        let mut queues: Vec<VecDeque<TraceAccess>> = vec![VecDeque::new(); cores];
        for &t in trace {
            queues[t.core as usize % cores].push_back(t);
        }
        while let Some(c) = (0..cores)
            .filter(|&c| !queues[c].is_empty())
            .min_by_key(|&c| (self.clocks[c], c))
        {
            let t = queues[c].pop_front().unwrap();
            self.access(c, t);
        }
        if self.sampling.is_some() {
            // The trailing partial window, sampled past every fetch.
            self.sample(SimTime::from_ps(u64::MAX));
        }
        self.report()
    }

    /// The SRAM latency of an access served at `level` whose
    /// translation ended in `tlb`.
    fn sram_latency(&self, level: LevelHit, tlb: TlbOutcome) -> Duration {
        let h = &self.hier_cfg;
        let caches = match level {
            LevelHit::L1 => h.l1_latency,
            LevelHit::L2 => h.l1_latency + h.l2_latency,
            LevelHit::McdramCache | LevelHit::Memory => {
                h.l1_latency + h.l2_latency + h.memory_latency
            }
        };
        let translate = match tlb {
            TlbOutcome::L1Hit => Duration::ZERO,
            TlbOutcome::L2Hit => h.tlb.l2_hit_latency,
            TlbOutcome::Walk => h.tlb.walk_latency,
        };
        caches + translate
    }

    fn access(&mut self, c: usize, t: TraceAccess) {
        let kind = if t.write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let (mut level, tlb) = self.hierarchies[c].access(t.addr, kind);
        if let (LevelHit::Memory, Some(msc)) = (level, &mut self.msc) {
            if msc[c].access(t.addr, t.write).is_hit() {
                level = LevelHit::McdramCache;
            }
        }
        let now = self.clocks[c];
        let to_hbm = match &mut self.scheduler {
            Some(s) => s.tick(t.addr, level == LevelHit::Memory, now),
            None => match self.placement {
                TracePlacement::AllHbm => true,
                TracePlacement::SplitAt(boundary) => t.addr < boundary,
                TracePlacement::AllDdr | TracePlacement::Migrated(_) => false,
            },
        };
        let due = self.sampling.as_mut().is_some_and(|s| s.rec.tick());
        let sram = self.sram_latency(level, tlb);
        let mut issue = now;
        let done = if matches!(level, LevelHit::Memory | LevelHit::McdramCache) {
            // Stall while the file is full; then merge into the line's
            // fetch in flight, or issue a fetch of its own.
            let line = t.addr / LINE_BYTES * LINE_BYTES;
            let merged_at = loop {
                match self.mshrs[c].register(line, issue, self.mshr_capacity) {
                    MshrOutcome::Allocated => break None,
                    MshrOutcome::Merged { ready_at } => break Some(ready_at),
                    MshrOutcome::Stall { free_at } => issue = free_at,
                }
            };
            match merged_at {
                Some(ready_at) => (issue + sram).max(ready_at),
                None => {
                    let done = self.fetch(c, t.addr, level, to_hbm, issue + sram);
                    self.mshrs[c].complete(line, done);
                    done
                }
            }
        } else {
            issue + sram
        };
        self.clocks[c] = if t.dependent {
            done
        } else {
            issue + Duration::from_cycles(1, CORE_GHZ)
        };
        let totals = &mut self.totals[c];
        totals.accesses += 1;
        totals.total_latency += done.since(issue);
        totals.makespan = totals.makespan.max(done.since(SimTime::ZERO));
        if due {
            self.sample(now);
        }
    }

    /// A fetch leaving the core at `leave`: across the mesh, through
    /// the serving device(s), and back. Returns when the line is in.
    fn fetch(
        &mut self,
        c: usize,
        addr: u64,
        level: LevelHit,
        to_hbm: bool,
        leave: SimTime,
    ) -> SimTime {
        self.totals[c].memory_accesses += 1;
        let (target, floor) = match (&self.msc, level) {
            (Some(_), LevelHit::McdramCache) => (1, self.hbm.min_service()),
            (Some(_), _) => (0, self.hbm.min_service() + self.ddr.min_service()),
            (None, _) if to_hbm => (1, self.hbm.min_service()),
            (None, _) => (0, self.ddr.min_service()),
        };
        self.mesh.note_analytic_message(self.hops[target]);
        let half_trip = self.round_trip[target].scale(0.5);
        let mut arrive = leave + half_trip;
        if let Some(s) = &self.scheduler {
            arrive = s.transit_floor(addr, arrive);
        }
        let served = match (&self.msc, level) {
            (Some(_), LevelHit::McdramCache) => {
                self.totals[c].mcdram_cache_hits += 1;
                self.hbm.access(addr, arrive)
            }
            (Some(_), _) => {
                let tag_probe = self.hbm.access(addr, arrive);
                let ddr_fetch = self.ddr.access(addr, tag_probe);
                let _fill = self.hbm.access(addr, ddr_fetch);
                ddr_fetch
            }
            (None, _) if to_hbm => self.hbm.access(addr, arrive),
            (None, _) => self.ddr.access(addr, arrive),
        };
        if let Some(s) = &mut self.sampling {
            let wait = served.since(arrive).as_ps().checked_sub(floor.as_ps());
            s.wait[target] += wait.expect("a device served faster than its minimum");
        }
        served + half_trip
    }

    /// Close a sampling window at `now`.
    fn sample(&mut self, now: SimTime) {
        let ddr_lines = self.ddr.stats().total() as f64;
        let hbm_lines = self.hbm.stats().total() as f64;
        let in_flight: usize = self.mshrs.iter().map(|m| m.in_flight(now)).sum();
        let stalls: u64 = self.mshrs.iter().map(|m| m.stalls).sum();
        let (resident, moves) = self.scheduler.as_ref().map_or((0, 0), |s| {
            let st = s.stats();
            (s.resident_pages(), st.promoted_pages + st.demoted_pages)
        });
        let s = self.sampling.as_mut().unwrap();
        let values = [
            ddr_lines,
            hbm_lines,
            s.wait[0] as f64,
            s.wait[1] as f64,
            in_flight as f64,
            stalls as f64,
            resident as f64,
            moves as f64,
        ];
        for (id, value) in s.ids.into_iter().zip(values) {
            s.rec.set(id, value);
        }
        s.rec.close_window();
    }

    /// The report over every access replayed so far.
    fn report(&self) -> TraceSimReport {
        let accesses: u64 = self.totals.iter().map(|t| t.accesses).sum();
        if accesses == 0 {
            return TraceSimReport::default();
        }
        let memory_accesses: u64 = self.totals.iter().map(|t| t.memory_accesses).sum();
        let total_latency: Duration = self.totals.iter().map(|t| t.total_latency).sum();
        let makespan = self.totals.iter().map(|t| t.makespan).max().unwrap();
        let secs = makespan.as_secs();
        TraceSimReport {
            makespan,
            accesses,
            memory_accesses,
            mcdram_cache_hits: self.totals.iter().map(|t| t.mcdram_cache_hits).sum(),
            avg_latency: Duration::from_ps(total_latency.as_ps() / accesses),
            bandwidth_gbs: if secs > 0.0 {
                (memory_accesses * LINE_BYTES) as f64 / 1e9 / secs
            } else {
                0.0
            },
        }
    }

    /// Assert that `sim`, whose last replay returned `report`, agrees
    /// with this model on everything replay exposes: the report,
    /// per-core totals, each core's MSHR counters, both bank models,
    /// the mesh, the migration scheduler (its move digest included)
    /// and the sampled time series.
    pub fn assert_matches(&self, report: &TraceSimReport, sim: &TraceSim, ctx: &str) {
        assert_eq!(report, &self.report(), "report diverged: {ctx}");
        assert_eq!(
            sim.per_core_totals(),
            self.totals.as_slice(),
            "per-core totals diverged: {ctx}"
        );
        for (c, m) in self.mshrs.iter().enumerate() {
            let reg = sim.shard_metrics(c);
            for (name, want) in [
                ("mshr.allocations", m.allocations),
                ("mshr.merges", m.merges),
                ("mshr.stalls", m.stalls),
            ] {
                assert_eq!(
                    reg.get(name),
                    Some(&MetricValue::Counter(want)),
                    "core {c} {name} diverged: {ctx}"
                );
            }
        }
        assert_eq!(
            sim.ddr_stats(),
            self.ddr.stats(),
            "DDR stats diverged: {ctx}"
        );
        assert_eq!(
            sim.hbm_stats(),
            self.hbm.stats(),
            "MCDRAM stats diverged: {ctx}"
        );
        assert_eq!(
            sim.mesh_stats(),
            self.mesh.stats(),
            "mesh stats diverged: {ctx}"
        );
        assert_eq!(
            sim.migration_stats().as_ref(),
            self.scheduler.as_ref().map(|s| s.stats()),
            "migration stats (incl. move digest) diverged: {ctx}"
        );
        assert_eq!(
            sim.timeseries().map(|ts| ts.to_jsonl()),
            self.sampling.as_ref().map(|s| s.rec.to_jsonl()),
            "time series diverged: {ctx}"
        );
    }
}
