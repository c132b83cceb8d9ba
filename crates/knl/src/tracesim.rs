//! Trace-driven simulator.
//!
//! Replays line-granularity address traces through the exact substrate
//! models — per-core L1/L2 + TLB ([`cachesim::Hierarchy`]), the mesh
//! ([`mesh::MeshModel`]), the direct-mapped MCDRAM cache, and the
//! bank-level DRAM models ([`memdev::bank::DramModel`]). It exists to
//! *validate* the analytic machine model at small scales: the
//! integration tests check that both paths agree on ordering (HBM
//! beats DDR for streams, DDR beats HBM for chases) and roughly on
//! magnitude.
//!
//! # Sequential, sharded-parallel, and streaming replay
//!
//! [`TraceSim::run`] is the sequential reference implementation.
//! [`TraceSim::run_parallel`] and [`TraceSim::run_streaming`] produce
//! **bit-identical** reports and device statistics by exploiting a
//! structural property of the model: the private cache hierarchy
//! (L1/L2/TLB, and the memory-side-cache tags in cache mode) is
//! *timing-independent* — which level serves an access depends only on
//! that core's own address stream, never on the clock. Replay
//! therefore splits into
//!
//! 1. a **classification phase** that partitions the trace by core
//!    (see [`partition_by_core`]) and drives each shard's private
//!    [`Hierarchy`] on a worker thread (via [`simfabric::par`]),
//!    packing the per-shard outcomes into SoA batches
//!    (separate address / latency / flag arrays, 17 B per access
//!    instead of a 40 B record), and
//! 2. a **timing phase** that replays the classified batches through
//!    the shared resources (MSHRs, mesh, DRAM bank models) in exactly
//!    the earliest-clock order the sequential path uses. The "core
//!    with the earliest clock" selection runs on a fixed-size
//!    tournament tree ([`simfabric::merge::LoserTree`]) keyed on the
//!    per-core clocks: O(log cores) per access with no allocation,
//!    replacing a `BinaryHeap` push+pop pair. The tree's tie-break
//!    (equal clocks select the lower core index) reproduces the old
//!    heap's `Reverse<(SimTime, usize)>` order exactly.
//!
//! [`TraceSim::run_parallel`] interleaves the two phases in
//! classification **windows** ([`TraceSim::set_replay_window`]): cores
//! whose batch runs dry but which still have trace left stay in the
//! tournament as *ghosts* at their current clock, and a ghost winning
//! triggers the next refill — so peak buffering is one window, not the
//! whole trace, and the merge order is still exact. In every engine
//! the timing phase runs inline on the merging thread; only
//! classification fans out to workers.
//!
//! [`TraceSim::run_streaming`] goes one step further: instead of
//! materializing the whole trace up front, it pulls bounded chunks
//! from a generator callback on a producer thread
//! ([`simfabric::par::pipelined`]) while classification and timing run
//! on the consumer side, so generation overlaps replay and the
//! buffered trace stays at roughly one chunk per refill for workloads
//! that spread accesses across cores. The timing merge may only pick
//! a winner while *every* core that could still receive work has a
//! classified access buffered (an empty queue's future access could
//! carry the earliest clock); a single-core workload (e.g. a pointer
//! chase) therefore degenerates to buffering the full classified
//! trace — correctness is never traded for memory by default. An
//! opt-in lookahead cap ([`TraceSim::set_streaming_lookahead_chunks`]
//! or `TRACESIM_LOOKAHEAD_CHUNKS`) bounds that backlog by
//! force-draining the cores that have work and backpressuring the
//! producer; exact for the single-core traces that trigger the
//! buildup, approximate if starved cores later receive work. Peak
//! buffering is tracked per run and exposed via
//! [`TraceSim::last_peak_trace_buffer_bytes`].
//!
//! # Classify once, replay many ([`TraceSim::run_classified`])
//!
//! Because classification is timing-independent, it is also
//! *setup-independent* across every configuration that shares the same
//! private-hierarchy config: flat-mode placements (`AllDdr`, `AllHbm`,
//! `SplitAt`, `Migrated`), device presets, and worker counts all
//! replay the exact same classified stream. A multi-setup sweep can
//! therefore classify **once** into a [`ClassifiedTrace`] artifact
//! (the same 17 B/access SoA batches, held per core, keyed by a
//! canonical [`ClassifyKey`](crate::classified::ClassifyKey) of
//! generator spec × cores × cache/TLB config) and replay it N times
//! through [`TraceSim::run_classified`], whose refills memcpy
//! window-sized slices instead of running generators and cache models.
//! Artifacts are built streamed and bounded
//! ([`ClassifiedTrace::build_streaming`]) and cached in an LRU bounded
//! by bytes ([`ClassifyCache`](crate::classified::ClassifyCache)); a
//! key mismatch can never alias — `run_classified` asserts the
//! signature and the cache treats any changed key as a miss.
//!
//! # Batched mesh pricing
//!
//! The mesh's analytic message accounting (a counter bump per memory
//! access) batches into a detached [`MeshTally`] folded back at
//! window/chunk boundaries and in [`TraceSim::finish`] — bit-identical
//! by construction (pure counter sums, proven by the differential
//! suite), on by default, opt out with `TRACESIM_MESH_BATCH=0` (see
//! [`mesh_batch_from_env`]).
//!
//! Per-shard totals are folded with [`ShardTotals::merge`], an
//! order-independent (commutative, associative, integer-only)
//! reduction, so worker count never leaks into results.

use crate::classified::{classify_signature, ClassifiedTrace};
use crate::config::{MachineConfig, MemSetup};
use cachesim::cache::AccessKind;
use cachesim::hierarchy::{Hierarchy, HierarchyConfig, LevelHit};
use cachesim::mcdram_cache::MemorySideCache;
use cachesim::mshr::{Mshr, MshrOutcome};
use memdev::bank::{DramModel, DramStats};
use memkind_sim::migrate::{MigrationCost, MigrationSpec, MigrationStats, PageScheduler};
use mesh::{MeshModel, MeshTally};
use simfabric::merge::LoserTree;
use simfabric::par;
use simfabric::stats::Histogram;
use simfabric::telemetry::timeseries::{SeriesId, TimeSeriesRecorder};
use simfabric::telemetry::{MetricsRegistry, SpanLog};
use simfabric::{ByteSize, Duration, SimTime};
use std::collections::VecDeque;
use std::time::Instant;

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceAccess {
    /// Issuing core (0-based; mapped onto tiles round-robin).
    pub core: u32,
    /// Byte address.
    pub addr: u64,
    /// Load or store.
    pub write: bool,
    /// Whether this access depends on the previous one from the same
    /// core (pointer chase) or can overlap (streaming).
    pub dependent: bool,
}

impl TraceAccess {
    /// A streaming read.
    pub fn read(core: u32, addr: u64) -> Self {
        TraceAccess {
            core,
            addr,
            write: false,
            dependent: false,
        }
    }

    /// A dependent (chased) read.
    pub fn chase(core: u32, addr: u64) -> Self {
        TraceAccess {
            dependent: true,
            ..Self::read(core, addr)
        }
    }

    /// A streaming write.
    pub fn write(core: u32, addr: u64) -> Self {
        TraceAccess {
            write: true,
            ..Self::read(core, addr)
        }
    }
}

/// Where trace addresses live (the trace path does not use the heap;
/// placement is supplied explicitly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePlacement {
    /// Everything on DDR.
    AllDdr,
    /// Everything on MCDRAM (flat).
    AllHbm,
    /// Addresses below the boundary on MCDRAM, the rest on DDR.
    SplitAt(u64),
    /// Dynamic placement: pages start on DDR and a
    /// [`PageScheduler`] periodically promotes the hottest pages to
    /// MCDRAM (and demotes cold ones) under the spec's budget. Only
    /// meaningful in flat mode; under a cache-mode setup (or a
    /// disabled spec — zero period or budget) this degenerates to
    /// [`TracePlacement::AllDdr`] routing.
    Migrated(MigrationSpec),
}

impl TracePlacement {
    /// Static routing only. [`TracePlacement::Migrated`] answers for
    /// the *base* tier (DDR); the live answer comes from the
    /// scheduler, consulted by [`TraceSim`]'s routing helper.
    fn is_hbm(self, addr: u64) -> bool {
        match self {
            TracePlacement::AllDdr => false,
            TracePlacement::AllHbm => true,
            TracePlacement::SplitAt(b) => addr < b,
            TracePlacement::Migrated(_) => false,
        }
    }
}

/// Simulation report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceSimReport {
    /// Completion time of the last access.
    pub makespan: Duration,
    /// Accesses replayed.
    pub accesses: u64,
    /// Accesses that reached a memory device.
    pub memory_accesses: u64,
    /// Accesses served by the MCDRAM cache (cache mode only).
    pub mcdram_cache_hits: u64,
    /// Average latency per access.
    pub avg_latency: Duration,
    /// Achieved bandwidth over the makespan, GB/s (64 B per access).
    pub bandwidth_gbs: f64,
}

/// Raw per-shard totals, in integer picoseconds and counts, from which
/// a [`TraceSimReport`] is derived. Every field combines with a sum or
/// a max, so [`merge`](Self::merge) is commutative and associative:
/// shards reduce to identical totals in any order — the property that
/// lets the parallel path match the sequential path bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardTotals {
    /// Accesses replayed.
    pub accesses: u64,
    /// Accesses that reached a memory device.
    pub memory_accesses: u64,
    /// Accesses served by the MCDRAM cache (cache mode only).
    pub mcdram_cache_hits: u64,
    /// Sum of per-access latencies.
    pub total_latency: Duration,
    /// Completion time of the shard's last access.
    pub makespan: Duration,
}

impl ShardTotals {
    /// Combine two shards' totals (order-independent reduction).
    pub fn merge(self, other: ShardTotals) -> ShardTotals {
        ShardTotals {
            accesses: self.accesses + other.accesses,
            memory_accesses: self.memory_accesses + other.memory_accesses,
            mcdram_cache_hits: self.mcdram_cache_hits + other.mcdram_cache_hits,
            total_latency: self.total_latency + other.total_latency,
            makespan: self.makespan.max(other.makespan),
        }
    }

    /// Derive the user-facing report. An empty run (zero accesses)
    /// yields an all-zero report — the average-latency and bandwidth
    /// divisions are guarded, never performed on zero counts.
    pub fn into_report(self, line_bytes: u64) -> TraceSimReport {
        if self.accesses == 0 {
            return TraceSimReport::default();
        }
        let avg_latency = Duration::from_ps(self.total_latency.as_ps() / self.accesses);
        let secs = self.makespan.as_secs();
        let bandwidth_gbs = if secs > 0.0 {
            (self.memory_accesses * line_bytes) as f64 / 1e9 / secs
        } else {
            0.0
        };
        TraceSimReport {
            makespan: self.makespan,
            accesses: self.accesses,
            memory_accesses: self.memory_accesses,
            mcdram_cache_hits: self.mcdram_cache_hits,
            avg_latency,
            bandwidth_gbs,
        }
    }
}

/// Map an issuing core id onto one of `shards` replay shards.
///
/// Traces may name cores beyond the simulated core count (a trace
/// captured on a larger machine); they wrap modulo the shard count, so
/// per-core program order within a shard is still preserved.
pub fn partition_by_core(core: u32, shards: usize) -> usize {
    core as usize % shards
}

/// Parse a `TRACESIM_THREADS`-style value: a non-negative integer,
/// surrounding whitespace ignored; empty and garbage are `None`. Zero
/// parses (and is later clamped to one worker) so `TRACESIM_THREADS=0`
/// reads as "let the machine decide the floor" instead of being
/// silently dropped as a parse error.
#[doc(hidden)]
pub fn parse_thread_count(raw: &str) -> Option<usize> {
    simfabric::env::parse_usize(raw)
}

/// Clamp a requested worker count to what the machine can usefully
/// run: at least one worker, at most `cores`. Zero workers cannot make
/// progress, and over-subscribing the replay (whose workers are
/// compute-bound, not I/O-bound) only buys context-switch overhead.
pub fn clamp_thread_count(requested: usize, cores: usize) -> usize {
    requested.clamp(1, cores.max(1))
}

/// Worker count for [`TraceSim::run_parallel`]: an explicit
/// [`par::with_threads`] override wins, then the `TRACESIM_THREADS`
/// environment variable, then the machine's available parallelism.
///
/// Environment-sourced values are clamped to `[1, cores]` (warning
/// once when the clamp changes the value); a set-but-unparsable
/// `TRACESIM_THREADS` falls through to the machine default and warns
/// once to stderr via [`simfabric::env`] (a silently ignored knob is
/// worse than a noisy one — every `TRACESIM_*` knob shares that
/// contract now). Programmatic overrides are taken as-is — tests
/// deliberately over-subscribe to shake out scheduling-dependent bugs.
pub fn worker_threads() -> usize {
    if let Some(n) = par::thread_override() {
        return n.max(1);
    }
    match simfabric::env::usize_var("TRACESIM_THREADS") {
        Some(n) => {
            let cores = par::num_threads();
            let clamped = clamp_thread_count(n, cores);
            if clamped != n {
                simfabric::env::warn_once(
                    "TRACESIM_THREADS.clamp",
                    &format!(
                        "tracesim: clamping TRACESIM_THREADS={n} to {clamped} \
                         (machine supports {cores})"
                    ),
                );
            }
            clamped
        }
        None => par::num_threads(),
    }
}

/// Retained only so the `benchmark/` crate keeps compiling: replay has
/// a single inline timing loop, so this selects nothing. Remove it with
/// the next change to that crate.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingMode {
    /// The only variant the `benchmark/` crate names.
    Concurrent,
}

/// Default classification window for [`TraceSim::run_parallel`], in
/// accesses: large enough to amortize the per-window fan-out, small
/// enough that the classified batch is still cache-resident when the
/// timing phase consumes it.
pub const PAR_WINDOW: usize = 1 << 16;

/// Replay window from the `TRACESIM_PAR_WINDOW` environment variable
/// (accesses per classification window); unset, unparsable (warn-once
/// via [`simfabric::env`]) or `0` fall back to [`PAR_WINDOW`].
/// [`TraceSim::set_replay_window`] overrides it programmatically.
pub fn replay_window_from_env() -> usize {
    simfabric::env::usize_var("TRACESIM_PAR_WINDOW")
        .filter(|&n| n > 0)
        .unwrap_or(PAR_WINDOW)
}

/// Whether replay batches analytic mesh pricing (see the module docs):
/// per-access hop counts accumulate in a detached [`MeshTally`] and
/// fold into the [`MeshModel`] once per classification window /
/// stream chunk instead of touching the shared counters per access.
/// Proven bit-identical (pure counter sums), so it defaults to **on**;
/// `TRACESIM_MESH_BATCH=0` (or
/// [`TraceSim::set_mesh_batching`]) restores per-access pricing.
pub fn mesh_batch_from_env() -> bool {
    simfabric::env::bool_var("TRACESIM_MESH_BATCH").unwrap_or(true)
}

/// Streaming-replay backlog threshold: warn when the classified
/// backlog exceeds this many times the largest chunk the producer has
/// delivered — the pipeline is then no longer streaming, it is
/// materializing the trace (the single-core worst case the module docs
/// describe).
pub const BUFFER_WARN_CHUNKS: usize = 8;

/// Minimum backlog (in accesses) before the warning can fire, so the
/// tiny chunks the unit tests feed never trip it.
pub const BUFFER_WARN_MIN_ACCESSES: usize = 1 << 16;

/// The warning [`TraceSim::run_streaming`] emits (once per process)
/// when its classified backlog stops being bounded by the chunk size.
/// Pure so the threshold logic is testable without capturing stderr.
pub fn buffer_warning(backlog_accesses: usize, max_chunk_accesses: usize) -> Option<String> {
    if backlog_accesses >= BUFFER_WARN_MIN_ACCESSES
        && max_chunk_accesses > 0
        && backlog_accesses > BUFFER_WARN_CHUNKS * max_chunk_accesses
    {
        Some(format!(
            "tracesim: streaming replay is buffering {backlog_accesses} classified accesses \
             (more than {BUFFER_WARN_CHUNKS}x the {max_chunk_accesses}-access chunk size); \
             the trace concentrates work on few cores, so the pipeline is degenerating \
             toward materializing the whole trace"
        ))
    } else {
        None
    }
}

/// Pack the classification outcome's boolean/enum half into one byte:
/// bit 0 = write, bit 1 = dependent, bits 2–3 = [`LevelHit`].
fn pack_flags(write: bool, dependent: bool, level: LevelHit) -> u8 {
    let lvl = match level {
        LevelHit::L1 => 0u8,
        LevelHit::L2 => 1,
        LevelHit::McdramCache => 2,
        LevelHit::Memory => 3,
    };
    (write as u8) | (dependent as u8) << 1 | lvl << 2
}

fn unpack_dependent(flags: u8) -> bool {
    flags & 0b10 != 0
}

fn unpack_level(flags: u8) -> LevelHit {
    match (flags >> 2) & 0b11 {
        0 => LevelHit::L1,
        1 => LevelHit::L2,
        2 => LevelHit::McdramCache,
        _ => LevelHit::Memory,
    }
}

/// A classified per-core batch in SoA layout: one array per field the
/// timing loop actually reads, instead of striding over padded AoS
/// records. 17 bytes per access, popped front-to-back through a head
/// cursor; [`compact`](Self::compact) reclaims the consumed prefix
/// when the batch is refilled mid-stream.
#[derive(Debug, Default)]
pub(crate) struct ClassifiedSoa {
    addr: Vec<u64>,
    lat_ps: Vec<u64>,
    flags: Vec<u8>,
    head: usize,
}

impl ClassifiedSoa {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn len(&self) -> usize {
        self.addr.len() - self.head
    }

    fn is_empty(&self) -> bool {
        self.head == self.addr.len()
    }

    fn reserve(&mut self, extra: usize) {
        self.addr.reserve(extra);
        self.lat_ps.reserve(extra);
        self.flags.reserve(extra);
    }

    pub(crate) fn push(
        &mut self,
        addr: u64,
        sram_lat: Duration,
        write: bool,
        dependent: bool,
        level: LevelHit,
    ) {
        self.addr.push(addr);
        self.lat_ps.push(sram_lat.as_ps());
        self.flags.push(pack_flags(write, dependent, level));
    }

    /// Pop the oldest access: `(addr, sram_lat, dependent, level)`.
    fn pop(&mut self) -> Option<(u64, Duration, bool, LevelHit)> {
        if self.is_empty() {
            return None;
        }
        let i = self.head;
        self.head += 1;
        let flags = self.flags[i];
        Some((
            self.addr[i],
            Duration::from_ps(self.lat_ps[i]),
            unpack_dependent(flags),
            unpack_level(flags),
        ))
    }

    /// Drop the consumed prefix so refills don't grow without bound.
    fn compact(&mut self) {
        if self.head > 0 {
            self.addr.drain(..self.head);
            self.lat_ps.drain(..self.head);
            self.flags.drain(..self.head);
            self.head = 0;
        }
    }

    /// Bytes of classified trace currently buffered.
    fn buffered_bytes(&self) -> usize {
        self.len() * CLASSIFIED_ACCESS_BYTES
    }

    /// Unconsumed accesses as raw parallel slices
    /// `(addr, lat_ps, flags)` — the storage view a
    /// [`ClassifiedTrace`] artifact keeps.
    pub(crate) fn arrays(&self) -> (&[u64], &[u64], &[u8]) {
        (
            &self.addr[self.head..],
            &self.lat_ps[self.head..],
            &self.flags[self.head..],
        )
    }

    /// Append a pre-classified range (a [`ClassifiedTrace`] window) —
    /// the timing-only replay's refill is this memcpy instead of a
    /// generator + hierarchy pass.
    pub(crate) fn extend_from_arrays(&mut self, addr: &[u64], lat_ps: &[u64], flags: &[u8]) {
        debug_assert!(addr.len() == lat_ps.len() && addr.len() == flags.len());
        self.addr.extend_from_slice(addr);
        self.lat_ps.extend_from_slice(lat_ps);
        self.flags.extend_from_slice(flags);
    }
}

/// Bytes per access in the SoA layout (u64 address + u64 latency +
/// packed flag byte) — the unit `ClassifiedTrace::bytes` and the
/// classify-cache budget are measured in.
pub const CLASSIFIED_ACCESS_BYTES: usize = 8 + 8 + 1;

/// Classify `pending` through `hier` into `queue` (compacting first so
/// refills don't grow without bound), clearing `pending`. The one
/// classification kernel shared by the windowed replay, the streaming
/// replay, and [`ClassifiedTrace`] artifact builds — they cannot
/// drift apart.
pub(crate) fn classify_into(
    hier: &mut Hierarchy,
    pending: &mut Vec<TraceAccess>,
    queue: &mut ClassifiedSoa,
) {
    if pending.is_empty() {
        return;
    }
    queue.compact();
    queue.reserve(pending.len());
    for &t in pending.iter() {
        let kind = if t.write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let (level, sram_lat) = hier.access(t.addr, kind);
        queue.push(t.addr, sram_lat, t.write, t.dependent, level);
    }
    pending.clear();
}

/// The private-hierarchy configuration replay uses under `cfg`: the
/// KNL cache-mode hierarchy (with the memory-side-cache tags sized to
/// `msc_capacity`) when the setup has an MCDRAM cache, the flat
/// hierarchy otherwise. The hierarchy's own memory/MCDRAM-cache
/// latencies are zeroed — the bank models provide all device timing.
/// [`TraceSim::new`] and [`ClassifiedTrace::build_streaming`] must
/// agree on this, byte for byte, for an artifact to be replayable.
pub(crate) fn hierarchy_config(cfg: &MachineConfig, msc_capacity: ByteSize) -> HierarchyConfig {
    let mut hier_cfg = match cfg.setup {
        MemSetup::CacheMode => HierarchyConfig::knl_cache_mode(
            cfg.ddr.idle_latency,
            cfg.mcdram.idle_latency,
            msc_capacity,
        ),
        _ => HierarchyConfig::knl_flat(cfg.ddr.idle_latency),
    };
    // The memory latency charged by the hierarchy is superseded by
    // the bank model; zero it out and let devices provide timing.
    hier_cfg.memory_latency = Duration::ZERO;
    hier_cfg.mcdram_cache_latency = Duration::ZERO;
    hier_cfg
}

/// Per-core state of the streaming pipeline: the private hierarchy,
/// the unclassified slice of the current chunk, and the classified
/// backlog awaiting the timing merge.
struct StreamShard {
    hier: Hierarchy,
    pending: Vec<TraceAccess>,
    queue: ClassifiedSoa,
}

/// What feeds the windowed replay's refills: a raw trace that each
/// window partitions and classifies through the private hierarchies
/// ([`TraceSim::run_parallel`]), or a prebuilt [`ClassifiedTrace`]
/// whose per-core SoA arrays are copied in window-sized slices — the
/// timing-only fast path of [`TraceSim::run_classified`]. Both
/// variants uphold the same refill contract the ghost-slot merge
/// relies on: a refill gives every dry core with work left at least
/// one access, and buffering stays bounded by roughly one window.
enum ReplayInput<'a> {
    /// Unclassified trace; `next` is the global trace-order cursor.
    Raw {
        trace: &'a [TraceAccess],
        next: usize,
    },
    /// Prebuilt artifact; `next` holds one cursor per core.
    Classified {
        ct: &'a ClassifiedTrace,
        next: Vec<usize>,
    },
}

/// Observability counters from the most recent
/// [`TraceSim::run_parallel`] or [`TraceSim::run_classified`] call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimingEngineStats {
    /// Classification windows refilled.
    pub windows: u64,
    /// Always 0; kept only because the `benchmark/` crate reads it.
    /// Remove it with the next change to that crate.
    #[doc(hidden)]
    pub ops: u64,
    /// Always 0; kept only because the `benchmark/` crate reads it.
    /// Remove it with the next change to that crate.
    #[doc(hidden)]
    pub flushes: u64,
    /// Always `false`; kept only because the `benchmark/` crate reads
    /// it. Remove it with the next change to that crate.
    #[doc(hidden)]
    pub bailed_out: bool,
}

/// Time-resolved replay telemetry: one [`TimeSeriesRecorder`] ticked
/// once per access consumed in merge order, plus the series handles
/// and device lower-bound constants the hot-path hooks need. Boxed
/// behind one `Option` so the disabled replay pays a single branch
/// per access, like the migration scheduler and the span log.
struct ReplayTimeSeries {
    rec: TimeSeriesRecorder,
    ddr_lines: SeriesId,
    hbm_lines: SeriesId,
    ddr_wait: SeriesId,
    hbm_wait: SeriesId,
    mshr_inflight: SeriesId,
    mshr_stalls: SeriesId,
    migrate_resident: SeriesId,
    migrate_moves: SeriesId,
    /// Minimum device service times, cached from the models: the
    /// queue-wait series is `done - (arrive + min + resp_half)`.
    ddr_min: Duration,
    hbm_min: Duration,
}

/// The trace-driven simulator.
pub struct TraceSim {
    hierarchies: Vec<Hierarchy>,
    /// Per-core MSHR files bounding outstanding line misses — the same
    /// limit [`crate::calib::STREAM_MLP_PER_CORE_1T`] captures
    /// analytically.
    mshrs: Vec<Mshr>,
    core_clock: Vec<SimTime>,
    mesh: MeshModel,
    ddr: DramModel,
    hbm: DramModel,
    msc: Option<MemorySideCache>,
    placement: TracePlacement,
    /// Hot-page migration scheduler, present only for an *enabled*
    /// [`TracePlacement::Migrated`] spec in flat mode. Ticked exactly
    /// once per consumed access in merge order by every engine, so
    /// rebalances land at identical trace offsets regardless of
    /// engine or worker count.
    migration: Option<Box<PageScheduler>>,
    line_bytes: u64,
    /// Precomputed average response-path latencies (half a round trip).
    resp_half_ddr: Duration,
    resp_half_hbm: Duration,
    /// Round-trip hop counts for analytic mesh message accounting.
    hops_ddr: u64,
    hops_hbm: u64,
    /// Batched mesh pricing (see [`mesh_batch_from_env`]): when on,
    /// analytic messages accumulate in `mesh_tally` and fold into the
    /// mesh at window boundaries and in [`finish`](Self::finish).
    mesh_batch: bool,
    mesh_tally: MeshTally,
    /// Canonical classification signature of this simulator's
    /// hierarchy config (see [`classify_signature`]); a
    /// [`ClassifiedTrace`] replays here only if its key carries the
    /// same signature.
    classify_sig: String,
    /// Per-core raw totals; the report is their order-independent
    /// reduction.
    core_totals: Vec<ShardTotals>,
    /// Peak bytes of trace buffered inside the most recent `run*` call.
    last_peak_buffer: usize,
    /// Peak classified accesses awaiting the timing merge in the most
    /// recent `run*` call (the materialized paths report the trace
    /// length; streaming reports its actual backlog high-water).
    peak_buffered_accesses: usize,
    /// Pipeline stall/occupancy stats from the most recent
    /// `run_streaming` call (zeroed by the materialized paths).
    last_pipe_stats: par::PipeStats,
    /// Classification window for [`run_parallel`](Self::run_parallel),
    /// in accesses.
    replay_window: usize,
    /// Streaming lookahead cap override, in chunks; `None` defers to
    /// the `TRACESIM_LOOKAHEAD_CHUNKS` environment variable, and 0
    /// disables the cap.
    stream_lookahead_chunks: Option<usize>,
    /// Window counters from the most recent windowed replay.
    timing_stats: TimingEngineStats,
    /// Phase-span log; `None` (the default) disables all span
    /// recording. Device-level histograms are enabled alongside it by
    /// [`enable_telemetry`](Self::enable_telemetry).
    telemetry: Option<SpanLog>,
    /// Sampled time-series over consumed accesses; `None` (the
    /// default) keeps the per-access cost at one branch. See
    /// [`enable_timeseries`](Self::enable_timeseries).
    timeseries: Option<Box<ReplayTimeSeries>>,
}

impl TraceSim {
    /// Build a trace simulator for `cores` cores under `cfg`'s memory
    /// setup. `msc_capacity` scales the MCDRAM cache for tractable
    /// tests (pass the full 16 GiB for fidelity).
    pub fn new(
        cfg: &MachineConfig,
        cores: u32,
        placement: TracePlacement,
        msc_capacity: ByteSize,
    ) -> Self {
        let hier_cfg = hierarchy_config(cfg, msc_capacity);
        let mesh = MeshModel::knl(cfg.cluster);
        let resp_half_ddr = mesh.avg_memory_latency(false).scale(0.5);
        let resp_half_hbm = mesh.avg_memory_latency(true).scale(0.5);
        let hops_ddr = mesh.avg_memory_hops(false);
        let hops_hbm = mesh.avg_memory_hops(true);
        TraceSim {
            hierarchies: (0..cores).map(|_| Hierarchy::new(hier_cfg)).collect(),
            mshrs: (0..cores)
                .map(|_| Mshr::new(crate::calib::STREAM_MLP_PER_CORE_1T as usize))
                .collect(),
            core_clock: vec![SimTime::ZERO; cores as usize],
            mesh,
            resp_half_ddr,
            resp_half_hbm,
            hops_ddr,
            hops_hbm,
            mesh_batch: mesh_batch_from_env(),
            mesh_tally: MeshTally::default(),
            classify_sig: classify_signature(cfg, msc_capacity),
            ddr: DramModel::ddr4_knl(),
            hbm: DramModel::mcdram_knl(),
            msc: cfg
                .setup
                .has_mcdram_cache()
                .then(|| MemorySideCache::new(msc_capacity, 64)),
            migration: match placement {
                TracePlacement::Migrated(spec) if !cfg.setup.has_mcdram_cache() => {
                    PageScheduler::new(spec, MigrationCost::from_devices(&cfg.ddr, &cfg.mcdram))
                        .map(Box::new)
                }
                _ => None,
            },
            placement,
            line_bytes: 64,
            core_totals: vec![ShardTotals::default(); cores as usize],
            last_peak_buffer: 0,
            peak_buffered_accesses: 0,
            last_pipe_stats: par::PipeStats::default(),
            replay_window: replay_window_from_env(),
            stream_lookahead_chunks: None,
            timing_stats: TimingEngineStats::default(),
            telemetry: None,
            timeseries: None,
        }
    }

    /// A no-op, kept only so the `benchmark/` crate keeps compiling:
    /// every replay times inline. Remove it with the next change to
    /// that crate.
    #[doc(hidden)]
    pub fn set_timing_mode(&mut self, _mode: Option<TimingMode>) {}

    /// Set the classification window (in accesses) for
    /// [`run_parallel`](Self::run_parallel); clamped to at least one.
    /// Tests shrink this to force many window refills on small traces.
    pub fn set_replay_window(&mut self, accesses: usize) {
        self.replay_window = accesses.max(1);
    }

    /// Force batched mesh pricing on or off for subsequent `run*`
    /// calls, overriding the `TRACESIM_MESH_BATCH` default. Both
    /// settings are bit-identical (the differential suite proves it);
    /// the flag exists so the proof has something to compare.
    pub fn set_mesh_batching(&mut self, on: bool) {
        self.mesh_batch = on;
    }

    /// Whether analytic mesh pricing is batched (see
    /// [`mesh_batch_from_env`]).
    pub fn mesh_batching(&self) -> bool {
        self.mesh_batch
    }

    /// This simulator's classification signature — the cache/TLB half
    /// of a [`ClassifyKey`](crate::classified::ClassifyKey). An
    /// artifact built under a different signature (other memory mode,
    /// other MSC capacity, other idle latencies) must be rebuilt, not
    /// replayed: [`run_classified`](Self::run_classified) checks.
    pub fn classify_signature(&self) -> &str {
        &self.classify_sig
    }

    /// Cap [`run_streaming`](Self::run_streaming)'s classified
    /// lookahead at `chunks` producer chunks: above the cap the merge
    /// force-drains (and the bounded pipe backpressures the producer)
    /// until the backlog falls to half the cap. `Some(0)` and `None`
    /// leave the cap to the `TRACESIM_LOOKAHEAD_CHUNKS` environment
    /// variable (unset/0 there means uncapped). See the module docs
    /// for when the forced drain preserves bit-exactness.
    pub fn set_streaming_lookahead_chunks(&mut self, chunks: Option<usize>) {
        self.stream_lookahead_chunks = chunks;
    }

    /// Window counters from the most recent
    /// [`run_parallel`](Self::run_parallel) or
    /// [`run_classified`](Self::run_classified) call.
    pub fn last_timing_stats(&self) -> &TimingEngineStats {
        &self.timing_stats
    }

    /// Turn on telemetry for subsequent `run*` calls: a [`SpanLog`]
    /// for phase spans, plus the Option-gated device recorders (MSHR
    /// occupancy, DRAM bank queue-wait, mesh per-link traversals).
    /// Telemetry is purely observational — replay results and device
    /// statistics are bit-identical with it on or off, which the
    /// equivalence suite asserts.
    pub fn enable_telemetry(&mut self) {
        if self.telemetry.is_none() {
            self.telemetry = Some(SpanLog::new());
        }
        for m in &mut self.mshrs {
            m.enable_occupancy_histogram();
        }
        self.ddr.enable_queue_wait_histogram();
        self.hbm.enable_queue_wait_histogram();
        self.mesh.enable_link_telemetry();
    }

    /// Whether [`enable_telemetry`](Self::enable_telemetry) was called.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_some()
    }

    /// Turn on time-resolved sampling for subsequent `run*` calls: a
    /// [`TimeSeriesRecorder`] ticked once per access consumed in the
    /// earliest-`(clock, core)` merge order and sampled every
    /// `interval` accesses into a ring of `capacity` windows.
    ///
    /// Sampled series: per-device line fetches and queue-wait
    /// overshoot (`dram.{ddr,hbm}.lines`, `dram.{ddr,hbm}.wait_ps`),
    /// MSHR file state (`mshr.inflight`, `mshr.stalls`), and the
    /// migration scheduler (`migrate.resident_pages`,
    /// `migrate.moves`; zero when migration is off). Because the tick
    /// is merge-order simulated progress, window boundaries and
    /// sampled values are bit-identical across the sequential,
    /// windowed-parallel, and streaming engines at any worker count.
    /// Replay results are unchanged with sampling on or off; the
    /// equivalence suite asserts both properties.
    pub fn enable_timeseries(&mut self, interval: u64, capacity: usize) {
        if self.timeseries.is_some() {
            return;
        }
        let mut rec = TimeSeriesRecorder::new(interval, capacity);
        let ddr_lines = rec.register_counter("dram.ddr.lines");
        let hbm_lines = rec.register_counter("dram.hbm.lines");
        let ddr_wait = rec.register_counter("dram.ddr.wait_ps");
        let hbm_wait = rec.register_counter("dram.hbm.wait_ps");
        let mshr_inflight = rec.register_gauge("mshr.inflight");
        let mshr_stalls = rec.register_counter("mshr.stalls");
        let migrate_resident = rec.register_gauge("migrate.resident_pages");
        let migrate_moves = rec.register_counter("migrate.moves");
        self.timeseries = Some(Box::new(ReplayTimeSeries {
            rec,
            ddr_lines,
            hbm_lines,
            ddr_wait,
            hbm_wait,
            mshr_inflight,
            mshr_stalls,
            migrate_resident,
            migrate_moves,
            ddr_min: self.ddr.min_service(),
            hbm_min: self.hbm.min_service(),
        }));
    }

    /// The sampled time-series, if
    /// [`enable_timeseries`](Self::enable_timeseries) was called.
    pub fn timeseries(&self) -> Option<&TimeSeriesRecorder> {
        self.timeseries.as_deref().map(|ts| &ts.rec)
    }

    /// Whether time-series sampling is enabled.
    pub fn timeseries_enabled(&self) -> bool {
        self.timeseries.is_some()
    }

    /// Device-level time-series accounting for an access routed to
    /// memory: one line fetch per device access it issues (the
    /// cache-mode miss chain touches MCDRAM twice and DDR once), plus
    /// the serving device's queue wait — its overshoot past the
    /// completion lower bound `arrive + min_service + resp_half`.
    /// Callers gate on `timeseries.is_some()`.
    fn ts_note_memory(
        &mut self,
        level: LevelHit,
        is_hbm_target: bool,
        arrive: SimTime,
        done: SimTime,
    ) {
        let msc = self.msc.is_some();
        let resp_half = if is_hbm_target {
            self.resp_half_hbm
        } else {
            self.resp_half_ddr
        };
        let ts = self.timeseries.as_mut().expect("caller gates on is_some");
        match (msc, level) {
            (true, LevelHit::McdramCache) => ts.rec.add(ts.hbm_lines, 1.0),
            (true, _) => {
                ts.rec.add(ts.hbm_lines, 2.0);
                ts.rec.add(ts.ddr_lines, 1.0);
            }
            (false, _) if is_hbm_target => ts.rec.add(ts.hbm_lines, 1.0),
            (false, _) => ts.rec.add(ts.ddr_lines, 1.0),
        }
        let (serves_ddr, m1, m2) = match (msc, level) {
            (true, LevelHit::McdramCache) => (false, ts.hbm_min, Duration::ZERO),
            (true, _) => (true, ts.hbm_min, ts.ddr_min),
            (false, _) if is_hbm_target => (false, ts.hbm_min, Duration::ZERO),
            (false, _) => (true, ts.ddr_min, Duration::ZERO),
        };
        let lb = arrive + m1 + m2 + resp_half;
        let wait = done.since(lb).as_ps() as f64;
        let id = if serves_ddr { ts.ddr_wait } else { ts.hbm_wait };
        ts.rec.add(id, wait);
    }

    /// Advance the sampling clock by one consumed access; `true` when
    /// the access lands on a window boundary (no-op when disabled).
    #[inline]
    fn ts_tick(&mut self) -> bool {
        match &mut self.timeseries {
            Some(ts) => ts.rec.tick(),
            None => false,
        }
    }

    /// Close a sampling window: refresh the pull-style series from
    /// state every engine resolves identically at merge-order
    /// boundaries (MSHR files probed at the boundary access's
    /// pre-stall clock, migration scheduler totals), then snapshot.
    #[cold]
    fn ts_sample(&mut self, now: SimTime) {
        let inflight: usize = self.mshrs.iter().map(|m| m.probe_occupancy(now)).sum();
        let stalls: u64 = self.mshrs.iter().map(|m| m.stalls.get()).sum();
        let (resident, moves) = match &self.migration {
            Some(m) => {
                let s = m.stats();
                (
                    m.resident_pages() as f64,
                    (s.promoted_pages + s.demoted_pages) as f64,
                )
            }
            None => (0.0, 0.0),
        };
        let Some(ts) = self.timeseries.as_deref_mut() else {
            return;
        };
        ts.rec.set(ts.mshr_inflight, inflight as f64);
        ts.rec.set(ts.mshr_stalls, stalls as f64);
        ts.rec.set(ts.migrate_resident, resident);
        ts.rec.set(ts.migrate_moves, moves);
        ts.rec.close_window();
    }

    /// The recorded phase spans, if telemetry is enabled.
    pub fn telemetry_spans(&self) -> Option<&SpanLog> {
        self.telemetry.as_ref()
    }

    /// Pipeline stall/occupancy stats from the most recent
    /// [`run_streaming`](Self::run_streaming) call.
    pub fn last_pipe_stats(&self) -> par::PipeStats {
        self.last_pipe_stats
    }

    /// Peak classified accesses buffered ahead of the timing merge in
    /// the most recent `run*` call (see `pipeline.buffered_accesses`
    /// in [`metrics_registry`](Self::metrics_registry)).
    pub fn last_peak_buffered_accesses(&self) -> usize {
        self.peak_buffered_accesses
    }

    /// Snapshot shard `core`'s private state (cache hierarchy, MSHR
    /// file, raw totals) as an *unindexed* metrics registry: every
    /// shard uses the same metric names, so per-shard registries merge
    /// with [`MetricsRegistry::merge`] into exactly the totals the
    /// sequential path reports — the registry-level analogue of
    /// [`ShardTotals::merge`], asserted by the equivalence suite.
    pub fn shard_metrics(&self, core: usize) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let t = &self.core_totals[core];
        reg.counter("shard.accesses", t.accesses);
        reg.counter("shard.memory_accesses", t.memory_accesses);
        reg.counter("shard.mcdram_cache_hits", t.mcdram_cache_hits);
        reg.counter("shard.total_latency_ps", t.total_latency.as_ps());
        reg.gauge("shard.makespan_us", t.makespan.as_ns() / 1e3);
        let h = &self.hierarchies[core];
        reg.counter("cache.l1_hits", h.hits_at(LevelHit::L1));
        reg.counter("cache.l2_hits", h.hits_at(LevelHit::L2));
        reg.counter("cache.mcdram_cache_hits", h.hits_at(LevelHit::McdramCache));
        reg.counter("cache.memory_misses", h.hits_at(LevelHit::Memory));
        let m = &self.mshrs[core];
        reg.counter("mshr.allocations", m.allocations.get());
        reg.counter("mshr.merges", m.merges.get());
        reg.counter("mshr.stalls", m.stalls.get());
        if let Some(occ) = m.occupancy_histogram() {
            reg.histogram("mshr.occupancy", occ);
        }
        reg
    }

    /// Snapshot every instrumented component into one registry: the
    /// merged per-shard metrics, per-shard access gauges, both DRAM
    /// bank models, the mesh, and the streaming pipeline. Histogram
    /// metrics only appear once telemetry is enabled; counters and
    /// gauges are always available.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for c in 0..self.hierarchies.len() {
            reg.merge(&self.shard_metrics(c));
        }
        for (c, t) in self.core_totals.iter().enumerate() {
            reg.gauge(&format!("shard.{c}.accesses"), t.accesses as f64);
        }
        for (prefix, dev) in [("dram.ddr.", &self.ddr), ("dram.hbm.", &self.hbm)] {
            let s = dev.stats();
            reg.counter(&format!("{prefix}row_hits"), s.row_hits.get());
            reg.counter(&format!("{prefix}row_misses"), s.row_misses.get());
            reg.counter(&format!("{prefix}row_closed"), s.row_closed.get());
            reg.counter(&format!("{prefix}bank_conflicts"), s.bank_conflicts.get());
            if let Some(h) = dev.queue_wait_histogram() {
                reg.histogram(&format!("{prefix}queue_wait_ps"), h);
            }
        }
        let ms = self.mesh.stats();
        reg.counter("mesh.messages", ms.messages.get());
        reg.counter("mesh.hops", ms.hops.get());
        reg.counter("mesh.contended", ms.contended.get());
        if let Some(links) = self.mesh.link_traversals() {
            reg.gauge("mesh.links_used", links.len() as f64);
            let mut h = Histogram::new();
            for &(_, n) in &links {
                h.record(n);
            }
            reg.histogram("mesh.link_traversals", &h);
        }
        reg.counter(
            "pipeline.producer_stalls",
            self.last_pipe_stats.producer_stalls,
        );
        reg.counter(
            "pipeline.consumer_stalls",
            self.last_pipe_stats.consumer_stalls,
        );
        reg.gauge(
            "pipeline.queue_high_water",
            self.last_pipe_stats.queue_high_water as f64,
        );
        reg.gauge(
            "pipeline.buffered_accesses",
            self.peak_buffered_accesses as f64,
        );
        reg.gauge("replay.peak_buffer_bytes", self.last_peak_buffer as f64);
        let ts = &self.timing_stats;
        reg.counter("replay.timing.windows", ts.windows);
        if let Some(m) = &self.migration {
            let ms = m.stats();
            reg.counter("replay.migrate.rebalances", ms.rebalances);
            reg.counter("replay.migrate.promoted_pages", ms.promoted_pages);
            reg.counter("replay.migrate.demoted_pages", ms.demoted_pages);
            reg.counter("replay.migrate.bytes_moved", ms.bytes_moved);
            reg.counter("replay.migrate.sampled_accesses", ms.sampled_accesses);
            reg.counter("replay.migrate.hbm_routed", ms.hbm_routed);
            reg.gauge(
                "replay.migrate.migration_time_us",
                ms.migration_time.as_ns() / 1e3,
            );
            reg.gauge("replay.migrate.resident_pages", m.resident_pages() as f64);
            reg.gauge(
                "replay.migrate.peak_resident_pages",
                ms.peak_resident_pages as f64,
            );
            reg.histogram("replay.migrate.window_hbm_permille", m.window_histogram());
        }
        reg
    }

    /// DDR bank-model statistics (row hits/misses/conflicts).
    pub fn ddr_stats(&self) -> DramStats {
        self.ddr.stats()
    }

    /// MCDRAM bank-model statistics.
    pub fn hbm_stats(&self) -> DramStats {
        self.hbm.stats()
    }

    /// Combined device statistics (DDR + MCDRAM, merged).
    pub fn memory_stats(&self) -> DramStats {
        self.ddr.stats().merge(self.hbm.stats())
    }

    /// Mesh statistics (messages, hops, contention).
    pub fn mesh_stats(&self) -> mesh::MeshStats {
        self.mesh.stats()
    }

    /// Raw per-core totals accumulated so far (one entry per simulated
    /// core; shard `c` holds the contributions of accesses mapped to
    /// core `c`).
    pub fn per_core_totals(&self) -> &[ShardTotals] {
        &self.core_totals
    }

    /// Totals merged over all shards.
    pub fn totals(&self) -> ShardTotals {
        self.core_totals
            .iter()
            .fold(ShardTotals::default(), |a, &b| a.merge(b))
    }

    /// Peak bytes of trace data buffered inside the replay pipeline
    /// during the most recent `run*` call (per-core partitions plus
    /// classified batches; the caller's own trace storage is not
    /// counted). The streaming path exists to keep this bounded by
    /// the chunk size for workloads that spread work across cores.
    pub fn last_peak_trace_buffer_bytes(&self) -> usize {
        self.last_peak_buffer
    }

    /// Migration counters, if a scheduler is active (an enabled
    /// [`TracePlacement::Migrated`] spec in flat mode). The digest
    /// inside fingerprints the full `(tick, page, direction)` move
    /// sequence — the equivalence suite compares it across engines to
    /// prove remaps land at identical trace offsets.
    pub fn migration_stats(&self) -> Option<MigrationStats> {
        self.migration.as_ref().map(|m| m.stats().clone())
    }

    /// Dynamic tier lookup: the scheduler's resident set when
    /// migration is active, the static placement otherwise.
    #[inline]
    fn route_hbm(&self, addr: u64) -> bool {
        match &self.migration {
            Some(m) => m.is_hbm(addr),
            None => self.placement.is_hbm(addr),
        }
    }

    /// Count one analytic mesh message of `hops` hops: straight onto
    /// the shared counters per-access, or into the detached tally when
    /// batching — identical totals either way (pure sums), but the
    /// batched path touches one hot cache line instead of the mesh's
    /// counter pair on every memory access.
    #[inline]
    fn note_mesh_message(&mut self, hops: u64) {
        if self.mesh_batch {
            self.mesh_tally.note(hops);
        } else {
            self.mesh.note_analytic_message(hops);
        }
    }

    /// Fold the pending mesh tally into the shared counters. Called at
    /// classification-window / stream-chunk boundaries and from
    /// [`finish`](Self::finish), so [`mesh_stats`](Self::mesh_stats)
    /// is exact after any completed `run*` call.
    fn flush_mesh_tally(&mut self) {
        if !self.mesh_tally.is_empty() {
            self.mesh.absorb_tally(std::mem::take(&mut self.mesh_tally));
        }
    }

    /// Advance the migration clock by one consumed access. Every
    /// engine calls this exactly once per access, in the earliest-
    /// `(clock, core)` merge order, with the winner's pre-stall clock
    /// as `now` — the determinism contract the scheduler needs.
    #[inline]
    fn migrate_tick(&mut self, addr: u64, memory_level: bool, now: SimTime) {
        if let Some(m) = &mut self.migration {
            m.tick(addr, memory_level, now);
        }
    }

    /// Floor an arrival under the migration transit window: accesses
    /// to a page still being copied wait for the batch to land.
    #[inline]
    fn migrate_floor(&self, addr: u64, arrive: SimTime) -> SimTime {
        match &self.migration {
            Some(m) => m.transit_floor(addr, arrive),
            None => arrive,
        }
    }

    /// Replay one access; returns its latency.
    pub fn access(&mut self, t: TraceAccess) -> Duration {
        let core = partition_by_core(t.core, self.hierarchies.len());
        let kind = if t.write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let (level, sram_lat) = self.hierarchies[core].access(t.addr, kind);
        self.access_timed(core, t.addr, t.dependent, level, sram_lat)
    }

    /// The timing half of [`access`](Self::access): everything after
    /// the (timing-independent) private-hierarchy lookup. The
    /// sequential, parallel, and streaming paths all funnel through
    /// this one body, so they cannot diverge.
    fn access_timed(
        &mut self,
        core: usize,
        addr: u64,
        dependent: bool,
        level: LevelHit,
        sram_lat: Duration,
    ) -> Duration {
        // Migration ticks on the pre-stall clock of the consuming
        // core, so rebalances land at identical trace offsets in every
        // engine.
        let now0 = self.core_clock[core];
        self.migrate_tick(addr, level == LevelHit::Memory, now0);
        // The time-series tick shares the merge-order consumption
        // site with `migrate_tick`, so window boundaries land on the
        // same access in every engine. Sampling happens after this
        // access fully completes (see the tail of this function).
        let ts_due = self.ts_tick();
        let mut issue = self.core_clock[core];
        let mut done = issue + sram_lat;
        let mut merged = false;
        if level == LevelHit::Memory || level == LevelHit::McdramCache {
            // MSHR discipline: stall the core when its miss file is
            // full; merge duplicate in-flight lines.
            let line = addr & !(self.line_bytes - 1);
            loop {
                match self.mshrs[core].register(line, issue) {
                    MshrOutcome::Allocated => break,
                    MshrOutcome::Merged { ready_at } => {
                        done = ready_at.max(issue + sram_lat);
                        merged = true;
                        break;
                    }
                    MshrOutcome::Stall { free_at } => issue = free_at,
                }
            }
        }
        if !merged && (level == LevelHit::Memory || level == LevelHit::McdramCache) {
            done = issue + sram_lat; // the stall may have moved `issue`
            self.core_totals[core].memory_accesses += 1;
            // Mesh traversal to the serving port.
            let is_hbm_target = match (&self.msc, level) {
                (Some(_), LevelHit::McdramCache) => true,
                (Some(_), _) => false, // DDR behind the cache
                (None, _) => self.route_hbm(addr),
            };
            // Mesh traversal charged analytically: per-link flit
            // reservation is far too pessimistic at memory rates (the
            // KNL mesh is provisioned well beyond memory bandwidth),
            // so the request half of the average round trip is added
            // as latency instead. Messages and hops are still counted.
            self.note_mesh_message(if is_hbm_target {
                self.hops_hbm
            } else {
                self.hops_ddr
            });
            let arrive = done
                + if is_hbm_target {
                    self.resp_half_hbm
                } else {
                    self.resp_half_ddr
                };
            // A page mid-migration is unreachable until its batch
            // lands; the floor is a no-op when migration is off.
            let arrive = self.migrate_floor(addr, arrive);
            // Device service.
            let served = match (&mut self.msc, level) {
                (Some(_), LevelHit::McdramCache) => {
                    self.core_totals[core].mcdram_cache_hits += 1;
                    self.hbm.access(addr, arrive)
                }
                (Some(_), _) => {
                    // Tag probe in MCDRAM, then the DDR fetch, then the
                    // fill write into MCDRAM (fill not on critical path).
                    let tag_done = self.hbm.access(addr, arrive);
                    let data = self.ddr.access(addr, tag_done);
                    let _fill = self.hbm.access(addr, data);
                    data
                }
                (None, _) => {
                    if is_hbm_target {
                        self.hbm.access(addr, arrive)
                    } else {
                        self.ddr.access(addr, arrive)
                    }
                }
            };
            // Response traverses the mesh back (charged as latency, no
            // link reservation: response links mirror request links).
            done = served
                + if is_hbm_target {
                    self.resp_half_hbm
                } else {
                    self.resp_half_ddr
                };
            self.mshrs[core].complete_at(addr & !(self.line_bytes - 1), done);
            if self.timeseries.is_some() {
                self.ts_note_memory(level, is_hbm_target, arrive, done);
            }
        }
        let latency = done.since(issue);
        // Dependent accesses serialize on completion; independent ones
        // only occupy the core for an issue slot.
        self.core_clock[core] = if dependent {
            done
        } else {
            issue + Duration::from_cycles(1, crate::calib::CORE_GHZ)
        };
        let totals = &mut self.core_totals[core];
        totals.accesses += 1;
        totals.total_latency += latency;
        let makespan_end = done.since(SimTime::ZERO);
        if makespan_end > totals.makespan {
            totals.makespan = makespan_end;
        }
        if ts_due {
            self.ts_sample(now0);
        }
        latency
    }

    /// Replay a whole trace and return the report.
    ///
    /// Per-core program order is preserved, but across cores the
    /// simulator always advances the core with the earliest clock —
    /// otherwise cores that drift ahead would reserve mesh links and
    /// bank slots "in the future" and laggards would queue behind
    /// phantom traffic.
    pub fn run(&mut self, trace: &[TraceAccess]) -> TraceSimReport {
        let cores = self.hierarchies.len();
        let t_partition = self.telemetry.is_some().then(Instant::now);
        let mut queues: Vec<VecDeque<TraceAccess>> = vec![VecDeque::new(); cores];
        for &t in trace {
            queues[partition_by_core(t.core, cores)].push_back(t);
        }
        self.last_peak_buffer = trace.len() * std::mem::size_of::<TraceAccess>();
        self.peak_buffered_accesses = trace.len();
        self.last_pipe_stats = par::PipeStats::default();
        if let (Some(log), Some(t0)) = (&mut self.telemetry, t_partition) {
            log.end(
                t0,
                "partition",
                "replay",
                0,
                [("accesses", trace.len() as f64)],
            );
        }
        // The sequential path classifies inside the merge loop, so one
        // span covers both.
        let t_merge = self.telemetry.is_some().then(Instant::now);
        let mut tree: LoserTree<SimTime> = LoserTree::new(cores);
        for (c, q) in queues.iter().enumerate() {
            if !q.is_empty() {
                tree.set(c, self.core_clock[c]);
            }
        }
        while let Some(c) = tree.winner() {
            let t = queues[c].pop_front().expect("open slot has work");
            self.access(t);
            if queues[c].is_empty() {
                tree.close(c);
            } else {
                tree.set(c, self.core_clock[c]);
            }
        }
        if let (Some(log), Some(t0)) = (&mut self.telemetry, t_merge) {
            log.end(t0, "merge", "replay", 0, [("accesses", trace.len() as f64)]);
        }
        self.finish()
    }

    /// Replay a whole trace with the classification phase sharded
    /// across [`worker_threads`] worker threads and the timing phase
    /// run inline; bit-identical to [`run`](Self::run) at every worker
    /// count.
    ///
    /// The trace is consumed in classification *windows* of
    /// [`set_replay_window`](Self::set_replay_window) accesses: each
    /// window is partitioned by core (preserving per-core program
    /// order), classified in parallel through the per-shard private
    /// hierarchies into SoA batches, and drained through the same
    /// earliest-clock tournament the sequential path uses. A core
    /// whose batch runs dry but which still has undiscovered accesses
    /// stays in the tree as a *ghost* keyed by its clock — exactly
    /// where the sequential tree would hold it — and a ghost winning
    /// triggers the next window refill, so the merge order is exact
    /// while peak buffering stays near one window instead of the whole
    /// trace.
    pub fn run_parallel(&mut self, trace: &[TraceAccess]) -> TraceSimReport {
        self.run_windowed(ReplayInput::Raw { trace, next: 0 })
    }

    /// Replay a prebuilt [`ClassifiedTrace`] artifact: the timing-only
    /// fast path of the classify-once / replay-many sweep engine. The
    /// generators never run and the private cache hierarchies are
    /// never consulted — each refill is a memcpy of the artifact's SoA
    /// slices — yet the merge discipline, MSHR/mesh/bank models,
    /// migration ticks, and worker counts behave exactly as in
    /// [`run_parallel`](Self::run_parallel), so the report and every
    /// device statistic are **bit-identical** to a fresh
    /// [`run`](Self::run) of the same trace (the differential suite
    /// proves it across generators × setups × workers).
    ///
    /// Because classification never happens here, this simulator's
    /// private-hierarchy counters stay at zero; classification-stage
    /// totals live on the artifact ([`ClassifiedTrace::level_hits`]).
    ///
    /// # Panics
    ///
    /// When the artifact does not fit this simulator: core count or
    /// [`classify_signature`](Self::classify_signature) mismatch —
    /// replaying it would be silently wrong, which is exactly what the
    /// [`ClassifyKey`](crate::classified::ClassifyKey) exists to
    /// prevent (a changed key must invalidate, not alias).
    pub fn run_classified(&mut self, ct: &ClassifiedTrace) -> TraceSimReport {
        let cores = self.hierarchies.len();
        assert_eq!(
            ct.cores() as usize,
            cores,
            "classified trace built for {} cores cannot replay on {} cores",
            ct.cores(),
            cores
        );
        assert_eq!(
            ct.key().classify_sig(),
            self.classify_sig,
            "classified trace key {:?} does not match this simulator's \
             classification signature {:?} — rebuild the artifact",
            ct.key().classify_sig(),
            self.classify_sig
        );
        self.run_windowed(ReplayInput::Classified {
            ct,
            next: vec![0; cores],
        })
    }

    /// The windowed replay behind [`run_parallel`](Self::run_parallel)
    /// and [`run_classified`](Self::run_classified): the merge
    /// discipline of [`run`](Self::run), with ghost-slot refills
    /// classifying (or copying) the next window on [`worker_threads`]
    /// workers.
    fn run_windowed(&mut self, mut input: ReplayInput<'_>) -> TraceSimReport {
        let cores = self.hierarchies.len();
        self.last_pipe_stats = par::PipeStats::default();
        self.last_peak_buffer = 0;
        self.peak_buffered_accesses = 0;
        self.timing_stats = TimingEngineStats::default();
        // How many accesses each shard will eventually receive, so a
        // dry batch can be told apart from a finished core.
        let mut remaining = match &input {
            ReplayInput::Raw { trace, .. } => {
                if trace.is_empty() {
                    return self.finish();
                }
                let t_partition = self.telemetry.is_some().then(Instant::now);
                let mut remaining = vec![0usize; cores];
                for &t in trace.iter() {
                    remaining[partition_by_core(t.core, cores)] += 1;
                }
                if let (Some(log), Some(t0)) = (&mut self.telemetry, t_partition) {
                    log.end(
                        t0,
                        "partition",
                        "replay",
                        0,
                        [("accesses", trace.len() as f64)],
                    );
                }
                remaining
            }
            ReplayInput::Classified { ct, .. } => {
                if ct.accesses() == 0 {
                    return self.finish();
                }
                (0..cores).map(|c| ct.per_core_len(c)).collect()
            }
        };
        let window = self.replay_window.max(1);
        par::with_threads(worker_threads(), || {
            let mut shards = self.take_shards();
            let mut tree: LoserTree<SimTime> = LoserTree::new(cores);
            for (c, &left) in remaining.iter().enumerate() {
                if left > 0 {
                    tree.set(c, self.core_clock[c]);
                }
            }
            let tel_on = self.telemetry.is_some();
            let mut t_merge = tel_on.then(Instant::now);
            let mut drained = 0u64;
            while let Some(c) = tree.winner() {
                if shards[c].queue.is_empty() {
                    // Ghost: this core's clock is the earliest but its
                    // next access is still unclassified — pull the next
                    // window.
                    self.end_merge_span(t_merge, drained);
                    drained = 0;
                    let refilled =
                        self.refill_window(&mut input, window, &mut shards, &mut remaining);
                    assert!(refilled, "ghost winner with no trace left");
                    t_merge = tel_on.then(Instant::now);
                    continue;
                }
                let (addr, sram_lat, dependent, level) =
                    shards[c].queue.pop().expect("non-empty batch");
                self.access_timed(c, addr, dependent, level, sram_lat);
                drained += 1;
                if shards[c].queue.is_empty() && remaining[c] == 0 {
                    tree.close(c);
                } else {
                    tree.set(c, self.core_clock[c]);
                }
            }
            self.end_merge_span(t_merge, drained);
            self.hierarchies = shards.into_iter().map(|u| u.hier).collect();
        });
        self.finish()
    }

    /// Move the private hierarchies into per-core replay shards; the
    /// caller puts them back when the replay ends.
    fn take_shards(&mut self) -> Vec<StreamShard> {
        std::mem::take(&mut self.hierarchies)
            .into_iter()
            .map(|hier| StreamShard {
                hier,
                pending: Vec::new(),
                queue: ClassifiedSoa::new(),
            })
            .collect()
    }

    /// Close a `merge` span over the `drained` accesses consumed since
    /// `t0` (nothing when telemetry is off or nothing was drained).
    fn end_merge_span(&mut self, t0: Option<Instant>, drained: u64) {
        if drained > 0 {
            if let (Some(log), Some(t0)) = (&mut self.telemetry, t0) {
                log.end(t0, "merge", "replay", 0, [("accesses", drained as f64)]);
            }
        }
    }

    /// Refill the per-shard batches with the next window of input —
    /// classifying a raw trace slice, or copying prebuilt slices from
    /// a [`ClassifiedTrace`]. Returns `false` when the input is
    /// exhausted. Also the window boundary at which the batched mesh
    /// tally folds back into the shared counters.
    fn refill_window(
        &mut self,
        input: &mut ReplayInput<'_>,
        window: usize,
        shards: &mut [StreamShard],
        remaining: &mut [usize],
    ) -> bool {
        self.flush_mesh_tally();
        let cores = shards.len();
        let mut raw_bytes = 0usize;
        match input {
            ReplayInput::Raw { trace, next } => {
                if *next >= trace.len() {
                    return false;
                }
                let end = (*next + window).min(trace.len());
                let slice = &trace[*next..end];
                let t_classify = self.telemetry.is_some().then(Instant::now);
                for &t in slice {
                    let c = partition_by_core(t.core, cores);
                    shards[c].pending.push(t);
                    remaining[c] -= 1;
                }
                par::par_update(shards, |_, u| {
                    classify_into(&mut u.hier, &mut u.pending, &mut u.queue);
                });
                raw_bytes = slice.len() * std::mem::size_of::<TraceAccess>();
                *next = end;
                if let (Some(log), Some(t0)) = (&mut self.telemetry, t_classify) {
                    log.end(
                        t0,
                        "classify",
                        "replay",
                        0,
                        [("accesses", slice.len() as f64)],
                    );
                }
            }
            ReplayInput::Classified { ct, next } => {
                // Top up every dry core with its next slice; cores
                // split the window budget evenly, so a full refill
                // copies at most ~one window across all shards.
                let per_core = (window / cores.max(1)).max(1);
                let mut copied = 0usize;
                for (c, shard) in shards.iter_mut().enumerate() {
                    if remaining[c] == 0 || !shard.queue.is_empty() {
                        continue;
                    }
                    let take = per_core.min(remaining[c]);
                    let start = next[c];
                    let (addr, lat_ps, flags) = ct.core_arrays(c);
                    shard.queue.compact();
                    shard.queue.extend_from_arrays(
                        &addr[start..start + take],
                        &lat_ps[start..start + take],
                        &flags[start..start + take],
                    );
                    next[c] = start + take;
                    remaining[c] -= take;
                    copied += take;
                }
                if copied == 0 {
                    return false;
                }
            }
        }
        let mut buffered = raw_bytes;
        let mut backlog = 0usize;
        for u in shards.iter() {
            buffered += u.queue.buffered_bytes();
            backlog += u.queue.len();
        }
        self.last_peak_buffer = self.last_peak_buffer.max(buffered);
        self.peak_buffered_accesses = self.peak_buffered_accesses.max(backlog);
        self.timing_stats.windows += 1;
        true
    }

    /// Replay a trace pulled incrementally from `fill`, overlapping
    /// generation with classification and timing; bit-identical to
    /// [`run`](Self::run) on the concatenation of the filled chunks.
    ///
    /// `fill` appends the next bounded chunk of the trace to the given
    /// buffer and returns how many accesses it added; returning 0 ends
    /// the stream. It runs on a producer thread behind a depth-2
    /// bounded queue ([`par::pipelined`]), so chunk `n + 1` is
    /// generated while chunk `n` is classified and replayed. Within
    /// the consumer, each refill is partitioned by core and classified
    /// on [`worker_threads`] workers exactly as in
    /// [`run_parallel`](Self::run_parallel).
    ///
    /// The timing merge only selects a winner while every core that
    /// could still receive work has at least one classified access
    /// buffered — an empty queue's *next* access (still unseen) could
    /// carry the earliest clock, and picking around it would diverge
    /// from the sequential order. Workloads that spread accesses
    /// across cores therefore buffer about one chunk; a workload
    /// confined to a subset of cores (a single-core pointer chase is
    /// the extreme) buffers the full classified trace, trading memory,
    /// never correctness.
    ///
    /// [`set_streaming_lookahead_chunks`](Self::set_streaming_lookahead_chunks)
    /// (or `TRACESIM_LOOKAHEAD_CHUNKS`) bounds that buildup: when the
    /// classified backlog exceeds `cap × max_chunk` accesses the
    /// consumer stops refilling and force-drains the cores that do
    /// have work (the depth-2 pipe then backpressures the producer),
    /// until the backlog halves. Draining around an empty core is
    /// exact whenever that core never receives an earlier-clocked
    /// access later — vacuously true for the single-core traces that
    /// trigger unbounded buildup, which is what the cap is for. On
    /// workloads that *do* later feed the starved cores the capped
    /// replay is a bounded-memory approximation rather than
    /// bit-identical, so the cap is off by default.
    pub fn run_streaming(
        &mut self,
        mut fill: impl FnMut(&mut Vec<TraceAccess>) -> usize + Send,
    ) -> TraceSimReport {
        let cores = self.hierarchies.len();
        self.last_peak_buffer = 0;
        self.peak_buffered_accesses = 0;
        let tel_on = self.telemetry.is_some();
        // Explicit setter wins over the environment; 0 or unset means
        // uncapped (the bit-exact default).
        // Garbage values warn once via `simfabric::env` — the same
        // contract as every other `TRACESIM_*` knob.
        let lookahead_cap = self
            .stream_lookahead_chunks
            .or_else(|| simfabric::env::usize_var("TRACESIM_LOOKAHEAD_CHUNKS"))
            .filter(|&n| n > 0);
        let mut units = self.take_shards();
        let ((), pipe_stats) = par::with_threads(worker_threads(), || {
            par::pipelined_stats(
                2,
                move || {
                    // Time each generation burst on the producer side;
                    // the instants travel with the chunk because the
                    // span log lives on the consumer thread.
                    let started = tel_on.then(Instant::now);
                    let mut buf = Vec::new();
                    let n = fill(&mut buf);
                    (n > 0).then(|| (buf, started.map(|s| (s, Instant::now()))))
                },
                |rx| {
                    let mut tree: LoserTree<SimTime> = LoserTree::new(cores);
                    let mut stream_done = false;
                    // Cores whose queue is empty but could still gain
                    // work; no winner may be selected while any exist.
                    let mut hungry = cores;
                    let mut max_chunk = 0usize;
                    // Classified accesses buffered across all queues,
                    // kept incrementally for the lookahead cap.
                    let mut backlog = 0usize;
                    // When set, refills pause (backpressuring the
                    // producer through the bounded pipe) and the
                    // non-empty queues drain until the backlog halves.
                    let mut force_drain = false;
                    loop {
                        while hungry > 0 && !stream_done && !force_drain {
                            let Some((chunk, generated)) = rx.recv() else {
                                stream_done = true;
                                hungry = 0;
                                break;
                            };
                            if let (Some(log), Some((s, e))) = (&mut self.telemetry, generated) {
                                log.span_between(
                                    s,
                                    e,
                                    "generate",
                                    "replay",
                                    1,
                                    [("accesses", chunk.len() as f64)],
                                );
                            }
                            let t_classify = tel_on.then(Instant::now);
                            let chunk_bytes = chunk.len() * std::mem::size_of::<TraceAccess>();
                            max_chunk = max_chunk.max(chunk.len());
                            for &t in &chunk {
                                units[partition_by_core(t.core, cores)].pending.push(t);
                            }
                            par::par_update(&mut units, |_, u| {
                                classify_into(&mut u.hier, &mut u.pending, &mut u.queue);
                            });
                            // Chunk boundary: fold the batched mesh
                            // tally back into the shared counters.
                            self.flush_mesh_tally();
                            if let (Some(log), Some(t0)) = (&mut self.telemetry, t_classify) {
                                log.end(
                                    t0,
                                    "classify",
                                    "replay",
                                    0,
                                    [("accesses", chunk.len() as f64)],
                                );
                            }
                            hungry = 0;
                            let mut buffered = chunk_bytes;
                            backlog = 0;
                            for (c, u) in units.iter().enumerate() {
                                buffered += u.queue.buffered_bytes();
                                backlog += u.queue.len();
                                if u.queue.is_empty() {
                                    hungry += 1;
                                } else if tree.key(c).is_none() {
                                    tree.set(c, self.core_clock[c]);
                                }
                            }
                            self.last_peak_buffer = self.last_peak_buffer.max(buffered);
                            self.peak_buffered_accesses = self.peak_buffered_accesses.max(backlog);
                            if let Some(cap) = lookahead_cap {
                                if backlog > cap.saturating_mul(max_chunk) {
                                    force_drain = true;
                                }
                            }
                            if lookahead_cap.is_none() {
                                if let Some(msg) = buffer_warning(backlog, max_chunk) {
                                    simfabric::env::warn_once("tracesim.buffer_backlog", &msg);
                                }
                            }
                        }
                        // Drain winners until a queue runs dry while
                        // the stream can still refill it (then loop
                        // back to the refill phase) or until the tree
                        // empties; one merge span covers each segment.
                        let t_merge = tel_on.then(Instant::now);
                        let mut drained = 0u64;
                        while let Some(c) = tree.winner() {
                            let (addr, sram_lat, dependent, level) =
                                units[c].queue.pop().expect("winner has work");
                            self.access_timed(c, addr, dependent, level, sram_lat);
                            drained += 1;
                            backlog -= 1;
                            if units[c].queue.is_empty() {
                                tree.close(c);
                                if !stream_done {
                                    hungry += 1;
                                }
                            } else {
                                tree.set(c, self.core_clock[c]);
                            }
                            if force_drain {
                                // Hysteresis: drain to half the cap so
                                // refill and drain don't ping-pong on
                                // every chunk.
                                let cap = lookahead_cap.expect("force_drain only with a cap");
                                if backlog * 2 <= cap.saturating_mul(max_chunk) {
                                    force_drain = false;
                                    if hungry > 0 && !stream_done {
                                        break;
                                    }
                                }
                            } else if hungry > 0 && !stream_done {
                                break;
                            }
                        }
                        // All queues ran dry under force-drain: nothing
                        // left to drain, so resume refilling.
                        if force_drain && tree.winner().is_none() {
                            force_drain = false;
                        }
                        self.end_merge_span(t_merge, drained);
                        if stream_done && tree.winner().is_none() {
                            break;
                        }
                    }
                },
            )
        });
        self.last_pipe_stats = pipe_stats;
        self.hierarchies = units.into_iter().map(|u| u.hier).collect();
        self.finish()
    }

    /// Finalize and return the report (the order-independent reduction
    /// of the per-core totals). Idempotent, and safe on an empty run.
    /// Also folds any batched mesh accounting into the shared
    /// counters, so mesh statistics are exact after every `run*` call.
    pub fn finish(&mut self) -> TraceSimReport {
        self.flush_mesh_tally();
        if self.timeseries.is_some() {
            // Close the trailing partial window. The far-future probe
            // time sees every MSHR entry as retired (`ready <= now`
            // fails for none of them), so the final in-flight gauge is
            // zero in every engine; `close_window` is a no-op when the
            // run ended exactly on a boundary, keeping `finish`
            // idempotent.
            self.ts_sample(SimTime::from_ps(u64::MAX));
        }
        let t_finish = self.telemetry.is_some().then(Instant::now);
        let report = self.totals().into_report(self.line_bytes);
        if let (Some(log), Some(t0)) = (&mut self.telemetry, t_finish) {
            log.end(
                t0,
                "finish",
                "replay",
                0,
                [
                    ("accesses", report.accesses as f64),
                    ("sim_us", report.makespan.as_ns() / 1e3),
                ],
            );
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(setup: MemSetup) -> MachineConfig {
        MachineConfig::knl7210(setup, 64)
    }

    fn stream_trace(cores: u32, lines_per_core: u64) -> Vec<TraceAccess> {
        // Disjoint ~22-MB-apart streams per core, issued in bursts of
        // 16 consecutive lines (the natural issue pattern of a
        // prefetching core draining its MSHR file). The per-core base
        // deliberately avoids power-of-two strides: physically
        // scattered pages never alias all cores onto one bank, and
        // neither should a synthetic trace.
        const BURST: u64 = 16;
        let base = |c: u32| (c as u64 * 23_456_789) & !63;
        let mut t = Vec::new();
        let mut i = 0;
        while i < lines_per_core {
            for c in 0..cores {
                for j in i..(i + BURST).min(lines_per_core) {
                    t.push(TraceAccess::read(c, base(c) + j * 64));
                }
            }
            i += BURST;
        }
        t
    }

    fn chase_trace(core: u32, steps: u64, stride: u64) -> Vec<TraceAccess> {
        (0..steps)
            .map(|i| TraceAccess::chase(core, (i * stride) % (1 << 30)))
            .collect()
    }

    #[test]
    fn hbm_streams_faster_than_ddr() {
        // Full 64-core machine: DDR is bus-bound, HBM is concurrency-
        // bound, reproducing the Fig. 2 ordering at trace level.
        let trace = stream_trace(64, 1_000);
        let mut ddr = TraceSim::new(
            &cfg(MemSetup::DramOnly),
            64,
            TracePlacement::AllDdr,
            ByteSize::mib(1),
        );
        let mut hbm = TraceSim::new(
            &cfg(MemSetup::HbmOnly),
            64,
            TracePlacement::AllHbm,
            ByteSize::mib(1),
        );
        let rd = ddr.run(&trace);
        let rh = hbm.run(&trace);
        assert!(
            rh.bandwidth_gbs > rd.bandwidth_gbs * 2.0,
            "hbm {} vs ddr {}",
            rh.bandwidth_gbs,
            rd.bandwidth_gbs
        );
        // DDR lands in the neighbourhood of its sustained constant.
        assert!(
            rd.bandwidth_gbs > 40.0 && rd.bandwidth_gbs < 130.0,
            "ddr {}",
            rd.bandwidth_gbs
        );
    }

    #[test]
    fn ddr_chases_faster_than_hbm() {
        // Large-stride dependent chase: pure latency.
        let trace = chase_trace(0, 3_000, 4 * 1024 * 1024 + 64);
        let mut ddr = TraceSim::new(
            &cfg(MemSetup::DramOnly),
            1,
            TracePlacement::AllDdr,
            ByteSize::mib(1),
        );
        let mut hbm = TraceSim::new(
            &cfg(MemSetup::HbmOnly),
            1,
            TracePlacement::AllHbm,
            ByteSize::mib(1),
        );
        let rd = ddr.run(&trace);
        let rh = hbm.run(&trace);
        assert!(
            rh.avg_latency > rd.avg_latency,
            "hbm {} vs ddr {}",
            rh.avg_latency,
            rd.avg_latency
        );
        // Both in the >100 ns regime once the caches stop helping.
        assert!(rd.avg_latency.as_ns() > 80.0, "ddr {}", rd.avg_latency);
    }

    #[test]
    fn cache_mode_hits_when_fitting() {
        // 4-MB working set (exceeds the 1-MB L2, fits the 8-MB MSC)
        // streamed twice: the second pass should hit the MSC.
        let lines = 4 * 1024 * 1024 / 64u64;
        let mut trace = Vec::new();
        for _pass in 0..2 {
            for i in 0..lines {
                trace.push(TraceAccess::read(0, i * 64));
            }
        }
        let mut sim = TraceSim::new(
            &cfg(MemSetup::CacheMode),
            1,
            TracePlacement::AllDdr,
            ByteSize::mib(8),
        );
        let r = sim.run(&trace);
        assert!(r.mcdram_cache_hits > lines / 2, "too few MSC hits: {r:?}");
    }

    #[test]
    fn l2_resident_trace_never_reaches_memory() {
        let mut sim = TraceSim::new(
            &cfg(MemSetup::DramOnly),
            1,
            TracePlacement::AllDdr,
            ByteSize::mib(1),
        );
        let mut trace = Vec::new();
        for _ in 0..4 {
            for i in 0..1024u64 {
                trace.push(TraceAccess::read(0, i * 64)); // 64 KiB set
            }
        }
        let r = sim.run(&trace);
        assert_eq!(r.accesses, 4096);
        // Only the first pass misses.
        assert!(
            r.memory_accesses <= 1024,
            "memory accesses {}",
            r.memory_accesses
        );
    }

    #[test]
    fn report_averages_are_consistent() {
        let mut sim = TraceSim::new(
            &cfg(MemSetup::DramOnly),
            2,
            TracePlacement::AllDdr,
            ByteSize::mib(1),
        );
        let r = sim.run(&stream_trace(2, 100));
        assert_eq!(r.accesses, 200);
        assert!(r.avg_latency > Duration::ZERO);
        assert!(r.makespan > Duration::ZERO);
    }

    #[test]
    fn finish_after_empty_trace_is_zeroed() {
        // Regression: finishing with zero accesses must return an
        // all-zero report, not divide by zero in the averages.
        let mut sim = TraceSim::new(
            &cfg(MemSetup::DramOnly),
            4,
            TracePlacement::AllDdr,
            ByteSize::mib(1),
        );
        assert_eq!(sim.finish(), TraceSimReport::default());
        assert_eq!(sim.run(&[]), TraceSimReport::default());
        assert_eq!(sim.run_parallel(&[]), TraceSimReport::default());
    }

    #[test]
    fn merged_shard_totals_match_whole_trace_totals() {
        // Mixed read/write/chase trace across four cores: the per-core
        // shard totals must reduce — in any order — to exactly the
        // whole-trace report (guards the deterministic merge).
        let mut trace = stream_trace(4, 200);
        for i in 0..400u64 {
            trace.push(TraceAccess::write((i % 4) as u32, 1 << 20 | i * 64));
        }
        trace.extend(chase_trace(2, 300, 2 * 1024 * 1024 + 64));
        let mut sim = TraceSim::new(
            &cfg(MemSetup::DramOnly),
            4,
            TracePlacement::AllDdr,
            ByteSize::mib(1),
        );
        let report = sim.run(&trace);
        let parts = sim.per_core_totals().to_vec();
        assert_eq!(parts.len(), 4);
        assert!(parts.iter().all(|p| p.accesses > 0));
        let forward = parts
            .iter()
            .fold(ShardTotals::default(), |a, &b| a.merge(b));
        let reverse = parts
            .iter()
            .rev()
            .fold(ShardTotals::default(), |a, &b| a.merge(b));
        let rotated = parts
            .iter()
            .cycle()
            .skip(2)
            .take(parts.len())
            .fold(ShardTotals::default(), |a, &b| a.merge(b));
        assert_eq!(forward, reverse);
        assert_eq!(forward, rotated);
        assert_eq!(forward.accesses, trace.len() as u64);
        assert_eq!(forward.into_report(64), report);
    }

    #[test]
    fn parallel_replay_matches_sequential_in_unit() {
        // Small smoke version of tests/parallel_equivalence.rs: the
        // sharded path must be bit-identical to the reference at
        // several worker counts (including more workers than cores),
        // and with a window far smaller than the trace so refills and
        // ghost slots are exercised.
        let trace = stream_trace(4, 300);
        let mut seq = TraceSim::new(
            &cfg(MemSetup::DramOnly),
            4,
            TracePlacement::AllDdr,
            ByteSize::mib(1),
        );
        let expect = seq.run(&trace);
        for workers in [1, 2, 4, 8, 64] {
            for window in [None, Some(64)] {
                let mut par_sim = TraceSim::new(
                    &cfg(MemSetup::DramOnly),
                    4,
                    TracePlacement::AllDdr,
                    ByteSize::mib(1),
                );
                if let Some(w) = window {
                    par_sim.set_replay_window(w);
                }
                let got = par::with_threads(workers, || par_sim.run_parallel(&trace));
                let at = format!("workers={workers} window={window:?}");
                assert_eq!(got, expect, "{at}");
                assert_eq!(par_sim.ddr_stats(), seq.ddr_stats(), "{at}");
                assert_eq!(par_sim.mesh_stats(), seq.mesh_stats(), "{at}");
                if window.is_some() {
                    assert!(
                        par_sim.last_timing_stats().windows > 1,
                        "{at}: a 64-access window over {} accesses must refill",
                        trace.len()
                    );
                }
            }
        }
    }

    #[test]
    fn windowed_replay_buffers_less_than_whole_trace() {
        // The windowed parallel path should hold ~one window of
        // classified accesses, not the full trace.
        let trace = stream_trace(4, 2000);
        let mut sim = TraceSim::new(
            &cfg(MemSetup::DramOnly),
            4,
            TracePlacement::AllDdr,
            ByteSize::mib(1),
        );
        sim.set_replay_window(128);
        let mut reference = TraceSim::new(
            &cfg(MemSetup::DramOnly),
            4,
            TracePlacement::AllDdr,
            ByteSize::mib(1),
        );
        let expect = reference.run(&trace);
        let got = par::with_threads(2, || sim.run_parallel(&trace));
        assert_eq!(got, expect);
        assert!(
            sim.last_peak_buffered_accesses() < trace.len() / 2,
            "peak {} should be window-bounded, trace is {}",
            sim.last_peak_buffered_accesses(),
            trace.len()
        );
    }

    #[test]
    fn streaming_lookahead_cap_bounds_single_core_backlog() {
        // A single-core pointer chase on a multi-core sim is the
        // pathological streaming case: every other queue stays empty,
        // so the uncapped pipeline materializes the whole classified
        // trace. The cap must bound the backlog near cap × chunk while
        // staying bit-identical (the starved cores never receive work,
        // so draining around them is vacuously exact).
        let total = 6000usize;
        let chunk = 250usize;
        let make_fill = move || {
            let mut produced = 0usize;
            move |buf: &mut Vec<TraceAccess>| {
                let n = chunk.min(total - produced);
                for i in 0..n {
                    let j = (produced + i) as u64;
                    // Dependent chase with a large stride: misses that
                    // serialize, so the backlog grows chunk by chunk.
                    buf.push(TraceAccess::chase(1, (j * 4096 + 64) % (1 << 30)));
                }
                produced += n;
                n
            }
        };
        let mut seq = TraceSim::new(
            &cfg(MemSetup::DramOnly),
            8,
            TracePlacement::AllDdr,
            ByteSize::mib(1),
        );
        let expect = seq.run_streaming(make_fill());
        let mut uncapped = TraceSim::new(
            &cfg(MemSetup::DramOnly),
            8,
            TracePlacement::AllDdr,
            ByteSize::mib(1),
        );
        let got_uncapped = par::with_threads(2, || uncapped.run_streaming(make_fill()));
        assert_eq!(got_uncapped, expect);
        assert!(
            uncapped.last_peak_buffered_accesses() > total / 2,
            "uncapped single-core backlog should approach the trace \
             ({} of {total})",
            uncapped.last_peak_buffered_accesses(),
        );
        let cap = 4usize;
        let mut capped = TraceSim::new(
            &cfg(MemSetup::DramOnly),
            8,
            TracePlacement::AllDdr,
            ByteSize::mib(1),
        );
        capped.set_streaming_lookahead_chunks(Some(cap));
        let got_capped = par::with_threads(2, || capped.run_streaming(make_fill()));
        assert_eq!(
            got_capped, expect,
            "capped single-core replay must stay exact"
        );
        let bound = (cap + 2) * chunk;
        assert!(
            capped.last_peak_buffered_accesses() <= bound,
            "capped backlog {} exceeds {bound}",
            capped.last_peak_buffered_accesses(),
        );
    }

    #[test]
    fn partition_wraps_out_of_range_cores() {
        // Traces may name more cores than the simulator has; ids wrap
        // modulo the shard count so shard order stays deterministic.
        assert_eq!(partition_by_core(0, 4), 0);
        assert_eq!(partition_by_core(3, 4), 3);
        assert_eq!(partition_by_core(4, 4), 0);
        assert_eq!(partition_by_core(7, 4), 3);
        assert_eq!(partition_by_core(63, 64), 63);
        assert_eq!(partition_by_core(64, 64), 0);
        assert_eq!(partition_by_core(1_000_003, 64), 1_000_003 % 64);
        assert_eq!(partition_by_core(5, 1), 0);
    }

    #[test]
    fn thread_count_parsing() {
        // Empty and garbage are rejected (worker_threads then warns
        // once and falls back to the machine default); numbers —
        // including 0 — parse, and the clamp maps them into [1, cores].
        assert_eq!(parse_thread_count(""), None);
        assert_eq!(parse_thread_count("   "), None);
        assert_eq!(parse_thread_count("garbage"), None);
        assert_eq!(parse_thread_count("-4"), None);
        assert_eq!(parse_thread_count("4x"), None);
        assert_eq!(parse_thread_count("0"), Some(0));
        assert_eq!(parse_thread_count(" 0 "), Some(0));
        assert_eq!(parse_thread_count("4"), Some(4));
        assert_eq!(parse_thread_count(" 8 "), Some(8));
        assert_eq!(parse_thread_count("1"), Some(1));
    }

    #[test]
    fn thread_count_clamping() {
        // TRACESIM_THREADS=0 and over-subscription both clamp into
        // [1, cores] instead of erroring or oversubscribing.
        assert_eq!(clamp_thread_count(0, 8), 1);
        assert_eq!(clamp_thread_count(1, 8), 1);
        assert_eq!(clamp_thread_count(8, 8), 8);
        assert_eq!(clamp_thread_count(64, 8), 8);
        assert_eq!(clamp_thread_count(3, 8), 3);
        // Degenerate core counts never clamp to zero.
        assert_eq!(clamp_thread_count(0, 0), 1);
        assert_eq!(clamp_thread_count(5, 0), 1);
    }
    #[test]
    fn classified_flags_roundtrip() {
        for write in [false, true] {
            for dependent in [false, true] {
                for level in [
                    LevelHit::L1,
                    LevelHit::L2,
                    LevelHit::McdramCache,
                    LevelHit::Memory,
                ] {
                    let f = pack_flags(write, dependent, level);
                    assert_eq!(unpack_dependent(f), dependent);
                    assert_eq!(unpack_level(f), level);
                    assert_eq!(f & 1 != 0, write);
                }
            }
        }
    }

    #[test]
    fn classified_soa_fifo_and_compaction() {
        let mut q = ClassifiedSoa::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        for i in 0..10u64 {
            q.push(
                i * 64,
                Duration::from_ps(i),
                i % 2 == 0,
                i % 3 == 0,
                LevelHit::Memory,
            );
        }
        assert_eq!(q.len(), 10);
        for i in 0..4u64 {
            let (addr, lat, dep, level) = q.pop().unwrap();
            assert_eq!(addr, i * 64);
            assert_eq!(lat, Duration::from_ps(i));
            assert_eq!(dep, i % 3 == 0);
            assert_eq!(level, LevelHit::Memory);
        }
        let before = q.buffered_bytes();
        q.compact();
        assert_eq!(q.len(), 6);
        assert_eq!(q.buffered_bytes(), before);
        let (addr, ..) = q.pop().unwrap();
        assert_eq!(addr, 4 * 64);
    }

    #[test]
    fn identical_clocks_tie_break_toward_lower_core() {
        // Two cores issue the same dependent-chase pattern, so their
        // clocks collide constantly; the old heap's
        // `Reverse<(SimTime, usize)>` order resolved every tie toward
        // the lower core. All three replay paths must agree exactly.
        let mut trace = Vec::new();
        for i in 0..200u64 {
            for c in [1u32, 0] {
                trace.push(TraceAccess::chase(c, (c as u64) << 32 | i * (4 << 20)));
            }
        }
        let make = || {
            TraceSim::new(
                &cfg(MemSetup::DramOnly),
                2,
                TracePlacement::AllDdr,
                ByteSize::mib(1),
            )
        };
        let mut seq = make();
        let expect = seq.run(&trace);
        let mut par_sim = make();
        assert_eq!(
            par::with_threads(2, || par_sim.run_parallel(&trace)),
            expect
        );
        assert_eq!(par_sim.ddr_stats(), seq.ddr_stats());
        let mut stream_sim = make();
        let mut off = 0;
        let got = par::with_threads(2, || {
            stream_sim.run_streaming(|buf| {
                // Tiny chunks force many refills mid-tie.
                let n = trace.len().min(off + 7) - off;
                buf.extend_from_slice(&trace[off..off + n]);
                off += n;
                n
            })
        });
        assert_eq!(got, expect);
        assert_eq!(stream_sim.ddr_stats(), seq.ddr_stats());
        assert_eq!(stream_sim.mesh_stats(), seq.mesh_stats());
    }

    #[test]
    fn single_core_and_empty_stream_edge_cases() {
        // 1 core: the tree degenerates to one slot; streaming buffers
        // the whole classified trace but must still match.
        let trace = chase_trace(0, 400, 2 * 1024 * 1024 + 64);
        let mut seq = TraceSim::new(
            &cfg(MemSetup::DramOnly),
            1,
            TracePlacement::AllDdr,
            ByteSize::mib(1),
        );
        let expect = seq.run(&trace);
        let mut stream_sim = TraceSim::new(
            &cfg(MemSetup::DramOnly),
            1,
            TracePlacement::AllDdr,
            ByteSize::mib(1),
        );
        let mut fed = false;
        let got = stream_sim.run_streaming(|buf| {
            if fed {
                return 0;
            }
            fed = true;
            buf.extend_from_slice(&trace);
            trace.len()
        });
        assert_eq!(got, expect);
        // All-empty stream: no chunks at all.
        let mut empty_sim = TraceSim::new(
            &cfg(MemSetup::DramOnly),
            4,
            TracePlacement::AllDdr,
            ByteSize::mib(1),
        );
        assert_eq!(empty_sim.run_streaming(|_| 0), TraceSimReport::default());
        assert_eq!(empty_sim.last_peak_trace_buffer_bytes(), 0);
    }

    #[test]
    fn streaming_replay_matches_sequential_in_unit() {
        // Chunked multi-core replay across several chunk sizes and
        // worker counts; every configuration must be bit-identical to
        // the sequential reference.
        let trace = stream_trace(4, 300);
        let mut seq = TraceSim::new(
            &cfg(MemSetup::DramOnly),
            4,
            TracePlacement::AllDdr,
            ByteSize::mib(1),
        );
        let expect = seq.run(&trace);
        for chunk in [1usize, 64, 1 << 20] {
            for workers in [1, 2, 8] {
                let mut sim = TraceSim::new(
                    &cfg(MemSetup::DramOnly),
                    4,
                    TracePlacement::AllDdr,
                    ByteSize::mib(1),
                );
                let mut off = 0;
                let got = par::with_threads(workers, || {
                    sim.run_streaming(|buf| {
                        let n = trace.len().min(off + chunk) - off;
                        buf.extend_from_slice(&trace[off..off + n]);
                        off += n;
                        n
                    })
                });
                assert_eq!(got, expect, "chunk={chunk} workers={workers}");
                assert_eq!(sim.ddr_stats(), seq.ddr_stats(), "chunk={chunk}");
                assert_eq!(sim.mesh_stats(), seq.mesh_stats(), "chunk={chunk}");
                assert_eq!(sim.per_core_totals(), seq.per_core_totals());
                // A spread-across-cores workload streams in bounded
                // buffers: far below the materialized paths' footprint.
                if chunk == 64 {
                    assert!(
                        sim.last_peak_trace_buffer_bytes() < seq.last_peak_trace_buffer_bytes(),
                        "streaming {} vs materialized {}",
                        sim.last_peak_trace_buffer_bytes(),
                        seq.last_peak_trace_buffer_bytes()
                    );
                }
            }
        }
    }

    #[test]
    fn buffer_warning_thresholds() {
        // Below the absolute floor: never warns, whatever the ratio.
        assert_eq!(buffer_warning(BUFFER_WARN_MIN_ACCESSES - 1, 1), None);
        assert_eq!(buffer_warning(100, 0), None);
        // At the floor with a chunk small enough to exceed the ratio.
        let msg = buffer_warning(BUFFER_WARN_MIN_ACCESSES, 64).expect("should warn");
        assert!(msg.contains("buffering"), "{msg}");
        // Large backlog but within BUFFER_WARN_CHUNKS of the chunk
        // size: healthy pipelining, no warning.
        assert_eq!(
            buffer_warning(BUFFER_WARN_MIN_ACCESSES, BUFFER_WARN_MIN_ACCESSES),
            None
        );
    }

    #[test]
    fn telemetry_does_not_change_results() {
        // The contract the bench overhead check builds on: replay
        // results and device stats are bit-identical with telemetry on.
        let trace = stream_trace(4, 300);
        let make = || {
            TraceSim::new(
                &cfg(MemSetup::DramOnly),
                4,
                TracePlacement::AllDdr,
                ByteSize::mib(1),
            )
        };
        let mut plain = make();
        let expect = plain.run(&trace);
        let mut tel = make();
        tel.enable_telemetry();
        assert_eq!(tel.run(&trace), expect);
        assert_eq!(tel.ddr_stats(), plain.ddr_stats());
        assert_eq!(tel.mesh_stats(), plain.mesh_stats());
        assert_eq!(tel.per_core_totals(), plain.per_core_totals());
        // Spans were recorded: partition + merge + finish at minimum.
        let names: Vec<&str> = tel
            .telemetry_spans()
            .unwrap()
            .records()
            .iter()
            .map(|r| r.name.as_str())
            .collect();
        assert!(names.contains(&"partition"), "{names:?}");
        assert!(names.contains(&"merge"), "{names:?}");
        assert!(names.contains(&"finish"), "{names:?}");
        // The disabled sim records nothing.
        assert!(plain.telemetry_spans().is_none());
    }

    #[test]
    fn streaming_telemetry_records_all_phases() {
        let trace = stream_trace(4, 300);
        let mut sim = TraceSim::new(
            &cfg(MemSetup::DramOnly),
            4,
            TracePlacement::AllDdr,
            ByteSize::mib(1),
        );
        sim.enable_telemetry();
        let mut off = 0;
        let got = par::with_threads(2, || {
            sim.run_streaming(|buf| {
                let n = trace.len().min(off + 256) - off;
                buf.extend_from_slice(&trace[off..off + n]);
                off += n;
                n
            })
        });
        assert_eq!(got.accesses, trace.len() as u64);
        let names: Vec<&str> = sim
            .telemetry_spans()
            .unwrap()
            .records()
            .iter()
            .map(|r| r.name.as_str())
            .collect();
        for phase in ["generate", "classify", "merge", "finish"] {
            assert!(names.contains(&phase), "missing {phase} in {names:?}");
        }
        // Producer spans live on their own lane.
        assert!(sim
            .telemetry_spans()
            .unwrap()
            .records()
            .iter()
            .any(|r| r.name == "generate" && r.tid == 1));
        assert!(sim.last_peak_buffered_accesses() > 0);
    }

    #[test]
    fn metrics_registry_snapshots_devices_and_shards() {
        let trace = stream_trace(4, 300);
        let mut sim = TraceSim::new(
            &cfg(MemSetup::DramOnly),
            4,
            TracePlacement::AllDdr,
            ByteSize::mib(1),
        );
        sim.enable_telemetry();
        let report = sim.run(&trace);
        let reg = sim.metrics_registry();
        use simfabric::telemetry::MetricValue;
        assert_eq!(
            reg.get("shard.accesses"),
            Some(&MetricValue::Counter(report.accesses))
        );
        assert_eq!(
            reg.get("shard.memory_accesses"),
            Some(&MetricValue::Counter(report.memory_accesses))
        );
        assert_eq!(
            reg.get("mesh.messages"),
            Some(&MetricValue::Counter(sim.mesh_stats().messages.get()))
        );
        assert_eq!(
            reg.get("dram.ddr.row_hits"),
            Some(&MetricValue::Counter(sim.ddr_stats().row_hits.get()))
        );
        // Telemetry-gated histograms are present once enabled.
        assert!(matches!(
            reg.get("mshr.occupancy"),
            Some(MetricValue::Histogram(_))
        ));
        assert!(matches!(
            reg.get("dram.ddr.queue_wait_ps"),
            Some(MetricValue::Histogram(_))
        ));
        // Merging the per-shard registries reproduces the counters the
        // global registry carries (the equivalence suite extends this
        // across replay paths and worker counts).
        let mut merged = simfabric::MetricsRegistry::new();
        for c in 0..4 {
            merged.merge(&sim.shard_metrics(c));
        }
        assert_eq!(
            merged.get("shard.accesses"),
            Some(&MetricValue::Counter(report.accesses))
        );
        // Without telemetry, histograms are absent but counters remain.
        let mut plain = TraceSim::new(
            &cfg(MemSetup::DramOnly),
            4,
            TracePlacement::AllDdr,
            ByteSize::mib(1),
        );
        plain.run(&trace);
        let plain_reg = plain.metrics_registry();
        assert!(plain_reg.get("mshr.occupancy").is_none());
        assert_eq!(
            plain_reg.get("shard.accesses"),
            Some(&MetricValue::Counter(report.accesses))
        );
    }

    #[test]
    fn trace_replay_counts_mesh_messages() {
        // Every access that reaches a device is one analytically
        // accounted mesh round trip.
        let trace = chase_trace(0, 500, 4 * 1024 * 1024 + 64);
        let mut sim = TraceSim::new(
            &cfg(MemSetup::DramOnly),
            1,
            TracePlacement::AllDdr,
            ByteSize::mib(1),
        );
        let r = sim.run(&trace);
        assert_eq!(sim.mesh_stats().messages.get(), r.memory_accesses);
        assert!(sim.mesh_stats().hops.get() >= r.memory_accesses);
    }
}

impl TraceSim {
    /// Debug introspection for the DDR model.
    #[doc(hidden)]
    pub fn debug_ddr(&self) -> (Vec<f64>, f64) {
        (
            self.ddr.debug_bus_busy_ns(),
            self.ddr.debug_max_bank_ready_ns(),
        )
    }
}

/// Debug breakdown of a single access's timing (picoseconds).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct AccessBreakdown {
    pub issue_ps: u64,
    pub post_sram_ps: u64,
    pub arrive_ps: u64,
    pub served_ps: u64,
    pub done_ps: u64,
    pub stalled: bool,
}

impl TraceSim {
    /// Debug: replay one access returning a timing breakdown.
    #[doc(hidden)]
    pub fn access_traced(&mut self, t: TraceAccess) -> AccessBreakdown {
        let core = partition_by_core(t.core, self.hierarchies.len());
        let mut issue = self.core_clock[core];
        let orig_issue = issue;
        let kind = if t.write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let (level, sram_lat) = self.hierarchies[core].access(t.addr, kind);
        let mut bd = AccessBreakdown::default();
        let mut done = issue + sram_lat;
        let mut merged = false;
        if level == LevelHit::Memory || level == LevelHit::McdramCache {
            let line = t.addr & !(self.line_bytes - 1);
            loop {
                match self.mshrs[core].register(line, issue) {
                    MshrOutcome::Allocated => break,
                    MshrOutcome::Merged { ready_at } => {
                        done = ready_at.max(issue + sram_lat);
                        merged = true;
                        break;
                    }
                    MshrOutcome::Stall { free_at } => issue = free_at,
                }
            }
        }
        bd.stalled = issue > orig_issue;
        bd.issue_ps = issue.as_ps();
        if !merged && (level == LevelHit::Memory || level == LevelHit::McdramCache) {
            done = issue + sram_lat;
            bd.post_sram_ps = done.as_ps();
            let is_hbm_target = match (&self.msc, level) {
                (Some(_), LevelHit::McdramCache) => true,
                (Some(_), _) => false,
                (None, _) => self.placement.is_hbm(t.addr),
            };
            // Mesh traversal charged analytically: per-link flit
            // reservation is far too pessimistic at memory rates (the
            // KNL mesh is provisioned well beyond memory bandwidth),
            // so the request half of the average round trip is added
            // as latency instead.
            let arrive = done
                + if is_hbm_target {
                    self.resp_half_hbm
                } else {
                    self.resp_half_ddr
                };
            bd.arrive_ps = arrive.as_ps();
            let served = if self.placement.is_hbm(t.addr) {
                self.hbm.access(t.addr, arrive)
            } else {
                self.ddr.access(t.addr, arrive)
            };
            bd.served_ps = served.as_ps();
            done = served
                + if is_hbm_target {
                    self.resp_half_hbm
                } else {
                    self.resp_half_ddr
                };
            self.mshrs[core].complete_at(t.addr & !(self.line_bytes - 1), done);
        }
        bd.done_ps = done.as_ps();
        self.core_clock[core] = if t.dependent {
            done
        } else {
            issue + Duration::from_cycles(1, crate::calib::CORE_GHZ)
        };
        bd
    }
}
