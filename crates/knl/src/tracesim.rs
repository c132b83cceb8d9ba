//! Trace-driven simulator.
//!
//! Replays line-granularity address traces through the exact substrate
//! models — per-core L1/L2 + TLB ([`cachesim::hierarchy::Hierarchy`]), the mesh
//! ([`mesh::MeshModel`]), the direct-mapped MCDRAM cache
//! ([`MemorySideCache`]), and the bank-level DRAM models
//! ([`memdev::bank::DramModel`]). It exists to
//! *validate* the analytic machine model at small scales: the
//! integration tests check that both paths agree on ordering (HBM
//! beats DDR for streams, DDR beats HBM for chases) and roughly on
//! magnitude.
//!
//! # One windowed engine, two inputs
//!
//! [`TraceSim::run`] is the sequential reference implementation, kept
//! as the oracle the equivalence suites compare against. The other two
//! entry points — [`TraceSim::run_streaming`] (a generator callback)
//! and [`TraceSim::run_classified`] (a prebuilt artifact) — feed the
//! same windowed engine and produce **bit-identical** reports and
//! device statistics. The engine rests on a structural property of the
//! model: the private cache hierarchy (L1/L2/TLB) is
//! *timing-independent* — which level serves an access depends only
//! on that core's own address stream, never on the clock. So is cache
//! mode's memory-side cache, modelled as one store per core: its tags
//! depend only on that core's own stream of L2 misses. Classification
//! stops at L2, and the merge stage probes each core's store as that
//! core's classified accesses enter its queue, in program order (the
//! sequential `TraceSim::access` probes inline). Streaming replay
//! therefore runs as a two-stage pipeline
//! ([`simfabric::par::pipelined_stats`]):
//!
//! 1. a **producer stage** on its own thread, which owns the per-core
//!    [`Hierarchy`]s for the duration of the run. It takes the next
//!    generator chunk, partitions it by core (see
//!    `partition_by_core`), drives each shard's private hierarchy on
//!    the caller's [`par::num_threads`] count of workers, and ships the
//!    per-core outcomes as SoA batches (separate address and flag
//!    arrays, 9 B per access instead of a 40 B record), and
//! 2. a **merge stage** on the calling thread, which replays the
//!    classified batches through the shared resources (MSHRs, mesh,
//!    DRAM bank models) in exactly the earliest-clock order the
//!    sequential path uses, and never touches a hierarchy (in cache
//!    mode it first runs each arriving batch through its core's
//!    memory-side cache). The "core
//!    with the earliest clock" selection runs on a fixed-size
//!    winner tree ([`simfabric::merge::LoserTree`]) keyed on the
//!    per-core clocks in picoseconds: O(log cores) per access, with no
//!    allocation and no data-dependent branch. The tree's tie-break
//!    (equal clocks select the lower core index) matches the
//!    sequential order exactly.
//!
//! The producer runs up to the pipe's depth plus one chunks ahead, so
//! a replay costs roughly the slower stage instead of their sum. That
//! changes no merge decision: classification of a core depends only on
//! that core's own address stream.
//!
//! The stages meet through **ghost slots**. A core whose batch runs
//! dry while its input can still feed it stays in the tournament at
//! its current clock — a lower bound on its next access — and a ghost
//! winning pulls the next batch off the pipe (or, for an artifact, the
//! next per-core slices). So the merge order is exact while buffering
//! stays near one chunk. An artifact knows how many accesses each core
//! holds, so a finished core closes at once; a stream cannot say which
//! cores it will still feed, so every dry core stays a ghost until the
//! producer ends, and then the engine closes them. A streamed workload
//! confined to a few cores (a single-core pointer chase is the
//! extreme) therefore buffers most of its classified trace —
//! correctness is never traded for memory, and `buffer_warning` says
//! so once per process. Peak buffering is tracked per run and exposed
//! via [`TraceSim::last_peak_trace_buffer_bytes`].
//!
//! # Classify once, replay many ([`TraceSim::run_classified`])
//!
//! Because classification is timing-independent and stops at L2, it is
//! also *setup-independent*: flat-mode placements (`AllDdr`, `AllHbm`,
//! `SplitAt`, `Migrated`), cache mode at any MCDRAM-cache capacity,
//! device presets, and worker counts all replay the exact same
//! classified stream. In cache mode, [`TraceSim::run_classified`]
//! builds cold memory-side caches at its start and probes the
//! artifact's slices as it copies them in. A multi-setup sweep can
//! therefore classify **once** per trace into a [`ClassifiedTrace`] artifact
//! (the same 9 B/access SoA batches, held per core, keyed by a
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
//! Per-shard totals are folded with `ShardTotals::merge`, an
//! order-independent (commutative, associative, integer-only)
//! reduction, so worker count never leaks into results.

use crate::classified::{classify_signature, ClassifiedTrace};
use crate::config::MachineConfig;
use cachesim::cache::AccessKind;
use cachesim::hierarchy::{Hierarchy, HierarchyConfig, LevelHit};
use cachesim::mcdram_cache::MemorySideCache;
use cachesim::mshr::{Mshr, MshrOutcome};
use cachesim::tlb::TlbOutcome;
use memdev::bank::{DramModel, DramStats};
use memkind_sim::migrate::{MigrationCost, MigrationSpec, MigrationStats, PageScheduler};
use mesh::{ClusterMode, MeshModel};
use simfabric::merge::LoserTree;
use simfabric::par;
use simfabric::telemetry::timeseries::{SeriesId, TimeSeriesRecorder};
use simfabric::telemetry::{MetricsRegistry, SpanLog};
use simfabric::{ByteSize, Duration, SimTime};
use std::collections::VecDeque;
use std::sync::OnceLock;
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
    /// the *base* tier (DDR); the live answer is the one
    /// [`PageScheduler::tick`] returns for each access.
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
/// a max, so `merge` is commutative and associative:
/// shards reduce to identical totals in any order — the property that
/// lets the windowed paths match the sequential path bit for bit.
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
    pub(crate) fn merge(self, other: ShardTotals) -> ShardTotals {
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
    pub(crate) fn into_report(self, line_bytes: u64) -> TraceSimReport {
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
pub(crate) fn partition_by_core(core: u32, shards: usize) -> usize {
    core as usize % shards
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

/// Default refill window for [`TraceSim::run_classified`], in
/// accesses: large enough to amortize the per-refill bookkeeping,
/// small enough that the copied slices are still cache-resident when
/// the timing merge consumes them. [`TraceSim::set_replay_window`]
/// overrides it. Streaming replay refills one generator chunk at a
/// time instead.
///
/// The copy pays for itself: the merge interleaves 8–64 per-core
/// streams, and window-sized slices of each stay cache-resident,
/// while reading the artifact's per-core arrays in place walks that
/// many far-apart streams and misses. Replaying in place without the
/// copy measured slower on every `sweep_migrate` pair tried.
pub const PAR_WINDOW: usize = 1 << 16;

/// Streaming-replay backlog threshold: warn when the classified
/// backlog exceeds this many times the largest chunk the producer has
/// delivered — the pipeline is then no longer streaming, it is
/// materializing the trace (the single-core worst case the module docs
/// describe).
pub(crate) const BUFFER_WARN_CHUNKS: usize = 8;

/// Minimum backlog (in accesses) before the warning can fire, so the
/// tiny chunks the unit tests feed never trip it.
pub(crate) const BUFFER_WARN_MIN_ACCESSES: usize = 1 << 16;

/// The warning [`TraceSim::run_streaming`] emits (once per process)
/// when its classified backlog stops being bounded by the chunk size.
/// Pure so the threshold logic is testable without capturing stderr.
pub(crate) fn buffer_warning(backlog_accesses: usize, max_chunk_accesses: usize) -> Option<String> {
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

/// Pack a classified access into one byte: bit 0 = write, bit 1 =
/// dependent, bits 2–3 = [`LevelHit`], bits 4–5 = [`TlbOutcome`].
/// `flags >> 2` indexes [`sram_latency_table`].
fn pack_flags(write: bool, dependent: bool, level: LevelHit, tlb: TlbOutcome) -> u8 {
    let lvl = match level {
        LevelHit::L1 => 0u8,
        LevelHit::L2 => 1,
        LevelHit::McdramCache => 2,
        LevelHit::Memory => 3,
    };
    let tlb = match tlb {
        TlbOutcome::L1Hit => 0u8,
        TlbOutcome::L2Hit => 1,
        TlbOutcome::Walk => 2,
    };
    (write as u8) | ((dependent as u8) << 1) | (lvl << 2) | (tlb << 4)
}

fn unpack_dependent(flags: u8) -> bool {
    flags & 0b10 != 0
}

/// The [`LevelHit::Memory`] and [`LevelHit::McdramCache`] codes of
/// [`pack_flags`], in place.
const LEVEL_MEMORY_BITS: u8 = 3 << 2;
const LEVEL_MCDRAM_CACHE_BITS: u8 = 2 << 2;
const LEVEL_MASK: u8 = 0b11 << 2;

fn unpack_level(flags: u8) -> LevelHit {
    match (flags >> 2) & 0b11 {
        0 => LevelHit::L1,
        1 => LevelHit::L2,
        2 => LevelHit::McdramCache,
        _ => LevelHit::Memory,
    }
}

/// The SRAM latency (private caches plus translation) of every
/// `(level, TLB outcome)` code of [`pack_flags`], indexed by
/// `flags >> 2`, priced by [`HierarchyConfig::latency`]. The
/// [`LevelHit::McdramCache`] rows equal the [`LevelHit::Memory`] rows,
/// as the memory-side probe rewrites only the level bits of an L2
/// miss. Codes with TLB bits `0b11` never occur and price zero.
fn sram_latency_table(hier_cfg: &HierarchyConfig) -> [Duration; 16] {
    let mut table = [Duration::ZERO; 16];
    for level in [
        LevelHit::L1,
        LevelHit::L2,
        LevelHit::McdramCache,
        LevelHit::Memory,
    ] {
        for tlb in [TlbOutcome::L1Hit, TlbOutcome::L2Hit, TlbOutcome::Walk] {
            table[(pack_flags(false, false, level, tlb) >> 2) as usize] =
                hier_cfg.latency(level, tlb);
        }
    }
    table
}

/// A classified per-core batch in SoA layout: one array per field the
/// timing loop actually reads, instead of striding over padded AoS
/// records. 9 bytes per access, popped front-to-back through a head
/// cursor; [`compact`](Self::compact) reclaims the consumed prefix
/// when the batch is refilled mid-stream. The SRAM latency is not
/// stored: the flags carry the level and TLB outcome that price it.
#[derive(Debug, Default)]
pub(crate) struct ClassifiedSoa {
    addr: Vec<u64>,
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
        self.flags.reserve(extra);
    }

    pub(crate) fn push(
        &mut self,
        addr: u64,
        write: bool,
        dependent: bool,
        level: LevelHit,
        tlb: TlbOutcome,
    ) {
        self.addr.push(addr);
        self.flags.push(pack_flags(write, dependent, level, tlb));
    }

    /// Pop the oldest access: `(addr, flags)`.
    fn pop(&mut self) -> Option<(u64, u8)> {
        if self.is_empty() {
            return None;
        }
        let i = self.head;
        self.head += 1;
        Some((self.addr[i], self.flags[i]))
    }

    /// Cache mode: run every unconsumed access that missed L2 through
    /// this core's memory-side cache `msc`, in program order, and mark
    /// the tag hits [`LevelHit::McdramCache`]. The write bit of `flags`
    /// dirties the line, as the store would.
    fn probe_msc(&mut self, msc: &mut MemorySideCache) {
        let (addr, flags) = (&self.addr[self.head..], &mut self.flags[self.head..]);
        for (&a, f) in addr.iter().zip(flags) {
            if *f & LEVEL_MASK == LEVEL_MEMORY_BITS && msc.access(a, *f & 1 != 0).is_hit() {
                *f = *f & !LEVEL_MASK | LEVEL_MCDRAM_CACHE_BITS;
            }
        }
    }

    /// Drop the consumed prefix so refills don't grow without bound.
    fn compact(&mut self) {
        if self.head > 0 {
            self.addr.drain(..self.head);
            self.flags.drain(..self.head);
            self.head = 0;
        }
    }

    /// Bytes of classified trace currently buffered.
    fn buffered_bytes(&self) -> usize {
        self.len() * CLASSIFIED_ACCESS_BYTES
    }

    /// Unconsumed accesses as raw parallel slices `(addr, flags)` —
    /// the storage view a [`ClassifiedTrace`] artifact keeps.
    pub(crate) fn arrays(&self) -> (&[u64], &[u8]) {
        (&self.addr[self.head..], &self.flags[self.head..])
    }

    /// Append a pre-classified range (a [`ClassifiedTrace`] window) —
    /// the timing-only replay's refill is this memcpy instead of a
    /// generator + hierarchy pass.
    pub(crate) fn extend_from_arrays(&mut self, addr: &[u64], flags: &[u8]) {
        debug_assert!(addr.len() == flags.len());
        self.addr.extend_from_slice(addr);
        self.flags.extend_from_slice(flags);
    }

    /// Append `batch` behind the unconsumed accesses: a swap when
    /// nothing is left to consume, a compact-and-copy otherwise.
    fn append(&mut self, batch: ClassifiedSoa) {
        if self.is_empty() {
            *self = batch;
        } else {
            self.compact();
            let (addr, flags) = batch.arrays();
            self.extend_from_arrays(addr, flags);
        }
    }
}

/// Bytes per access in the SoA layout (u64 address + packed flag
/// byte) — the unit `ClassifiedTrace::bytes` and the classify-cache
/// budget are measured in.
pub(crate) const CLASSIFIED_ACCESS_BYTES: usize = 8 + 1;

/// The private-hierarchy configuration replay uses under `cfg`: the
/// KNL L1/L2/TLB hierarchy, the same under every memory setup (cache
/// mode's memory-side cache sits below L2 and belongs to the timing
/// side, see [`TraceSim`]). The hierarchy's own memory latency is
/// zeroed — the bank models provide all device timing.
/// [`TraceSim::new`] and [`ClassifiedTrace::build_streaming`] must
/// agree on this, byte for byte, for an artifact to be replayable.
pub(crate) fn hierarchy_config(cfg: &MachineConfig) -> HierarchyConfig {
    let mut hier_cfg = HierarchyConfig::knl_flat(cfg.ddr.idle_latency);
    // The memory latency charged by the hierarchy is superseded by
    // the bank model; zero it out and let devices provide timing.
    hier_cfg.memory_latency = Duration::ZERO;
    hier_cfg
}

/// Per-core classification state, owned by the producer stage: the
/// private hierarchy, the unclassified slice of the current window,
/// and the classified output of that window (shipped to the merge
/// stage, or, for an artifact build, the artifact's per-core arrays).
pub(crate) struct ReplayShard {
    pub(crate) hier: Hierarchy,
    pending: Vec<TraceAccess>,
    pub(crate) queue: ClassifiedSoa,
}

impl ReplayShard {
    pub(crate) fn new(hier: Hierarchy) -> Self {
        ReplayShard {
            hier,
            pending: Vec::new(),
            queue: ClassifiedSoa::new(),
        }
    }

    /// Classify `pending` through the hierarchy into `queue`
    /// (compacting first so refills don't grow without bound).
    fn classify_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.queue.compact();
        self.queue.reserve(self.pending.len());
        for &t in &self.pending {
            let kind = if t.write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let (level, tlb) = self.hier.access(t.addr, kind);
            self.queue.push(t.addr, t.write, t.dependent, level, tlb);
        }
        self.pending.clear();
    }
}

/// Partition `chunk` by core (preserving per-core program order) and
/// classify every shard's slice on the current [`par`] workers. The
/// one classification step shared by the replay pipeline's producer
/// stage and [`ClassifiedTrace`] artifact builds, so they cannot drift
/// apart.
pub(crate) fn classify_chunk(shards: &mut [ReplayShard], chunk: &[TraceAccess]) {
    let cores = shards.len();
    for &t in chunk {
        shards[partition_by_core(t.core, cores)].pending.push(t);
    }
    par::par_update(shards, |_, s| s.classify_pending());
}

/// Slots in the replay pipe: the producer stage classifies at most
/// this many chunks, plus the one in hand, ahead of the merge.
const PIPE_DEPTH: usize = 2;

/// One chunk classified by the producer stage: per-core batches in
/// core order, the raw accesses they came from, and — when telemetry
/// is on — the generation and classification bursts' start/end
/// instants (the span log lives on the merge thread, so the instants
/// travel with the batch).
struct PipeBatch {
    per_core: Vec<ClassifiedSoa>,
    accesses: usize,
    generated: Option<(Instant, Instant)>,
    classified: Option<(Instant, Instant)>,
}

impl PipeBatch {
    /// Classify `chunk` through `shards` and take the per-core output.
    /// `timed` records the classification burst's instants.
    fn classify(
        shards: &mut [ReplayShard],
        chunk: &[TraceAccess],
        generated: Option<(Instant, Instant)>,
        timed: bool,
    ) -> PipeBatch {
        let started = timed.then(Instant::now);
        classify_chunk(shards, chunk);
        PipeBatch {
            per_core: shards
                .iter_mut()
                .map(|s| std::mem::take(&mut s.queue))
                .collect(),
            accesses: chunk.len(),
            generated,
            classified: started.map(|s| (s, Instant::now())),
        }
    }
}

/// What feeds the windowed engine's refills. Both variants uphold the
/// refill contract the ghost-slot merge relies on: a refill pulled by
/// a ghost adds classified work or reports the input exhausted.
enum ReplayInput<'a, 'p> {
    /// Batches from the producer stage ([`TraceSim::run_streaming`]).
    /// `done` is set once the producer has ended — until then every
    /// core may receive work — and `max_chunk` is the largest batch so
    /// far (the [`buffer_warning`] yardstick).
    Pipe {
        rx: &'a mut par::ChunkReceiver<'p, PipeBatch>,
        done: bool,
        max_chunk: usize,
    },
    /// Prebuilt artifact ([`TraceSim::run_classified`]); `next` holds
    /// one cursor per core, and refills copy SoA slices. In cache mode
    /// `msc` holds this replay's per-core memory-side caches, cold at
    /// its start as the artifact's private caches were (empty in flat
    /// mode).
    Classified {
        ct: &'a ClassifiedTrace,
        next: Vec<usize>,
        msc: Vec<MemorySideCache>,
    },
}

impl ReplayInput<'_, '_> {
    /// Whether core `c` may still receive accesses.
    fn can_feed(&self, c: usize) -> bool {
        match self {
            ReplayInput::Pipe { done, .. } => !*done,
            ReplayInput::Classified { ct, next, .. } => next[c] < ct.per_core_len(c),
        }
    }
}

/// Observability counters from the most recent `run*` call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimingEngineStats {
    /// Windows refilled (one per stream chunk pulled; always 0 for
    /// the sequential [`TraceSim::run`]).
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
    /// Each device model's access count when sampling was enabled.
    /// Every device access is one line fetch, so the line series are
    /// the counts' growth since then, read at each window close.
    ddr_base: u64,
    hbm_base: u64,
    /// `served - arrive` summed over the memory accesses each device
    /// serves (`[DDR, MCDRAM]`): the one per-access term. Each wait
    /// is that minus a fixed floor, so the wait series subtract the
    /// floors at window close (exact integer sums, far below 2^53).
    raw_wait: [u64; 2],
}

/// The trace-driven simulator.
pub struct TraceSim {
    /// Per-core private hierarchies, built from `hier_cfg` on first
    /// use by [`access`](Self::access), [`run`](Self::run) or
    /// [`run_streaming`](Self::run_streaming); empty until then, and
    /// for good on a simulator that only replays classified artifacts.
    hierarchies: Vec<Hierarchy>,
    hier_cfg: HierarchyConfig,
    /// [`sram_latency_table`] of `hier_cfg`: every engine prices an
    /// access's private-cache and translation time from its flags here.
    sram_lat: [Duration; 16],
    /// Cache mode: one memory-side cache of `msc_capacity` per core,
    /// probed with that core's L2 misses in program order. Built and
    /// kept warm alongside `hierarchies` for the classifying paths
    /// (`access` probes inline, `run_streaming` as each batch enters a
    /// core's queue); empty in every other setup. A classified replay
    /// probes cold stores of its own instead (see
    /// [`run_classified`](Self::run_classified)).
    msc: Vec<MemorySideCache>,
    /// The capacity of each store in `msc`; `None` unless the setup
    /// [has an MCDRAM cache](crate::config::MemSetup::has_mcdram_cache).
    /// When set, memory-level accesses go to DDR behind the MCDRAM
    /// cache, whose tag hits are served as [`LevelHit::McdramCache`].
    msc_capacity: Option<ByteSize>,
    /// Per-core MSHR files bounding outstanding line misses — the same
    /// limit [`crate::calib::STREAM_MLP_PER_CORE_1T`] captures
    /// analytically.
    mshrs: Vec<Mshr>,
    core_clock: Vec<SimTime>,
    mesh: MeshModel,
    ddr: DramModel,
    hbm: DramModel,
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
    /// recent `run*` call (the sequential `run` reports the trace
    /// length; the windowed paths their actual backlog high-water).
    peak_buffered_accesses: usize,
    /// Producer-to-merge pipe stall/occupancy stats from the most
    /// recent `run_streaming` call (zeroed by `run` and
    /// `run_classified`, which use no pipe).
    last_pipe_stats: par::PipeStats,
    /// Refill window for [`run_classified`](Self::run_classified), in
    /// accesses.
    replay_window: usize,
    /// Window counters from the most recent `run*` call.
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

/// The memory-path averages of a KNL mesh: round-trip latency and
/// round-trip hops to a DDR and to an MCDRAM port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PathAverages {
    latency_ddr: Duration,
    latency_hbm: Duration,
    hops_ddr: u64,
    hops_hbm: u64,
}

/// [`MeshModel::avg_memory_latency`] and [`MeshModel::avg_memory_hops`]
/// of `mesh`, a fresh [`MeshModel::knl`] model. They depend on the
/// cluster mode alone and each one samples 4,096 addresses, so they
/// are computed once per mode per process and read from a table
/// afterwards.
fn path_averages(mesh: &MeshModel) -> PathAverages {
    static TABLE: [OnceLock<PathAverages>; 4] = [const { OnceLock::new() }; 4];
    let slot = match mesh.mode() {
        ClusterMode::AllToAll => 0,
        ClusterMode::Quadrant => 1,
        ClusterMode::Hemisphere => 2,
        ClusterMode::Snc4 => 3,
    };
    *TABLE[slot].get_or_init(|| PathAverages {
        latency_ddr: mesh.avg_memory_latency(false),
        latency_hbm: mesh.avg_memory_latency(true),
        hops_ddr: mesh.avg_memory_hops(false),
        hops_hbm: mesh.avg_memory_hops(true),
    })
}

impl TraceSim {
    /// Build a trace simulator for `cores` cores under `cfg`'s memory
    /// setup. In cache mode, `msc_capacity` sizes each core's MCDRAM
    /// cache, scaled down for tractable tests (pass the full 16 GiB for
    /// fidelity); flat setups ignore it.
    ///
    /// Construction builds only what every replay path reads: the
    /// timing state (MSHR files, clocks, DRAM and mesh models) and the
    /// mesh's memory-path averages, which come from a per-process
    /// table after the first simulator of each cluster mode. The per-core
    /// private hierarchies and, in cache mode, the memory-side tag
    /// stores, which scale with `msc_capacity`, are built at the start
    /// of the run call that needs them: on first use by the paths
    /// that classify (`access`, `run`, `run_streaming`), and afresh
    /// for each `run_classified` (tag stores only). A flat simulator
    /// that only replays classified artifacts allocates neither.
    ///
    /// Hybrid mode replays as cache mode with `msc_capacity` per core:
    /// trace replay still ignores hybrid's flat MCDRAM partition, and
    /// with it `placement`, as it does in cache mode.
    pub fn new(
        cfg: &MachineConfig,
        cores: u32,
        placement: TracePlacement,
        msc_capacity: ByteSize,
    ) -> Self {
        let mesh = MeshModel::knl(cfg.cluster);
        let path = path_averages(&mesh);
        let hier_cfg = hierarchy_config(cfg);
        TraceSim {
            hierarchies: Vec::new(),
            hier_cfg,
            sram_lat: sram_latency_table(&hier_cfg),
            msc: Vec::new(),
            msc_capacity: cfg.setup.has_mcdram_cache().then_some(msc_capacity),
            mshrs: (0..cores)
                .map(|_| Mshr::new(crate::calib::STREAM_MLP_PER_CORE_1T as usize))
                .collect(),
            core_clock: vec![SimTime::ZERO; cores as usize],
            mesh,
            resp_half_ddr: path.latency_ddr.scale(0.5),
            resp_half_hbm: path.latency_hbm.scale(0.5),
            hops_ddr: path.hops_ddr,
            hops_hbm: path.hops_hbm,
            classify_sig: classify_signature(cfg),
            ddr: DramModel::ddr4_knl(),
            hbm: DramModel::mcdram_knl(),
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
            replay_window: PAR_WINDOW,
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

    /// Set the refill window (in accesses, default [`PAR_WINDOW`]) for
    /// [`run_classified`](Self::run_classified); clamped to at least
    /// one. Tests shrink this to force many window refills on small
    /// traces.
    pub fn set_replay_window(&mut self, accesses: usize) {
        self.replay_window = accesses.max(1);
    }

    /// This simulator's classification signature — the cache/TLB half
    /// of a [`ClassifyKey`](crate::classified::ClassifyKey). Every
    /// memory setup and MSC capacity shares it; an artifact built
    /// under a different signature (another DDR idle latency) must be
    /// rebuilt, not replayed: [`run_classified`](Self::run_classified)
    /// checks.
    pub fn classify_signature(&self) -> &str {
        &self.classify_sig
    }

    /// Window counters from the most recent `run*` call.
    pub fn last_timing_stats(&self) -> &TimingEngineStats {
        &self.timing_stats
    }

    /// Turn on telemetry for subsequent `run*` calls: a [`SpanLog`]
    /// for phase spans, plus the Option-gated device recorders (MSHR
    /// occupancy and DRAM bank queue-wait histograms).
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
    /// streaming, and classified engines at any worker count.
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
            ddr_base: self.ddr.stats().total(),
            hbm_base: self.hbm.stats().total(),
            raw_wait: [0; 2],
        }));
    }

    /// The sampled time-series, if
    /// [`enable_timeseries`](Self::enable_timeseries) was called.
    pub fn timeseries(&self) -> Option<&TimeSeriesRecorder> {
        self.timeseries.as_deref().map(|ts| &ts.rec)
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
        let cache_mode = self.msc_capacity.is_some();
        let (ddr_total, hbm_total) = (self.ddr.stats().total(), self.hbm.stats().total());
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
        let ddr_lines = ddr_total - ts.ddr_base;
        let hbm_lines = hbm_total - ts.hbm_base;
        // Each wait is `served - arrive` less the serving chain's
        // minimum service. DDR serves one wait per DDR line, behind
        // the MCDRAM tag probe in cache mode; MCDRAM serves one per
        // line in flat mode, and in cache mode one per hit, as every
        // miss adds a tag probe and a fill to one DDR line.
        let (ddr, hbm) = (ts.ddr_min.as_ps(), ts.hbm_min.as_ps());
        let (ddr_floor, hbm_waits) = if cache_mode {
            (hbm + ddr, hbm_lines - 2 * ddr_lines)
        } else {
            (ddr, hbm_lines)
        };
        ts.rec.set(ts.ddr_lines, ddr_lines as f64);
        ts.rec.set(ts.hbm_lines, hbm_lines as f64);
        let ddr_wait = ts.raw_wait[0] - ddr_lines * ddr_floor;
        ts.rec.set(ts.ddr_wait, ddr_wait as f64);
        let hbm_wait = ts.raw_wait[1] - hbm_waits * hbm;
        ts.rec.set(ts.hbm_wait, hbm_wait as f64);
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

    /// Producer-to-merge pipe stall/occupancy stats from the most
    /// recent [`run_streaming`](Self::run_streaming) call; zero after
    /// [`run`](Self::run) and [`run_classified`](Self::run_classified).
    pub fn last_pipe_stats(&self) -> par::PipeStats {
        self.last_pipe_stats
    }

    /// Snapshot shard `core`'s private state (cache hierarchy, MSHR
    /// file, raw totals) as an *unindexed* metrics registry: every
    /// shard uses the same metric names, so per-shard registries merge
    /// with [`MetricsRegistry::merge`] into exactly the totals the
    /// sequential path reports — the registry-level analogue of
    /// `ShardTotals::merge`, asserted by the equivalence suite.
    pub fn shard_metrics(&self, core: usize) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let t = &self.core_totals[core];
        reg.counter("shard.accesses", t.accesses);
        reg.counter("shard.memory_accesses", t.memory_accesses);
        reg.counter("shard.mcdram_cache_hits", t.mcdram_cache_hits);
        reg.counter("shard.total_latency_ps", t.total_latency.as_ps());
        reg.gauge("shard.makespan_us", t.makespan.as_ns() / 1e3);
        // A hierarchy not built yet has classified nothing. The
        // hierarchies end at L2, so `memory_misses` counts L2 misses;
        // the memory-side cache's hits are `shard.mcdram_cache_hits`.
        let hits = |level| self.hierarchies.get(core).map_or(0, |h| h.hits_at(level));
        reg.counter("cache.l1_hits", hits(LevelHit::L1));
        reg.counter("cache.l2_hits", hits(LevelHit::L2));
        reg.counter("cache.memory_misses", hits(LevelHit::Memory));
        let m = &self.mshrs[core];
        reg.counter("mshr.allocations", m.allocations.get());
        reg.counter("mshr.merges", m.merges.get());
        reg.counter("mshr.stalls", m.stalls.get());
        if let Some(occ) = m.occupancy_histogram() {
            reg.histogram("mshr.occupancy", &occ);
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
        for c in 0..self.cores() {
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
                reg.histogram(&format!("{prefix}queue_wait_ps"), &h);
            }
        }
        let ms = self.mesh.stats();
        reg.counter("mesh.messages", ms.messages.get());
        reg.counter("mesh.hops", ms.hops.get());
        reg.counter("mesh.contended", ms.contended.get());
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
    pub(crate) fn totals(&self) -> ShardTotals {
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

    /// Advance the migration clock by one consumed access. Every
    /// engine calls this exactly once per access, in the earliest-
    /// `(clock, core)` merge order, with the winner's pre-stall clock
    /// as `now` — the determinism contract the scheduler needs.
    /// Returns whether a memory-level access routes to MCDRAM: the
    /// scheduler's answer when migration is active, the static
    /// placement's otherwise.
    #[inline]
    fn migrate_tick(&mut self, addr: u64, memory_level: bool, now: SimTime) -> bool {
        match &mut self.migration {
            Some(m) => m.tick(addr, memory_level, now),
            None => self.placement.is_hbm(addr),
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

    /// The per-core private hierarchies, built on first use together
    /// with the classifying paths' memory-side caches.
    fn hierarchies(&mut self) -> &mut Vec<Hierarchy> {
        if self.hierarchies.is_empty() {
            let cfg = self.hier_cfg;
            self.hierarchies = (0..self.cores()).map(|_| Hierarchy::new(cfg)).collect();
            self.msc = self.cold_msc();
        }
        &mut self.hierarchies
    }

    /// Cold memory-side caches, one per core in cache mode; none in
    /// any other setup.
    fn cold_msc(&self) -> Vec<MemorySideCache> {
        let Some(capacity) = self.msc_capacity else {
            return Vec::new();
        };
        (0..self.cores())
            .map(|_| MemorySideCache::new(capacity, self.line_bytes as u32))
            .collect()
    }

    /// Replay one access; returns its latency.
    pub(crate) fn access(&mut self, t: TraceAccess) -> Duration {
        let core = partition_by_core(t.core, self.cores());
        let kind = if t.write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let (level, tlb) = self.hierarchies()[core].access(t.addr, kind);
        let mut flags = pack_flags(t.write, t.dependent, level, tlb);
        if let (LevelHit::Memory, Some(msc)) = (level, self.msc.get_mut(core)) {
            if msc.access(t.addr, t.write).is_hit() {
                flags = flags & !LEVEL_MASK | LEVEL_MCDRAM_CACHE_BITS;
            }
        }
        self.access_timed(core, t.addr, flags)
    }

    /// The timing half of [`access`](Self::access): everything after
    /// the (timing-independent) private-hierarchy lookup and, in cache
    /// mode, the memory-side tag probe, for an access classified as
    /// `flags` (see [`pack_flags`]). The sequential, streaming, and
    /// classified paths all funnel through this one body, and price
    /// the SRAM latency from one table, so they cannot diverge.
    fn access_timed(&mut self, core: usize, addr: u64, flags: u8) -> Duration {
        let dependent = unpack_dependent(flags);
        let level = unpack_level(flags);
        let sram_lat = self.sram_lat[(flags >> 2) as usize & 0xF];
        // Migration ticks on the pre-stall clock of the consuming
        // core, so rebalances land at identical trace offsets in every
        // engine.
        let now0 = self.core_clock[core];
        let routed_hbm = self.migrate_tick(addr, level == LevelHit::Memory, now0);
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
            let cache_mode = self.msc_capacity.is_some();
            let is_hbm_target = match (cache_mode, level) {
                (true, LevelHit::McdramCache) => true,
                (true, _) => false, // DDR behind the cache
                (false, _) => routed_hbm,
            };
            // Mesh traversal charged analytically: per-link flit
            // reservation is far too pessimistic at memory rates (the
            // KNL mesh is provisioned well beyond memory bandwidth),
            // so the request half of the average round trip is added
            // as latency instead. Messages and hops are still counted.
            self.mesh.note_analytic_message(if is_hbm_target {
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
            let served = match (cache_mode, level) {
                (true, LevelHit::McdramCache) => {
                    self.core_totals[core].mcdram_cache_hits += 1;
                    self.hbm.access(addr, arrive)
                }
                (true, _) => {
                    // Tag probe in MCDRAM, then the DDR fetch, then the
                    // fill write into MCDRAM (fill not on critical path).
                    let tag_done = self.hbm.access(addr, arrive);
                    let data = self.ddr.access(addr, tag_done);
                    let _fill = self.hbm.access(addr, data);
                    data
                }
                (false, _) => {
                    if is_hbm_target {
                        self.hbm.access(addr, arrive)
                    } else {
                        self.ddr.access(addr, arrive)
                    }
                }
            };
            // Response traverses the mesh back, charged as latency.
            done = served
                + if is_hbm_target {
                    self.resp_half_hbm
                } else {
                    self.resp_half_ddr
                };
            self.mshrs[core].complete_at(addr & !(self.line_bytes - 1), done);
            if let Some(ts) = self.timeseries.as_deref_mut() {
                // The serving device: MCDRAM exactly when the target
                // is, in cache mode too (a hit, versus a miss whose
                // DDR fetch completes the chain).
                ts.raw_wait[is_hbm_target as usize] += served.since(arrive).as_ps();
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
    /// otherwise cores that drift ahead would reserve bank slots "in
    /// the future" and laggards would queue behind phantom traffic.
    pub fn run(&mut self, trace: &[TraceAccess]) -> TraceSimReport {
        let cores = self.cores();
        let t_partition = self.telemetry.is_some().then(Instant::now);
        let mut queues: Vec<VecDeque<TraceAccess>> = vec![VecDeque::new(); cores];
        for &t in trace {
            queues[partition_by_core(t.core, cores)].push_back(t);
        }
        self.reset_run_stats();
        self.last_peak_buffer = std::mem::size_of_val(trace);
        self.peak_buffered_accesses = trace.len();
        self.end_span(t_partition, "partition", trace.len());
        // The sequential path classifies inside the merge loop, so one
        // span covers both.
        let t_merge = self.telemetry.is_some().then(Instant::now);
        let mut tree = LoserTree::new(cores);
        for (c, q) in queues.iter().enumerate() {
            if !q.is_empty() {
                tree.set(c, self.core_clock[c].as_ps());
            }
        }
        while let Some(c) = tree.winner() {
            let t = queues[c].pop_front().expect("open slot has work");
            self.access(t);
            if queues[c].is_empty() {
                tree.close(c);
            } else {
                tree.set(c, self.core_clock[c].as_ps());
            }
        }
        self.end_span(t_merge, "merge", trace.len());
        self.finish()
    }

    /// Replay a prebuilt [`ClassifiedTrace`] artifact: the timing-only
    /// fast path of the classify-once / replay-many sweep engine. The
    /// generators never run and the private cache hierarchies are
    /// never consulted — each refill is a memcpy of the artifact's SoA
    /// slices — yet the merge discipline, MSHR/mesh/bank models,
    /// migration ticks, and worker counts behave exactly as in
    /// [`run_streaming`](Self::run_streaming), so the report and every
    /// device statistic are **bit-identical** to a fresh
    /// [`run`](Self::run) of the same trace (the differential suite
    /// proves it across generators × setups × workers). Refills copy
    /// at most [`set_replay_window`](Self::set_replay_window) accesses,
    /// split evenly across the cores.
    ///
    /// One artifact serves every memory setup. In cache mode this call
    /// builds one cold memory-side cache per core, on the calling
    /// thread before the merge starts, and probes each slice as it is
    /// copied in: the artifact was classified from cold caches, and the
    /// tag stores start cold too, on every call. They are dropped when
    /// the call returns, and the stores the classifying paths keep
    /// warm are left as they were.
    ///
    /// Because classification never happens here, this simulator's
    /// private hierarchies are not even built (a later classifying
    /// call builds them fresh) and its `cache.*` counters read zero;
    /// classification-stage totals live on the artifact
    /// ([`ClassifiedTrace::level_hits`]), memory-side cache hits in the
    /// report and in `shard.mcdram_cache_hits`.
    ///
    /// # Panics
    ///
    /// When the artifact does not fit this simulator: core count or
    /// [`classify_signature`](Self::classify_signature) mismatch —
    /// replaying it would be silently wrong, which is exactly what the
    /// [`ClassifyKey`](crate::classified::ClassifyKey) exists to
    /// prevent (a changed key must invalidate, not alias).
    pub fn run_classified(&mut self, ct: &ClassifiedTrace) -> TraceSimReport {
        let cores = self.cores();
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
            msc: self.cold_msc(),
        })
    }

    /// Replay a trace pulled incrementally from `fill`, overlapping
    /// generation and classification with timing; bit-identical to
    /// [`run`](Self::run) on the concatenation of the filled chunks.
    ///
    /// `fill` appends the next bounded chunk of the trace to the given
    /// buffer and returns how many accesses it added; returning 0 ends
    /// the stream. It runs on a producer thread that owns this
    /// simulator's hierarchies for the whole run (and hands them back
    /// afterwards, also on an empty run) and classifies each chunk as
    /// one window on [`par::num_threads`] workers, so chunk `n + 1` is
    /// generated and classified while chunk `n` is timed here.
    ///
    /// Until the producer ends any core may still receive work, so a
    /// core whose queue runs dry stays in the merge as a ghost, and the
    /// next chunk is pulled only when a ghost wins. Workloads that
    /// spread accesses across cores therefore buffer about one chunk;
    /// a workload confined to a subset of cores (a single-core pointer
    /// chase is the extreme) buffers most of its classified trace —
    /// trading memory, never correctness — and warns once via
    /// `buffer_warning`.
    pub fn run_streaming(
        &mut self,
        mut fill: impl FnMut(&mut Vec<TraceAccess>) -> usize + Send,
    ) -> TraceSimReport {
        let timed = self.telemetry.is_some();
        // `with_threads` overrides are thread-local: carry the caller's
        // worker count onto the producer thread.
        let threads = par::num_threads();
        let mut shards: Vec<ReplayShard> = std::mem::take(self.hierarchies())
            .into_iter()
            .map(ReplayShard::new)
            .collect();
        let producer_shards = &mut shards;
        let mut buf = Vec::new();
        let (report, pipe_stats) = par::pipelined_stats(
            PIPE_DEPTH,
            move || {
                par::with_threads(threads, || {
                    buf.clear();
                    let started = timed.then(Instant::now);
                    if fill(&mut buf) == 0 {
                        return None;
                    }
                    let generated = started.map(|s| (s, Instant::now()));
                    Some(PipeBatch::classify(producer_shards, &buf, generated, timed))
                })
            },
            |rx| {
                self.run_windowed(ReplayInput::Pipe {
                    rx,
                    done: false,
                    max_chunk: 0,
                })
            },
        );
        self.hierarchies = shards.into_iter().map(|s| s.hier).collect();
        self.last_pipe_stats = pipe_stats;
        report
    }

    /// The windowed merge behind [`run_streaming`](Self::run_streaming)
    /// and [`run_classified`](Self::run_classified): the merge discipline of
    /// [`run`](Self::run), with ghost-slot refills taking the next
    /// classified batch off the producer pipe (or copying the next
    /// artifact slices). It never touches a hierarchy; in cache mode
    /// each refill probes the memory-side caches (see
    /// [`refill_window`](Self::refill_window)).
    fn run_windowed(&mut self, mut input: ReplayInput<'_, '_>) -> TraceSimReport {
        let cores = self.cores();
        self.reset_run_stats();
        let window = self.replay_window;
        let mut queues: Vec<ClassifiedSoa> = (0..cores).map(|_| ClassifiedSoa::new()).collect();
        let mut tree = LoserTree::new(cores);
        for c in 0..cores {
            if input.can_feed(c) {
                tree.set(c, self.core_clock[c].as_ps());
            }
        }
        let tel_on = self.telemetry.is_some();
        let mut t_merge = tel_on.then(Instant::now);
        let mut drained = 0usize;
        while let Some(c) = tree.winner() {
            if queues[c].is_empty() {
                // Ghost: this core's clock is the earliest but its next
                // access has not arrived yet — pull the next batch.
                self.end_merge_span(t_merge, drained);
                drained = 0;
                if !self.refill_window(&mut input, window, &mut queues) {
                    // Only a stream runs out while ghosts remain: no
                    // core can gain work now, so close them.
                    for (g, q) in queues.iter().enumerate() {
                        if q.is_empty() {
                            tree.close(g);
                        }
                    }
                }
                t_merge = tel_on.then(Instant::now);
                continue;
            }
            let (addr, flags) = queues[c].pop().expect("non-empty batch");
            self.access_timed(c, addr, flags);
            drained += 1;
            if queues[c].is_empty() && !input.can_feed(c) {
                tree.close(c);
            } else {
                tree.set(c, self.core_clock[c].as_ps());
            }
        }
        self.end_merge_span(t_merge, drained);
        self.finish()
    }

    /// Simulated cores (one timing shard each).
    fn cores(&self) -> usize {
        self.core_clock.len()
    }

    /// Zero the per-run observability counters at the start of a
    /// `run*` call.
    fn reset_run_stats(&mut self) {
        self.last_pipe_stats = par::PipeStats::default();
        self.last_peak_buffer = 0;
        self.peak_buffered_accesses = 0;
        self.timing_stats = TimingEngineStats::default();
    }

    /// Close the `replay` span `name` over `accesses` accesses, started
    /// at `t0` (nothing when telemetry is off).
    fn end_span(&mut self, t0: Option<Instant>, name: &str, accesses: usize) {
        if let (Some(log), Some(t0)) = (&mut self.telemetry, t0) {
            log.end(t0, name, "replay", 0, [("accesses", accesses as f64)]);
        }
    }

    /// Close a `merge` span over the `drained` accesses consumed since
    /// `t0` (nothing when nothing was drained).
    fn end_merge_span(&mut self, t0: Option<Instant>, drained: usize) {
        if drained > 0 {
            self.end_span(t0, "merge", drained);
        }
    }

    /// Refill the per-core queues with the next window of input — a
    /// classified batch off the producer pipe, or prebuilt slices
    /// copied from a [`ClassifiedTrace`]. Returns `false` when the
    /// pipe is exhausted; an artifact refill always copies something.
    ///
    /// In cache mode each core's new accesses then run through that
    /// core's memory-side cache before the merge sees them: the pipe's
    /// batches through the warm stores in `self.msc`, an artifact's
    /// slices through the replay's own. A core's accesses enter its
    /// queue in program order, so the tags see exactly the L2-miss
    /// stream that [`access`](Self::access) probes inline.
    fn refill_window(
        &mut self,
        input: &mut ReplayInput<'_, '_>,
        window: usize,
        queues: &mut [ClassifiedSoa],
    ) -> bool {
        let raw_accesses = match input {
            ReplayInput::Pipe {
                rx,
                done,
                max_chunk,
            } => {
                let Some(batch) = rx.recv() else {
                    *done = true;
                    return false;
                };
                let n = batch.accesses;
                if let Some(log) = &mut self.telemetry {
                    // The producer's spans, on their own lane.
                    for (name, span) in [
                        ("generate", batch.generated),
                        ("classify", batch.classified),
                    ] {
                        if let Some((s, e)) = span {
                            log.span_between(s, e, name, "replay", 1, [("accesses", n as f64)]);
                        }
                    }
                }
                *max_chunk = (*max_chunk).max(n);
                for (c, (q, mut b)) in queues.iter_mut().zip(batch.per_core).enumerate() {
                    if let Some(msc) = self.msc.get_mut(c) {
                        b.probe_msc(msc);
                    }
                    q.append(b);
                }
                n
            }
            ReplayInput::Classified { ct, next, msc } => {
                // Top up every dry core with its next slice; cores
                // split the window budget evenly, so a full refill
                // copies at most ~one window across all shards.
                let per_core = (window / queues.len().max(1)).max(1);
                let mut copied = 0usize;
                for (c, queue) in queues.iter_mut().enumerate() {
                    let start = next[c];
                    let take = per_core.min(ct.per_core_len(c) - start);
                    if take == 0 || !queue.is_empty() {
                        continue;
                    }
                    let (addr, flags) = ct.core_arrays(c);
                    queue.compact();
                    queue.extend_from_arrays(
                        &addr[start..start + take],
                        &flags[start..start + take],
                    );
                    if let Some(msc) = msc.get_mut(c) {
                        queue.probe_msc(msc);
                    }
                    next[c] = start + take;
                    copied += take;
                }
                // The ghost that asked for this refill is a dry core
                // with accesses left (`can_feed`), so it always gets
                // some: an artifact never runs out while ghosts remain.
                assert!(copied > 0, "classified refill copied nothing");
                0
            }
        };
        // The raw window the producer partitioned counts too, as it did
        // when classification ran on this thread.
        let mut buffered = raw_accesses * std::mem::size_of::<TraceAccess>();
        let mut backlog = 0usize;
        for q in queues.iter() {
            buffered += q.buffered_bytes();
            backlog += q.len();
        }
        self.last_peak_buffer = self.last_peak_buffer.max(buffered);
        self.peak_buffered_accesses = self.peak_buffered_accesses.max(backlog);
        self.timing_stats.windows += 1;
        if let ReplayInput::Pipe { max_chunk, .. } = input {
            if let Some(msg) = buffer_warning(backlog, *max_chunk) {
                simfabric::env::warn_once("tracesim.buffer_backlog", &msg);
            }
        }
        true
    }

    /// Finalize and return the report (the order-independent reduction
    /// of the per-core totals). Idempotent, and safe on an empty run.
    pub(crate) fn finish(&mut self) -> TraceSimReport {
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
    use crate::config::MemSetup;

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

    /// A 4-MB working set (exceeds the 1-MB L2, fits an 8-MB MSC)
    /// streamed twice by core 0.
    fn fitting_two_pass_trace() -> Vec<TraceAccess> {
        let lines = 4 * 1024 * 1024 / 64u64;
        let mut trace = Vec::new();
        for _pass in 0..2 {
            for i in 0..lines {
                trace.push(TraceAccess::read(0, i * 64));
            }
        }
        trace
    }

    #[test]
    fn cache_mode_hits_mcdram_after_first_pass() {
        // The second pass should hit the MSC, in the sequential
        // oracle, in streaming replay, and in a replay of an artifact
        // classified under a flat config.
        let trace = fitting_two_pass_trace();
        let lines = trace.len() as u64 / 2;
        let make = || {
            TraceSim::new(
                &cfg(MemSetup::CacheMode),
                1,
                TracePlacement::AllDdr,
                ByteSize::mib(8),
            )
        };
        let r = make().run(&trace);
        assert!(r.mcdram_cache_hits > lines / 2, "too few MSC hits: {r:?}");
        assert_eq!(stream_chunks(&mut make(), trace.chunks(4096)), r);
        let flat = ClassifiedTrace::build_from_trace(
            &cfg(MemSetup::DramOnly),
            1,
            ByteSize::mib(8),
            "unit",
            &trace,
        );
        assert_eq!(flat.level_hits()[2], 0, "classification stops at L2");
        assert_eq!(make().run_classified(&flat), r);
    }

    #[test]
    fn hybrid_replay_hits_its_mcdram_cache_like_cache_mode() {
        // Hybrid replays as cache mode with the capacity it is given:
        // a fitting footprint scores the same MSC hits, in `run` and
        // in an artifact replay.
        let trace = fitting_two_pass_trace();
        let ct = artifact(1, &trace);
        let make = |setup| TraceSim::new(&cfg(setup), 1, TracePlacement::AllDdr, ByteSize::mib(8));
        let cache = make(MemSetup::CacheMode).run(&trace);
        assert!(cache.mcdram_cache_hits > 0, "{cache:?}");
        let hybrid = make(MemSetup::Hybrid).run(&trace);
        assert_eq!(hybrid.mcdram_cache_hits, cache.mcdram_cache_hits);
        assert_eq!(hybrid, cache);
        assert_eq!(make(MemSetup::Hybrid).run_classified(&ct), cache);
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
        assert_eq!(sim.run_streaming(|_| 0), TraceSimReport::default());
        let empty = ClassifiedTrace::build_from_trace(
            &cfg(MemSetup::DramOnly),
            4,
            ByteSize::mib(1),
            "empty",
            &[],
        );
        assert_eq!(sim.run_classified(&empty), TraceSimReport::default());
    }

    #[test]
    fn merged_shard_totals_match_whole_trace_totals() {
        // Mixed read/write/chase trace across four cores: the per-core
        // shard totals must reduce — in any order — to exactly the
        // whole-trace report (guards the deterministic merge).
        let mut trace = stream_trace(4, 200);
        for i in 0..400u64 {
            trace.push(TraceAccess::write((i % 4) as u32, (1 << 20) | (i * 64)));
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

    /// Classify `trace` for `cores` cores under the DDR-only config the
    /// unit tests use.
    fn artifact(cores: u32, trace: &[TraceAccess]) -> ClassifiedTrace {
        ClassifiedTrace::build_from_trace(
            &cfg(MemSetup::DramOnly),
            cores,
            ByteSize::mib(1),
            "unit",
            trace,
        )
    }

    #[test]
    fn classified_replay_matches_sequential_in_unit() {
        // Small smoke version of tests/classified_equivalence.rs: the
        // artifact replay must be bit-identical to the reference at
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
        let ct = artifact(4, &trace);
        for workers in [1, 2, 4, 8, 64] {
            for window in [None, Some(64)] {
                let mut sim = TraceSim::new(
                    &cfg(MemSetup::DramOnly),
                    4,
                    TracePlacement::AllDdr,
                    ByteSize::mib(1),
                );
                if let Some(w) = window {
                    sim.set_replay_window(w);
                }
                let got = par::with_threads(workers, || sim.run_classified(&ct));
                let at = format!("workers={workers} window={window:?}");
                assert_eq!(got, expect, "{at}");
                assert_eq!(sim.ddr_stats(), seq.ddr_stats(), "{at}");
                assert_eq!(sim.mesh_stats(), seq.mesh_stats(), "{at}");
                if window.is_some() {
                    assert!(
                        sim.last_timing_stats().windows > 1,
                        "{at}: a 64-access window over {} accesses must refill",
                        trace.len()
                    );
                }
            }
        }
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

    const LEVELS: [LevelHit; 4] = [
        LevelHit::L1,
        LevelHit::L2,
        LevelHit::McdramCache,
        LevelHit::Memory,
    ];
    const TLB_OUTCOMES: [TlbOutcome; 3] = [TlbOutcome::L1Hit, TlbOutcome::L2Hit, TlbOutcome::Walk];

    #[test]
    fn classified_flags_roundtrip() {
        let mut codes = std::collections::BTreeSet::new();
        for write in [false, true] {
            for dependent in [false, true] {
                for level in LEVELS {
                    for (t, tlb) in TLB_OUTCOMES.into_iter().enumerate() {
                        let f = pack_flags(write, dependent, level, tlb);
                        assert_eq!(unpack_dependent(f), dependent);
                        assert_eq!(unpack_level(f), level);
                        assert_eq!(f & 1 != 0, write);
                        assert_eq!(f >> 4, t as u8, "TLB bits of {tlb:?}");
                        assert!(codes.insert(f), "{f:#010b} packed twice");
                        // The memory-side probe's rewrite keeps the
                        // TLB bits.
                        if level == LevelHit::Memory {
                            let hit = f & !LEVEL_MASK | LEVEL_MCDRAM_CACHE_BITS;
                            assert_eq!(
                                hit,
                                pack_flags(write, dependent, LevelHit::McdramCache, tlb)
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sram_table_prices_every_level_and_tlb_outcome() {
        // A memory latency of its own, unlike replay's zeroed one, so
        // an L2 miss priced as an L2 hit shows.
        let hier_cfg = HierarchyConfig::knl_flat(Duration::from_ns(130.4));
        let table = sram_latency_table(&hier_cfg);
        let (l1, l2, mem) = (
            hier_cfg.l1_latency,
            hier_cfg.l2_latency,
            hier_cfg.memory_latency,
        );
        for tlb in TLB_OUTCOMES {
            let translate = match tlb {
                TlbOutcome::L1Hit => Duration::ZERO,
                TlbOutcome::L2Hit => hier_cfg.tlb.l2_hit_latency,
                TlbOutcome::Walk => hier_cfg.tlb.walk_latency,
            };
            for (level, sram) in [
                (LevelHit::L1, l1),
                (LevelHit::L2, l1 + l2),
                (LevelHit::McdramCache, l1 + l2 + mem),
                (LevelHit::Memory, l1 + l2 + mem),
            ] {
                let code = pack_flags(true, true, level, tlb);
                assert_eq!(
                    table[(code >> 2) as usize],
                    sram + translate,
                    "{level:?} {tlb:?}"
                );
            }
        }
        // The simulator prices from the table of replay's hierarchy.
        let sim = TraceSim::new(
            &cfg(MemSetup::CacheMode),
            1,
            TracePlacement::AllDdr,
            ByteSize::mib(1),
        );
        let replay_cfg = hierarchy_config(&cfg(MemSetup::CacheMode));
        assert_eq!(sim.sram_lat, sram_latency_table(&replay_cfg));
    }

    /// A write-heavy trace whose L2 misses re-touch a few lines: each
    /// core picks among 48 lines that share one L2 set (16 ways), so
    /// about two thirds of its accesses miss L2, and half of them are
    /// stores, so the memory-side caches hold dirty lines to evict.
    fn conflict_trace(cores: u32, per_core: u64) -> Vec<TraceAccess> {
        let mut rng = simfabric::prng::Rng::seed_from_u64(0xD1_27);
        let mut t = Vec::new();
        for _ in 0..per_core {
            for c in 0..cores {
                let line = c as u64 * 7_919 + rng.next_below(48) * 1024;
                let addr = line * 64;
                t.push(match rng.next_below(4) {
                    0 | 1 => TraceAccess::write(c, addr),
                    2 => TraceAccess::chase(c, addr),
                    _ => TraceAccess::read(c, addr),
                });
            }
        }
        t
    }

    /// `(hits, misses, writebacks)` of every memory-side cache.
    fn msc_counts(msc: &[MemorySideCache]) -> Vec<(u64, u64, u64)> {
        msc.iter()
            .map(|m| (m.hits.get(), m.misses.get(), m.writebacks.get()))
            .collect()
    }

    #[test]
    fn batch_probe_matches_one_probe_per_l2_miss() {
        // The windowed engines probe a batch at a time and `access`
        // probes one L2 miss at a time; both must leave the tags, the
        // dirty bits and the levels identical.
        let trace = conflict_trace(1, 4_000);
        // 16 Ki slots: the 48 lines spread over 16 of them.
        let capacity = ByteSize::mib(1);
        let mut hier = Hierarchy::new(hierarchy_config(&cfg(MemSetup::DramOnly)));
        let mut inline = MemorySideCache::new(capacity, 64);
        let mut batched = MemorySideCache::new(capacity, 64);
        let mut batch = ClassifiedSoa::new();
        let mut want = Vec::new();
        for t in &trace {
            let kind = if t.write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let (level, tlb) = hier.access(t.addr, kind);
            batch.push(t.addr, t.write, t.dependent, level, tlb);
            let hit = level == LevelHit::Memory && inline.access(t.addr, t.write).is_hit();
            want.push(if hit { LevelHit::McdramCache } else { level });
        }
        // Probe in two batches, the second behind a consumed prefix.
        let mut first = ClassifiedSoa::new();
        let (addr, flags) = batch.arrays();
        let cut = trace.len() / 3;
        first.extend_from_arrays(&addr[..cut], &flags[..cut]);
        first.probe_msc(&mut batched);
        let level = |(_, f): (u64, u8)| unpack_level(f);
        let mut got: Vec<LevelHit> = std::iter::from_fn(|| first.pop().map(level)).collect();
        let mut rest = ClassifiedSoa::new();
        rest.extend_from_arrays(addr, flags);
        for _ in 0..cut {
            rest.pop();
        }
        rest.probe_msc(&mut batched);
        got.extend(std::iter::from_fn(|| rest.pop().map(level)));
        assert_eq!(got, want);
        let counts = msc_counts(&[inline]);
        assert_eq!(msc_counts(&[batched]), counts);
        let (hits, _, writebacks) = counts[0];
        assert!(hits > 0 && writebacks > 0, "{counts:?}");
    }

    #[test]
    fn classified_replays_build_tag_stores_only_in_cache_mode() {
        let trace = conflict_trace(4, 200);
        let ct = artifact(4, &trace);
        for (setup, stores) in [(MemSetup::DramOnly, 0), (MemSetup::CacheMode, 4)] {
            let mut sim = TraceSim::new(&cfg(setup), 4, TracePlacement::AllDdr, ByteSize::kib(4));
            let cold = sim.cold_msc();
            assert_eq!(cold.len(), stores, "{setup:?}");
            assert!(cold.iter().all(|m| m.slots() == 64 && m.hits.get() == 0));
            sim.run_classified(&ct);
            // The replay's own stores are gone, and the classifying
            // paths' state was never built.
            assert!(
                sim.msc.is_empty() && sim.hierarchies.is_empty(),
                "{setup:?}"
            );
        }
    }

    #[test]
    fn consecutive_classified_replays_start_from_cold_tags() {
        // Two passes over 2 MiB per core: more than L2, less than the
        // 4 MiB memory-side cache, with every line distinct within a
        // pass, so no access merges into an in-flight miss and the
        // count of MSC hits depends on the tags alone. Each replay on
        // one simulator scores what a fresh simulator scores; stores
        // kept warm from the first replay would hit on the first pass
        // of the second.
        let lines = 2 * 1024 * 1024 / 64u64;
        let mut trace = Vec::new();
        for _pass in 0..2 {
            for i in 0..lines {
                for c in 0..2u32 {
                    trace.push(TraceAccess::write(c, ((c as u64) << 30) | (i * 64)));
                }
            }
        }
        let ct = artifact(2, &trace);
        let make = || {
            TraceSim::new(
                &cfg(MemSetup::CacheMode),
                2,
                TracePlacement::AllDdr,
                ByteSize::mib(4),
            )
        };
        let fresh = make().run_classified(&ct);
        assert!(fresh.mcdram_cache_hits > 0, "{fresh:?}");
        let mut sim = make();
        let first = sim.run_classified(&ct);
        assert_eq!(first, fresh);
        let second = sim.run_classified(&ct);
        for (name, total, once) in [
            ("accesses", second.accesses, fresh.accesses),
            ("memory", second.memory_accesses, fresh.memory_accesses),
            (
                "msc hits",
                second.mcdram_cache_hits,
                fresh.mcdram_cache_hits,
            ),
        ] {
            assert_eq!(total, 2 * once, "{name}: second replay vs a fresh one");
        }
    }

    #[test]
    fn classified_soa_fifo_and_compaction() {
        let mut q = ClassifiedSoa::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        let tlb = |i: u64| TLB_OUTCOMES[i as usize % 3];
        for i in 0..10u64 {
            q.push(i * 64, i % 2 == 0, i % 3 == 0, LevelHit::Memory, tlb(i));
        }
        assert_eq!(q.len(), 10);
        for i in 0..4u64 {
            let (addr, flags) = q.pop().unwrap();
            assert_eq!(addr, i * 64);
            assert_eq!(
                flags,
                pack_flags(i % 2 == 0, i % 3 == 0, LevelHit::Memory, tlb(i))
            );
        }
        let before = q.buffered_bytes();
        q.compact();
        assert_eq!(q.len(), 6);
        assert_eq!(q.buffered_bytes(), before);
        let (addr, ..) = q.pop().unwrap();
        assert_eq!(addr, 4 * 64);
    }

    /// Stream `chunks` through `sim`, one producer chunk each.
    fn stream_chunks<'a, I>(sim: &mut TraceSim, chunks: I) -> TraceSimReport
    where
        I: IntoIterator<Item = &'a [TraceAccess]>,
        I::IntoIter: Send,
    {
        let mut chunks = chunks.into_iter();
        sim.run_streaming(move |buf| match chunks.next() {
            Some(chunk) => {
                buf.extend_from_slice(chunk);
                chunk.len()
            }
            None => 0,
        })
    }

    #[test]
    fn identical_clocks_tie_break_toward_lower_core() {
        // Two cores issue the same dependent-chase pattern, so their
        // clocks collide constantly; every tie must resolve toward the
        // lower core, as in the sequential order. The sequential,
        // classified and streaming paths must agree exactly.
        let mut trace = Vec::new();
        for i in 0..200u64 {
            for c in [1u32, 0] {
                trace.push(TraceAccess::chase(c, ((c as u64) << 32) | (i * (4 << 20))));
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
        let mut classified = make();
        // A small window forces refills mid-tie.
        classified.set_replay_window(8);
        assert_eq!(classified.run_classified(&artifact(2, &trace)), expect);
        assert_eq!(classified.ddr_stats(), seq.ddr_stats());
        let mut stream_sim = make();
        // Tiny chunks force many refills mid-tie.
        let got = par::with_threads(2, || stream_chunks(&mut stream_sim, trace.chunks(7)));
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
        assert_eq!(stream_chunks(&mut stream_sim, [&trace[..]]), expect);
        // All-empty stream: no chunks at all.
        let mut empty_sim = TraceSim::new(
            &cfg(MemSetup::DramOnly),
            4,
            TracePlacement::AllDdr,
            ByteSize::mib(1),
        );
        assert_eq!(empty_sim.run_streaming(|_| 0), TraceSimReport::default());
        assert_eq!(empty_sim.last_peak_trace_buffer_bytes(), 0);
        assert_eq!(empty_sim.last_timing_stats().windows, 0);
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
                let got =
                    par::with_threads(workers, || stream_chunks(&mut sim, trace.chunks(chunk)));
                assert_eq!(got, expect, "chunk={chunk} workers={workers}");
                assert_eq!(sim.ddr_stats(), seq.ddr_stats(), "chunk={chunk}");
                assert_eq!(sim.mesh_stats(), seq.mesh_stats(), "chunk={chunk}");
                assert_eq!(sim.per_core_totals(), seq.per_core_totals());
                // A spread-across-cores workload streams in bounded
                // buffers: far below the materialized path's footprint.
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
    fn streaming_cores_that_join_late_or_never() {
        // Eight cores: 0 and 2 run from the first chunk, 5 appears only
        // in the last chunk, and 1/3/4/6/7 never receive work. The
        // silent cores stay ghosts until the producer ends and are then
        // closed; the replay must still match `run` bit for bit.
        let (mut head, stride) = (Vec::new(), 2 * 1024 * 1024 + 64);
        for i in 0..300u64 {
            head.push(TraceAccess::read(0, i * 64));
            head.push(TraceAccess::chase(2, (1 << 28) + i * stride));
        }
        let tail: Vec<TraceAccess> = (0..40u64)
            .map(|i| TraceAccess::write(5, (1 << 29) + i * 64))
            .collect();
        let trace = [head.as_slice(), tail.as_slice()].concat();
        let make = || {
            TraceSim::new(
                &cfg(MemSetup::DramOnly),
                8,
                TracePlacement::AllDdr,
                ByteSize::mib(1),
            )
        };
        let mut seq = make();
        let expect = seq.run(&trace);
        for chunk in [1usize, 64, trace.len()] {
            for workers in [1, 2, 8] {
                let at = format!("chunk={chunk} workers={workers}");
                let mut sim = make();
                let got = if chunk == trace.len() {
                    par::with_threads(workers, || stream_chunks(&mut sim, [&trace[..]]))
                } else {
                    let chunks = head.chunks(chunk).chain([&tail[..]]);
                    par::with_threads(workers, || stream_chunks(&mut sim, chunks))
                };
                assert_eq!(got, expect, "{at}");
                assert_eq!(sim.ddr_stats(), seq.ddr_stats(), "{at}");
                assert_eq!(sim.mesh_stats(), seq.mesh_stats(), "{at}");
                assert_eq!(sim.per_core_totals(), seq.per_core_totals(), "{at}");
            }
        }
    }

    #[test]
    fn consecutive_pipelined_runs_keep_hierarchies_warm() {
        // In flat mode, 1000 lines per core fit each private L2, so a
        // second replay of the same trace hits where the first missed —
        // but only if the producer hands the warm hierarchies back after
        // each run, including the empty run that comes first. In cache
        // mode, 20,000 lines per core overflow L2 but fit the 4 MiB
        // memory-side caches, so the second replay hits those instead,
        // and only if the merge thread keeps them warm too. Chunks of 64
        // match the trace's four-core burst rounds; chunks of 100 cut
        // through them.
        for (setup, per_core) in [(MemSetup::DramOnly, 1000), (MemSetup::CacheMode, 20_000)] {
            let trace = stream_trace(4, per_core);
            let make = || TraceSim::new(&cfg(setup), 4, TracePlacement::AllDdr, ByteSize::mib(4));
            let l2_hits = |s: &TraceSim| match s.shard_metrics(0).get("cache.l2_hits") {
                Some(simfabric::telemetry::MetricValue::Counter(n)) => *n,
                other => panic!("cache.l2_hits: {other:?}"),
            };
            for chunk in [64, 100] {
                let (mut seq, mut sim) = (make(), make());
                let (mut hits, mut msc_hits) = (Vec::new(), Vec::new());
                for (round, input) in [&[][..], &trace[..], &trace[..]].into_iter().enumerate() {
                    let want = seq.run(input);
                    let got = par::with_threads(2, || stream_chunks(&mut sim, input.chunks(chunk)));
                    let at = format!("{setup:?} chunk={chunk} round {round}");
                    assert_eq!(got, want, "{at}");
                    assert_eq!(sim.ddr_stats(), seq.ddr_stats(), "{at}");
                    assert_eq!(sim.hbm_stats(), seq.hbm_stats(), "{at}");
                    assert_eq!(sim.mesh_stats(), seq.mesh_stats(), "{at}");
                    for c in 0..4 {
                        assert_eq!(sim.shard_metrics(c), seq.shard_metrics(c), "{at} core {c}");
                    }
                    if round > 0 {
                        // `run` builds its stores at its first access.
                        assert_eq!(msc_counts(&sim.msc), msc_counts(&seq.msc), "{at}");
                    }
                    hits.push(l2_hits(&sim));
                    msc_hits.push(got.mcdram_cache_hits);
                }
                let at = format!("{setup:?} chunk={chunk}");
                if setup == MemSetup::CacheMode {
                    assert!(
                        msc_hits[2] - msc_hits[1] > msc_hits[1],
                        "{at}: the warm round must hit the MSC more often \
                         than the cold one: {msc_hits:?}"
                    );
                } else {
                    assert!(
                        hits[2] - hits[1] > hits[1],
                        "{at}: the warm round must hit L2 more often \
                         than the cold one: {hits:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn streaming_probes_match_the_sequential_oracle_under_writes() {
        // The pipe's batch probes and `run`'s inline probes must leave
        // every core's tags, dirty bits and counters identical.
        let trace = conflict_trace(4, 500);
        for capacity in [ByteSize::bytes(64), ByteSize::kib(4), ByteSize::mib(1)] {
            let make = || {
                TraceSim::new(
                    &cfg(MemSetup::CacheMode),
                    4,
                    TracePlacement::AllDdr,
                    capacity,
                )
            };
            let mut seq = make();
            let want = seq.run(&trace);
            let mut sim = make();
            let got = par::with_threads(2, || stream_chunks(&mut sim, trace.chunks(37)));
            assert_eq!(got, want, "{capacity}");
            assert_eq!(sim.hbm_stats(), seq.hbm_stats(), "{capacity}");
            let counts = msc_counts(&seq.msc);
            assert_eq!(msc_counts(&sim.msc), counts, "{capacity}");
            assert!(
                counts.iter().all(|&(_, _, wb)| wb > 0),
                "{capacity}: {counts:?}"
            );
        }
    }

    /// A seeded trace that is hard on the TLB, with writes and
    /// dependent chains mixed in at random: bursts of page-stride
    /// accesses over more pages than the TLB's 320 entries (each at a
    /// line offset that spreads them over L1's sets, so L1 can hit
    /// under a page walk), pairs straddling a page boundary, random
    /// lines over 64 MiB, and revisits of a core's recent lines.
    fn tlb_hostile_trace(rng: &mut simfabric::prng::Rng, cores: u32) -> Vec<TraceAccess> {
        let mut recent: Vec<Vec<u64>> = vec![Vec::new(); cores as usize];
        let mut trace = Vec::new();
        for _ in 0..rng.gen_range(40..80u64) {
            let core = rng.next_below(cores as u64) as u32;
            let pattern = rng.next_below(4);
            let mut page = rng.next_below(1 << 14);
            let stride = 1 + rng.next_below(3);
            for i in 0..rng.gen_range(16..400u64) {
                let addr = match pattern {
                    0 => {
                        page += stride;
                        (page << 12) | ((page % 64) << 6)
                    }
                    1 => ((page + 1 + i / 2) << 12) - 64 + (i % 2) * 64,
                    2 => rng.next_below(1 << 20) << 6,
                    _ => match recent[core as usize].len() as u64 {
                        0 => page << 12,
                        n => recent[core as usize][(n - 1 - rng.next_below(n.min(2048))) as usize],
                    },
                };
                recent[core as usize].push(addr);
                trace.push(TraceAccess {
                    core,
                    addr,
                    write: rng.next_below(4) == 0,
                    dependent: rng.next_below(4) == 0,
                });
            }
        }
        trace
    }

    /// The adversarial shapes drawn after the mixed TLB-hostile
    /// rounds: one busy core among eight, every core hammering one
    /// line or one DRAM row, and all-dependent chains.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        OneBusyCore,
        OneLine,
        OneRow,
        AllDependent,
    }

    /// A seeded trace of `shape` over `cores` cores.
    fn adversarial_trace(
        rng: &mut simfabric::prng::Rng,
        shape: Shape,
        cores: u32,
    ) -> Vec<TraceAccess> {
        let n = rng.gen_range(500..3000u64);
        let access = |core: u32, addr: u64, rng: &mut simfabric::prng::Rng| TraceAccess {
            core,
            addr,
            write: rng.next_below(4) == 0,
            dependent: rng.next_below(4) == 0,
        };
        match shape {
            Shape::OneBusyCore => {
                let busy = rng.next_below(cores as u64) as u32;
                let mut trace = tlb_hostile_trace(rng, 1);
                for a in &mut trace {
                    a.core = busy;
                }
                trace
            }
            Shape::OneLine => {
                let line = rng.next_below(1 << 20) << 6;
                (0..n)
                    .map(|i| access((i % cores as u64) as u32, line, rng))
                    .collect()
            }
            Shape::OneRow => {
                // The 128 lines of one DDR row: one channel (every
                // sixth line), consecutive lines within it.
                let g = memdev::bank::DramGeometry::ddr4_knl();
                let (channels, per_row) = (g.channels as u64, (g.row_bytes / g.line_bytes) as u64);
                let first = rng.next_below(1 << 12) * per_row;
                let channel = rng.next_below(channels);
                let row = g.map((first * channels + channel) << 6);
                (0..n)
                    .map(|i| {
                        let line = (first + rng.next_below(per_row)) * channels + channel;
                        assert_eq!(g.map(line << 6), row);
                        access((i % cores as u64) as u32, line << 6, rng)
                    })
                    .collect()
            }
            Shape::AllDependent => {
                let mut trace = tlb_hostile_trace(rng, cores);
                for a in &mut trace {
                    a.dependent = true;
                }
                trace
            }
        }
    }

    /// Replay `trace` through the sequential oracle, through streaming
    /// at random chunk sizes and through its artifact at a random
    /// window, in flat and cache mode, and assert the three agree:
    /// report, per-core totals, device and mesh stats, and, with
    /// `ts_interval`, the time-series export. Returns the cache-mode
    /// MCDRAM-cache hits.
    fn assert_engines_agree(
        rng: &mut simfabric::prng::Rng,
        trace: &[TraceAccess],
        cores: u32,
        ts_interval: Option<u64>,
        label: &str,
    ) -> u64 {
        let ct = artifact(cores, trace);
        let capacity = ByteSize::kib(1 << rng.gen_range(4..12u64));
        let mut msc_hits = 0;
        for setup in [MemSetup::DramOnly, MemSetup::CacheMode] {
            let make = || {
                let mut sim = TraceSim::new(&cfg(setup), cores, TracePlacement::AllDdr, capacity);
                if let Some(interval) = ts_interval {
                    sim.enable_timeseries(interval, 1024);
                }
                sim
            };
            let mut seq = make();
            let expect = seq.run(trace);
            let mut streamed = make();
            let mut rest = trace;
            let chunk_rng = &mut *rng;
            let got = streamed.run_streaming(|buf| {
                let n = (chunk_rng.gen_range(1..3000u64) as usize).min(rest.len());
                buf.extend_from_slice(&rest[..n]);
                rest = &rest[n..];
                n
            });
            let window = rng.gen_range(1..5000u64) as usize;
            let mut classified = make();
            classified.set_replay_window(window);
            let replayed = classified.run_classified(&ct);
            for (engine, report, sim) in [
                ("streaming", got, &streamed),
                ("classified", replayed, &classified),
            ] {
                let at = format!("{label} {setup:?} {engine} window {window} msc {capacity}");
                assert_eq!(report, expect, "{at}");
                assert_eq!(sim.per_core_totals(), seq.per_core_totals(), "{at}");
                assert_eq!(sim.ddr_stats(), seq.ddr_stats(), "{at}");
                assert_eq!(sim.hbm_stats(), seq.hbm_stats(), "{at}");
                assert_eq!(sim.mesh_stats(), seq.mesh_stats(), "{at}");
                let export = |s: &TraceSim| s.timeseries().map(|ts| ts.to_jsonl());
                assert_eq!(export(sim), export(&seq), "{at}");
            }
            msc_hits += expect.mcdram_cache_hits;
        }
        msc_hits
    }

    #[test]
    fn tlb_hostile_replays_are_bit_identical_across_engines() {
        // Seeded loop: streaming at random chunk sizes and artifact
        // replay at random windows must match the sequential oracle,
        // device state included, in flat and cache mode; the mixed
        // traces must emit every (level, TLB outcome) code, and the
        // adversarial shapes replay with a time-series interval of 1.
        let mut rng = simfabric::prng::Rng::seed_from_u64(0x71B9);
        let mut msc_hits = 0;
        for round in 0..6 {
            let cores = rng.gen_range(1..5u64) as u32;
            let trace = tlb_hostile_trace(&mut rng, cores);
            let ct = artifact(cores, &trace);
            let mut codes = std::collections::BTreeSet::new();
            for c in 0..cores as usize {
                codes.extend(ct.core_arrays(c).1.iter().map(|f| f >> 2));
            }
            let want: std::collections::BTreeSet<u8> =
                [LevelHit::L1, LevelHit::L2, LevelHit::Memory]
                    .into_iter()
                    .flat_map(|l| TLB_OUTCOMES.map(|t| pack_flags(false, false, l, t) >> 2))
                    .collect();
            assert_eq!(codes, want, "round {round}: {} accesses", trace.len());
            msc_hits +=
                assert_engines_agree(&mut rng, &trace, cores, None, &format!("round {round}"));
        }
        assert!(msc_hits > 0, "cache mode never hit its memory-side cache");
        for shape in [
            Shape::OneBusyCore,
            Shape::OneLine,
            Shape::OneRow,
            Shape::AllDependent,
        ] {
            let cores = match shape {
                Shape::OneBusyCore => 8,
                _ => rng.gen_range(2..9u64) as u32,
            };
            let trace = adversarial_trace(&mut rng, shape, cores);
            assert_engines_agree(&mut rng, &trace, cores, Some(1), &format!("{shape:?}"));
        }
    }

    #[test]
    fn every_run_resets_the_window_count() {
        // A streaming replay after a classified one must report its own
        // window count — one per chunk pulled — not the earlier run's.
        let trace = stream_trace(4, 300);
        let ct = artifact(4, &trace);
        let mut sim = TraceSim::new(
            &cfg(MemSetup::DramOnly),
            4,
            TracePlacement::AllDdr,
            ByteSize::mib(1),
        );
        sim.set_replay_window(64);
        sim.run_classified(&ct);
        let windowed = sim.last_timing_stats().windows;
        // A 64-access window gives each of the 4 cores 16 accesses per
        // refill, so each core's 300 accesses need at least 19 refills.
        assert!(windowed >= 300u64.div_ceil(16), "{windowed} windows");
        let chunk = 100;
        par::with_threads(2, || stream_chunks(&mut sim, trace.chunks(chunk)));
        let chunks = trace.len().div_ceil(chunk) as u64;
        assert_ne!(chunks, windowed);
        assert_eq!(sim.last_timing_stats().windows, chunks);
        use simfabric::telemetry::MetricValue;
        assert_eq!(
            sim.metrics_registry().get("replay.timing.windows"),
            Some(&MetricValue::Counter(chunks))
        );
        // The sequential oracle refills no windows.
        sim.run(&trace);
        assert_eq!(sim.last_timing_stats().windows, 0);
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
        let got = par::with_threads(2, || stream_chunks(&mut sim, trace.chunks(256)));
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
        assert!(sim.peak_buffered_accesses > 0);
    }

    /// The `cache.*` counters of every shard, in core order.
    fn cache_counters(sim: &TraceSim) -> Vec<Vec<u64>> {
        use simfabric::telemetry::MetricValue;
        (0..sim.cores())
            .map(|c| {
                let reg = sim.shard_metrics(c);
                ["cache.l1_hits", "cache.l2_hits", "cache.memory_misses"]
                    .iter()
                    .map(|name| match reg.get(name) {
                        Some(MetricValue::Counter(n)) => *n,
                        other => panic!("{name}: {other:?}"),
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn memoized_path_averages_equal_a_fresh_computation() {
        for mode in [
            ClusterMode::AllToAll,
            ClusterMode::Quadrant,
            ClusterMode::Hemisphere,
            ClusterMode::Snc4,
        ] {
            let fresh = MeshModel::knl(mode);
            let want = PathAverages {
                latency_ddr: fresh.avg_memory_latency(false),
                latency_hbm: fresh.avg_memory_latency(true),
                hops_ddr: fresh.avg_memory_hops(false),
                hops_hbm: fresh.avg_memory_hops(true),
            };
            // Twice: the first call may fill the table, the second reads it.
            for _ in 0..2 {
                assert_eq!(path_averages(&MeshModel::knl(mode)), want, "{mode:?}");
            }
        }
    }

    #[test]
    fn classified_replays_leave_the_hierarchies_unbuilt() {
        let cache = cfg(MemSetup::CacheMode);
        let msc = ByteSize::kib(64);
        let new_sim = || TraceSim::new(&cache, 2, TracePlacement::AllDdr, msc);
        let first = stream_trace(2, 200);
        let second = stream_trace(2, 300);
        let probe = TraceAccess::read(1, 0x40_0000);
        let ct = ClassifiedTrace::build_from_trace(&cache, 2, msc, "unit", &first);

        let mut sim = new_sim();
        let classified = sim.run_classified(&ct);
        assert_eq!(classified, new_sim().run_classified(&ct));
        assert!(sim.hierarchies.is_empty() && sim.msc.is_empty());
        assert_eq!(cache_counters(&sim), vec![vec![0; 3]; 2]);
        let reg = sim.metrics_registry();
        assert_eq!(reg.get("cache.mcdram_cache_hits"), None);
        for name in ["cache.l1_hits", "cache.l2_hits", "cache.memory_misses"] {
            assert_eq!(
                reg.get(name),
                Some(&simfabric::telemetry::MetricValue::Counter(0)),
                "{name}"
            );
        }

        // The classifying paths then build fresh hierarchies: the same
        // sequence through the sequential oracle agrees, and the
        // hierarchies see exactly what a fresh simulator's do.
        let streamed = stream_chunks(&mut sim, second.chunks(64));
        let latency = sim.access(probe);
        let mut oracle = new_sim();
        oracle.run_classified(&ct);
        assert_eq!(oracle.run(&second), streamed);
        assert_eq!(oracle.access(probe), latency);
        assert_eq!(oracle.ddr_stats(), sim.ddr_stats());
        assert_eq!(oracle.hbm_stats(), sim.hbm_stats());
        let mut fresh = new_sim();
        stream_chunks(&mut fresh, second.chunks(64));
        fresh.access(probe);
        assert_eq!(cache_counters(&fresh), cache_counters(&sim));
        assert_eq!(cache_counters(&oracle), cache_counters(&sim));
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
