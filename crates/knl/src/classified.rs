//! Classified-trace artifacts: the reusable half of replay.
//!
//! The trace simulator's classification stage (private L1/L2/TLB) is
//! timing-independent *and* setup-independent: every memory setup,
//! cache mode at any MCDRAM-cache capacity included, shares the same
//! hierarchy config — see the [`tracesim`](crate::tracesim) module
//! docs. This
//! module materializes that stage as a [`ClassifiedTrace`]: the
//! per-core SoA batches ([17 bytes per
//! access](crate::tracesim::CLASSIFIED_ACCESS_BYTES)) plus the
//! canonical [`ClassifyKey`] describing exactly what was classified
//! (generator spec × cores × cache/TLB config). A multi-setup sweep
//! builds the artifact once per trace — streamed, so the raw trace never
//! materializes — and replays it N times through
//! [`TraceSim::run_classified`](crate::tracesim::TraceSim::run_classified),
//! skipping the generators and cache models entirely.
//!
//! # Key and invalidation
//!
//! A key names its artifact completely: if any key component changes —
//! different generator/seed/length, different core count, different
//! hierarchy config — the canonical string changes, the
//! [`ClassifyCache`] lookup misses, and the artifact is rebuilt. There
//! is no partial invalidation to get wrong: keys are compared whole,
//! and `run_classified` additionally asserts the signature against the
//! replaying simulator so a hand-constructed mismatch panics instead
//! of silently replaying the wrong classification. Memory setup,
//! MCDRAM-cache capacity, placement, worker count, and migration specs
//! are deliberately *not* in the key — they only affect the timing
//! stage, which probes cache mode's memory-side tags itself.
//!
//! # Cache observability
//!
//! [`ClassifyCache`] is LRU by total payload bytes and counts hits,
//! misses, inserts, evictions and rejections ([`ClassifyCacheStats`])
//! next to current and high-water bytes. An
//! artifact larger than the whole budget warns once per process
//! ([`classify_cache_warning`], mirroring the streaming replay's
//! buffered-accesses warning) because every sweep over it silently
//! degenerates to rebuild-per-setup.

use crate::config::MachineConfig;
use crate::tracesim::{
    classify_chunk, hierarchy_config, ClassifiedSoa, ReplayShard, TraceAccess,
    CLASSIFIED_ACCESS_BYTES,
};
use cachesim::hierarchy::{Hierarchy, LevelHit};
use simfabric::ByteSize;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Canonical identity of a classified trace: which access stream was
/// classified (`trace_spec`), over how many simulated cores, through
/// which private-hierarchy configuration (`classify_sig`, see
/// [`classify_signature`]). Two keys are equal iff their canonical
/// strings are equal; everything that can change classification is in
/// the string, and nothing that can't.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ClassifyKey {
    trace_spec: String,
    cores: u32,
    classify_sig: String,
}

impl ClassifyKey {
    /// Build a key. `trace_spec` must canonically name the generator
    /// and its parameters (kind, per-core length, seed — see
    /// `workloads::tracegen::TraceKind::spec`); the caller owns that
    /// contract, the key just compares it.
    pub fn new(trace_spec: impl Into<String>, cores: u32, classify_sig: impl Into<String>) -> Self {
        ClassifyKey {
            trace_spec: trace_spec.into(),
            cores,
            classify_sig: classify_sig.into(),
        }
    }

    /// The generator half of the key.
    pub fn trace_spec(&self) -> &str {
        &self.trace_spec
    }

    /// Simulated cores the trace was partitioned over.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// The cache/TLB-config half of the key.
    pub fn classify_sig(&self) -> &str {
        &self.classify_sig
    }

    /// The canonical string form (used in logs and metrics labels).
    pub fn canonical(&self) -> String {
        format!(
            "{}|cores={}|{}",
            self.trace_spec, self.cores, self.classify_sig
        )
    }
}

/// The canonical classification signature of a machine config: every
/// input of `hierarchy_config`, and nothing else. Every memory setup
/// shares one signature: flat placements differ only in the timing
/// stage, and cache mode's memory-side cache sits below L2, where the
/// timing side probes it, so neither the setup nor the MCDRAM-cache
/// capacity is part of it.
pub fn classify_signature(cfg: &MachineConfig) -> String {
    format!("l1l2tlb:ddr={}ps", cfg.ddr.idle_latency.as_ps())
}

/// A fully classified trace: per-core SoA arrays of
/// `(addr, sram_latency, flags)` in program order, plus the
/// [`ClassifyKey`] that names them. Build once with
/// [`build_streaming`](Self::build_streaming), replay any number of
/// times with
/// [`TraceSim::run_classified`](crate::tracesim::TraceSim::run_classified).
#[derive(Debug)]
pub struct ClassifiedTrace {
    key: ClassifyKey,
    per_core: Vec<ClassifiedSoa>,
    accesses: u64,
    level_hits: [u64; 4],
}

impl ClassifiedTrace {
    /// Classify a streamed trace into an artifact. `fill` appends the
    /// next bounded chunk and returns how many accesses it added
    /// (returning 0 ends the stream — the same contract as
    /// [`TraceSim::run_streaming`](crate::tracesim::TraceSim::run_streaming)),
    /// so the raw trace never materializes; each chunk is partitioned
    /// by core and classified on the caller's
    /// [`par::num_threads`](simfabric::par::num_threads) workers exactly
    /// as the replay engine would. The artifact is bit-for-bit the
    /// classification that engine would produce — one shared step
    /// (`classify_chunk`) guarantees it. Classification stops at L2, so
    /// one artifact replays under every memory setup.
    pub fn build_streaming(
        cfg: &MachineConfig,
        cores: u32,
        trace_spec: &str,
        fill: impl FnMut(&mut Vec<TraceAccess>) -> usize,
    ) -> ClassifiedTrace {
        let key = ClassifyKey::new(trace_spec, cores, classify_signature(cfg));
        let hier_cfg = hierarchy_config(cfg);
        let mut shards: Vec<ReplayShard> = (0..cores)
            .map(|_| ReplayShard::new(Hierarchy::new(hier_cfg)))
            .collect();
        let accesses = classify_all(&mut shards, fill);
        let mut level_hits = [0u64; 4];
        for s in &shards {
            for (i, lvl) in [
                LevelHit::L1,
                LevelHit::L2,
                LevelHit::McdramCache,
                LevelHit::Memory,
            ]
            .into_iter()
            .enumerate()
            {
                level_hits[i] += s.hier.hits_at(lvl);
            }
        }
        ClassifiedTrace {
            key,
            per_core: shards.into_iter().map(|s| s.queue).collect(),
            accesses,
            level_hits,
        }
    }

    /// Classify an already-materialized trace (test convenience; the
    /// sweep paths use [`build_streaming`](Self::build_streaming)).
    /// `_msc_capacity` is ignored — classification no longer models
    /// the memory-side cache — and is kept only for the `benchmark/`
    /// crate, which passes it; remove it with the next change there.
    pub fn build_from_trace(
        cfg: &MachineConfig,
        cores: u32,
        _msc_capacity: ByteSize,
        trace_spec: &str,
        trace: &[TraceAccess],
    ) -> ClassifiedTrace {
        let mut offset = 0usize;
        Self::build_streaming(cfg, cores, trace_spec, |buf| {
            let chunk = 64 * 1024;
            let end = (offset + chunk).min(trace.len());
            buf.extend_from_slice(&trace[offset..end]);
            let n = end - offset;
            offset = end;
            n
        })
    }

    /// The key this artifact was built under.
    pub fn key(&self) -> &ClassifyKey {
        &self.key
    }

    /// Cores the trace was partitioned over.
    pub fn cores(&self) -> u32 {
        self.per_core.len() as u32
    }

    /// Total classified accesses.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Classified accesses belonging to core `c`.
    pub fn per_core_len(&self, c: usize) -> usize {
        self.per_core[c].len()
    }

    /// Payload bytes (17 per access) — the unit the [`ClassifyCache`]
    /// budget is measured in.
    pub fn bytes(&self) -> usize {
        self.accesses as usize * CLASSIFIED_ACCESS_BYTES
    }

    /// Classification-stage hit totals, indexed L1 / L2 / MCDRAM-cache
    /// / memory. The timing-only replay never touches the private
    /// hierarchies, so these artifact-level totals are where the
    /// cache-behaviour counters live for sweep consumers. Slot 2 is
    /// always 0 and slot 3 counts L2 misses: classification stops at
    /// L2, and the memory-side cache's hits are counted by the replay
    /// that probes it ([`TraceSimReport::mcdram_cache_hits`](crate::tracesim::TraceSimReport::mcdram_cache_hits)).
    pub fn level_hits(&self) -> [u64; 4] {
        self.level_hits
    }

    /// Core `c`'s SoA arrays for the replay's window copies.
    pub(crate) fn core_arrays(&self, c: usize) -> (&[u64], &[u64], &[u8]) {
        self.per_core[c].arrays()
    }
}

/// Default [`ClassifyCache`] budget: 256 MiB of classified payload
/// (~15.8 M accesses), several paper-scale sweep artifacts.
pub const CLASSIFY_CACHE_DEFAULT_BYTES: usize = 256 << 20;

/// Warn-once condition for the classify cache, mirroring the streaming
/// replay's `buffer_warning`: an artifact larger than the entire cache
/// budget can never be retained, so every sweep over that trace
/// silently degenerates to rebuild-per-setup. Pure so the threshold is
/// testable without capturing stderr.
pub fn classify_cache_warning(entry_bytes: usize, cap_bytes: usize) -> Option<String> {
    if cap_bytes > 0 && entry_bytes > cap_bytes {
        Some(format!(
            "tracesim: classified artifact of {entry_bytes} bytes exceeds the \
             {cap_bytes}-byte classify-cache budget; multi-setup sweeps over this \
             trace will re-classify it every time (raise TRACESIM_CLASSIFY_CACHE_MB \
             or shrink the trace)"
        ))
    } else {
        None
    }
}

/// Classify every chunk `fill` yields through `shards`; returns the
/// number of accesses classified. A function of its own: with this
/// loop written inline in [`ClassifiedTrace::build_streaming`], the
/// `sweep_migrate` benchmark's set-up (then two artifact builds)
/// measured about 5 % slower.
fn classify_all(
    shards: &mut [ReplayShard],
    mut fill: impl FnMut(&mut Vec<TraceAccess>) -> usize,
) -> u64 {
    let mut accesses = 0u64;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        if fill(&mut buf) == 0 {
            return accesses;
        }
        accesses += buf.len() as u64;
        classify_chunk(shards, &buf);
    }
}

/// Counters for [`ClassifyCache`] behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassifyCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build.
    pub misses: u64,
    /// Built artifacts retained.
    pub inserts: u64,
    /// Artifacts dropped to make room (LRU order).
    pub evictions: u64,
    /// Built artifacts too large to ever retain (warned once).
    pub rejected: u64,
}

/// An LRU cache of classified-trace artifacts, bounded by total
/// payload bytes. Lookup is by whole [`ClassifyKey`] — any key change
/// is a miss, which *is* the invalidation story: nothing is ever
/// patched in place. A zero-byte capacity disables retention entirely
/// (every lookup builds), which the bench overhead gate uses to price
/// the plumbing.
#[derive(Debug)]
pub struct ClassifyCache {
    cap_bytes: usize,
    /// Front = least recently used; back = most recently used.
    lru: VecDeque<Arc<ClassifiedTrace>>,
    bytes: usize,
    peak_bytes: usize,
    stats: ClassifyCacheStats,
}

impl ClassifyCache {
    /// An empty cache with a `cap_bytes` payload budget (0 disables
    /// retention).
    pub fn new(cap_bytes: usize) -> Self {
        ClassifyCache {
            cap_bytes,
            lru: VecDeque::new(),
            bytes: 0,
            peak_bytes: 0,
            stats: ClassifyCacheStats::default(),
        }
    }

    /// The cached artifact under `key`, moved to the MRU position and
    /// counted as a hit. `None` counts nothing — the miss is counted
    /// by [`insert_built`](Self::insert_built) when the build
    /// completes, so a lookup retried around an in-flight build never
    /// double-counts.
    pub fn lookup(&mut self, key: &ClassifyKey) -> Option<Arc<ClassifiedTrace>> {
        let pos = self.lru.iter().position(|e| e.key() == key)?;
        let entry = self.lru.remove(pos).expect("position came from iter");
        self.lru.push_back(Arc::clone(&entry));
        self.stats.hits += 1;
        Some(entry)
    }

    /// Count one shared hit: a concurrent caller that obtained the
    /// artifact from an in-flight build instead of building its own.
    pub fn note_shared_hit(&mut self) {
        self.stats.hits += 1;
    }

    /// Account a freshly built artifact: counts the miss and retains
    /// the entry (evicting LRU entries until it fits) unless the
    /// cache is disabled or the artifact exceeds the whole budget
    /// (warned once per process).
    pub fn insert_built(&mut self, built: Arc<ClassifiedTrace>) {
        self.stats.misses += 1;
        let entry_bytes = built.bytes();
        if self.cap_bytes == 0 {
            return;
        }
        if let Some(msg) = classify_cache_warning(entry_bytes, self.cap_bytes) {
            simfabric::env::warn_once("tracesim.classify_cache.oversize", &msg);
            self.stats.rejected += 1;
            return;
        }
        while self.bytes + entry_bytes > self.cap_bytes {
            let evicted = self.lru.pop_front().expect("over budget implies entries");
            self.bytes -= evicted.bytes();
            self.stats.evictions += 1;
        }
        self.bytes += entry_bytes;
        self.peak_bytes = self.peak_bytes.max(self.bytes);
        self.stats.inserts += 1;
        self.lru.push_back(built);
    }

    /// Retained artifacts.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Retained payload bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// High-water mark of retained payload bytes — the "buffered
    /// classified bytes" gauge.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// The byte budget.
    pub fn cap_bytes(&self) -> usize {
        self.cap_bytes
    }

    /// Behaviour counters so far.
    pub fn stats(&self) -> ClassifyCacheStats {
        self.stats
    }

    /// Drop every retained artifact (counters and high-water stay).
    pub fn clear(&mut self) {
        self.lru.clear();
        self.bytes = 0;
    }
}

/// Capacity for the process-wide cache: `TRACESIM_CLASSIFY_CACHE_MB`
/// (MiB; 0 disables retention; garbage warns once via
/// [`simfabric::env`]), defaulting to
/// [`CLASSIFY_CACHE_DEFAULT_BYTES`].
pub fn classify_cache_capacity_from_env() -> usize {
    match simfabric::env::usize_var("TRACESIM_CLASSIFY_CACHE_MB") {
        Some(mib) => mib << 20,
        None => CLASSIFY_CACHE_DEFAULT_BYTES,
    }
}

/// State of one in-flight build slot in a [`SharedClassifyCache`].
#[derive(Debug)]
enum SlotState {
    /// The builder is still classifying.
    Pending,
    /// The build finished; waiters take the shared artifact.
    Ready(Arc<ClassifiedTrace>),
    /// The builder panicked; waiters retry (one of them becomes the
    /// next builder).
    Failed,
}

/// One in-flight build: waiters block on the condvar until the
/// builder flips the state off `Pending`.
#[derive(Debug)]
struct BuildSlot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

impl BuildSlot {
    fn finish(&self, state: SlotState) {
        *self.state.lock().expect("build slot poisoned") = state;
        self.ready.notify_all();
    }

    /// Block until the builder finishes; `None` means it panicked.
    fn wait(&self) -> Option<Arc<ClassifiedTrace>> {
        let mut st = self.state.lock().expect("build slot poisoned");
        loop {
            match &*st {
                SlotState::Pending => st = self.ready.wait(st).expect("build slot poisoned"),
                SlotState::Ready(ct) => return Some(Arc::clone(ct)),
                SlotState::Failed => return None,
            }
        }
    }
}

/// Removes the in-flight slot and marks it failed if the builder
/// unwinds before publishing a result, so waiters retry instead of
/// hanging on a dead build.
struct BuildGuard<'a> {
    shared: &'a SharedClassifyCache,
    key: &'a ClassifyKey,
    slot: &'a Arc<BuildSlot>,
    armed: bool,
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.shared
                .inflight
                .lock()
                .expect("inflight map poisoned")
                .remove(self.key);
            self.slot.finish(SlotState::Failed);
        }
    }
}

/// A [`ClassifyCache`] safe for concurrent callers: lookups go
/// through the cache mutex as before, but builds run *outside* any
/// lock, guarded by an in-flight map so two threads missing on the
/// same [`ClassifyKey`] produce one build — the loser blocks until
/// the winner's artifact is ready and shares it (counted as a hit).
/// Distinct keys build concurrently; the single-`Mutex` cache only
/// covers the (cheap) lookup and insert steps.
#[derive(Debug)]
pub struct SharedClassifyCache {
    cache: Mutex<ClassifyCache>,
    inflight: Mutex<HashMap<ClassifyKey, Arc<BuildSlot>>>,
}

impl SharedClassifyCache {
    /// A shared cache with a `cap_bytes` payload budget (0 disables
    /// retention, exactly as in [`ClassifyCache::new`]).
    pub fn new(cap_bytes: usize) -> Self {
        SharedClassifyCache {
            cache: Mutex::new(ClassifyCache::new(cap_bytes)),
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Run `f` against the inner [`ClassifyCache`] (stats snapshots,
    /// clearing). `f` must not block on another classify build, which
    /// would deadlock against a builder's insert.
    pub fn with_cache<R>(&self, f: impl FnOnce(&mut ClassifyCache) -> R) -> R {
        f(&mut self.cache.lock().expect("classify cache poisoned"))
    }

    /// The artifact for `key`: a cache hit, the result of another
    /// thread's in-flight build (wait-for-result), or a fresh build —
    /// in which case `build` runs on this thread with no lock held,
    /// and the result is published to both the cache and any waiters.
    /// Build-once is guaranteed per key per flight; a panicking
    /// builder wakes its waiters, one of which rebuilds.
    pub fn get_or_build(
        &self,
        key: &ClassifyKey,
        build: impl Fn() -> ClassifiedTrace,
    ) -> Arc<ClassifiedTrace> {
        loop {
            if let Some(ct) = self.with_cache(|c| c.lookup(key)) {
                return ct;
            }
            let (slot, is_builder) = {
                let mut inflight = self.inflight.lock().expect("inflight map poisoned");
                // Re-check the cache with the in-flight map held: a
                // builder that finished between the lookup above and
                // this lock has already removed its slot, and only
                // the cache remembers its artifact.
                if let Some(ct) = self.with_cache(|c| c.lookup(key)) {
                    return ct;
                }
                match inflight.get(key) {
                    Some(slot) => (Arc::clone(slot), false),
                    None => {
                        let slot = Arc::new(BuildSlot {
                            state: Mutex::new(SlotState::Pending),
                            ready: Condvar::new(),
                        });
                        inflight.insert(key.clone(), Arc::clone(&slot));
                        (slot, true)
                    }
                }
            };
            if is_builder {
                let mut guard = BuildGuard {
                    shared: self,
                    key,
                    slot: &slot,
                    armed: true,
                };
                let built = Arc::new(build());
                debug_assert_eq!(
                    built.key(),
                    key,
                    "builder produced an artifact under a different key"
                );
                self.with_cache(|c| c.insert_built(Arc::clone(&built)));
                self.inflight
                    .lock()
                    .expect("inflight map poisoned")
                    .remove(key);
                guard.armed = false;
                slot.finish(SlotState::Ready(Arc::clone(&built)));
                return built;
            }
            match slot.wait() {
                Some(ct) => {
                    // Served by another thread's build: a shared hit,
                    // not a second miss.
                    self.with_cache(|c| c.note_shared_hit());
                    return ct;
                }
                // The builder panicked; loop and try to take over.
                None => continue,
            }
        }
    }
}

/// The process-wide [`SharedClassifyCache`] (created on first use
/// with [`classify_cache_capacity_from_env`]). Sweep consumers share
/// artifacts through this instance, so a figure sweep, the migration
/// T-sweep, and concurrent advisor-service workers over the same
/// trace all hit the same entries — and two workers missing on one
/// key build it once.
pub fn global_classify_cache() -> &'static SharedClassifyCache {
    static CACHE: OnceLock<SharedClassifyCache> = OnceLock::new();
    CACHE.get_or_init(|| SharedClassifyCache::new(classify_cache_capacity_from_env()))
}

/// Run `f` against the process-wide classify cache (stats snapshots,
/// clearing). Builds go through
/// [`global_classify_cache`]`().get_or_build(..)`, which builds
/// outside the lock.
pub fn with_global_classify_cache<R>(f: impl FnOnce(&mut ClassifyCache) -> R) -> R {
    global_classify_cache().with_cache(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemSetup;

    fn flat_cfg() -> MachineConfig {
        MachineConfig::knl7210(MemSetup::DramOnly, 64)
    }

    fn tiny_trace(cores: u32, per_core: u64) -> Vec<TraceAccess> {
        let mut out = Vec::new();
        for i in 0..per_core {
            for c in 0..cores {
                out.push(TraceAccess::read(c, (c as u64) << 24 | i * 64));
            }
        }
        out
    }

    fn tiny_artifact(label: &str, cores: u32, per_core: u64) -> ClassifiedTrace {
        ClassifiedTrace::build_from_trace(
            &flat_cfg(),
            cores,
            ByteSize::mib(4),
            label,
            &tiny_trace(cores, per_core),
        )
    }

    #[test]
    fn key_components_all_reach_the_canonical_string() {
        let base = ClassifyKey::new("stream:4x8", 4, "flat:ddr=1ps");
        for other in [
            ClassifyKey::new("gups:4x8", 4, "flat:ddr=1ps"),
            ClassifyKey::new("stream:4x8", 8, "flat:ddr=1ps"),
            ClassifyKey::new("stream:4x8", 4, "cache:ddr=1ps:hbm=2ps:msc=64B"),
        ] {
            assert_ne!(base, other);
            assert_ne!(base.canonical(), other.canonical());
        }
    }

    #[test]
    fn every_setup_and_capacity_shares_one_signature() {
        let flat = classify_signature(&flat_cfg());
        for setup in [
            MemSetup::HbmOnly,
            MemSetup::CacheMode,
            MemSetup::Interleaved,
            MemSetup::Hybrid,
        ] {
            let cfg = MachineConfig::knl7210(setup, 64);
            assert_eq!(classify_signature(&cfg), flat, "{setup:?}");
        }
        // The capacity a caller passes changes neither the key nor the
        // classification.
        let trace = tiny_trace(2, 64);
        let cache = MachineConfig::knl7210(MemSetup::CacheMode, 64);
        let want = ClassifiedTrace::build_from_trace(&flat_cfg(), 2, ByteSize::mib(4), "t", &trace);
        for msc in [ByteSize::bytes(64), ByteSize::mib(8)] {
            let ct = ClassifiedTrace::build_from_trace(&cache, 2, msc, "t", &trace);
            assert_eq!(ct.key(), want.key(), "{msc}");
            assert_eq!(ct.level_hits(), want.level_hits(), "{msc}");
            for c in 0..2 {
                assert_eq!(ct.core_arrays(c), want.core_arrays(c), "{msc} core {c}");
            }
        }
    }

    #[test]
    fn artifact_accounts_every_access() {
        let ct = tiny_artifact("tiny:4x16", 4, 16);
        assert_eq!(ct.accesses(), 64);
        assert_eq!(ct.cores(), 4);
        assert_eq!((0..4).map(|c| ct.per_core_len(c)).sum::<usize>(), 64);
        assert_eq!(ct.bytes(), 64 * CLASSIFIED_ACCESS_BYTES);
        assert_eq!(ct.level_hits().iter().sum::<u64>(), 64);
    }

    #[test]
    fn cache_hits_evicts_lru_and_tracks_bytes() {
        let entry_bytes = tiny_artifact("a", 2, 8).bytes();
        // Room for exactly two artifacts of this size.
        let cache = SharedClassifyCache::new(entry_bytes * 2);
        let key_a = ClassifyKey::new("a", 2, real_sig());
        let key_b = ClassifyKey::new("b", 2, real_sig());
        let key_c = ClassifyKey::new("c", 2, real_sig());

        cache.get_or_build(&key_a, || tiny_artifact("a", 2, 8));
        cache.get_or_build(&key_b, || tiny_artifact("b", 2, 8));
        assert_eq!(cache.with_cache(|c| c.stats()).misses, 2);
        assert_eq!(cache.with_cache(|c| c.bytes()), entry_bytes * 2);

        // Hit A so B becomes the LRU entry…
        cache.get_or_build(&key_a, || unreachable!("hit must not rebuild"));
        assert_eq!(cache.with_cache(|c| c.stats()).hits, 1);
        // …then C evicts B, not A.
        cache.get_or_build(&key_c, || tiny_artifact("c", 2, 8));
        assert_eq!(cache.with_cache(|c| c.stats()).evictions, 1);
        cache.get_or_build(&key_a, || unreachable!("A must have survived"));
        let rebuilt = std::cell::Cell::new(false);
        cache.get_or_build(&key_b, || {
            rebuilt.set(true);
            tiny_artifact("b", 2, 8)
        });
        assert!(rebuilt.get(), "B was evicted and must rebuild");
        assert_eq!(cache.with_cache(|c| c.peak_bytes()), entry_bytes * 2);
    }

    fn real_sig() -> String {
        classify_signature(&flat_cfg())
    }

    #[test]
    fn zero_capacity_disables_retention() {
        let cache = SharedClassifyCache::new(0);
        let key = ClassifyKey::new("a", 2, real_sig());
        cache.get_or_build(&key, || tiny_artifact("a", 2, 8));
        cache.get_or_build(&key, || tiny_artifact("a", 2, 8));
        cache.with_cache(|c| {
            assert_eq!(c.stats().misses, 2);
            assert_eq!(c.len(), 0);
            assert_eq!(c.bytes(), 0);
        });
    }

    #[test]
    fn oversize_artifacts_warn_and_are_rejected_not_cached() {
        assert!(classify_cache_warning(10, 5).is_some());
        assert!(classify_cache_warning(5, 10).is_none());
        assert!(
            classify_cache_warning(10, 0).is_none(),
            "disabled cache never warns"
        );
        let cache = SharedClassifyCache::new(1);
        let key = ClassifyKey::new("big", 2, real_sig());
        cache.get_or_build(&key, || tiny_artifact("big", 2, 8));
        cache.with_cache(|c| {
            assert_eq!(c.stats().rejected, 1);
            assert!(c.is_empty());
        });
    }

    #[test]
    fn concurrent_misses_on_one_key_build_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        let shared = SharedClassifyCache::new(1 << 20);
        let key = ClassifyKey::new("inflight:2x8", 2, real_sig());
        let builds = AtomicUsize::new(0);
        let callers = 4;
        let barrier = Barrier::new(callers);
        let artifacts: Vec<Arc<ClassifiedTrace>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..callers)
                .map(|_| {
                    let (shared, key, builds, barrier) = (&shared, &key, &builds, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        shared.get_or_build(key, || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            // Widen the in-flight window so the other
                            // callers reliably arrive mid-build.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            tiny_artifact("inflight:2x8", 2, 8)
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            builds.load(Ordering::SeqCst),
            1,
            "concurrent misses on one key must build exactly once"
        );
        for ct in &artifacts[1..] {
            assert!(
                Arc::ptr_eq(&artifacts[0], ct),
                "every caller must share the one artifact"
            );
        }
        let stats = shared.with_cache(|c| c.stats());
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.inserts, 1);
        assert_eq!(
            stats.hits,
            callers as u64 - 1,
            "waiters count as shared hits"
        );
    }

    #[test]
    fn shared_cache_recovers_from_a_panicking_builder() {
        let shared = SharedClassifyCache::new(1 << 20);
        let key = ClassifyKey::new("panic:2x8", 2, real_sig());
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.get_or_build(&key, || panic!("builder died"));
        }));
        assert!(panicked.is_err());
        // The failed flight must not wedge the key: the next caller
        // becomes the builder and succeeds.
        let ct = shared.get_or_build(&key, || tiny_artifact("panic:2x8", 2, 8));
        assert_eq!(ct.key(), &key);
        assert_eq!(shared.with_cache(|c| c.stats()).misses, 1);
    }

    #[test]
    fn shared_cache_distinct_keys_build_independently() {
        let shared = SharedClassifyCache::new(1 << 20);
        let a = shared.get_or_build(&ClassifyKey::new("sa", 2, real_sig()), || {
            tiny_artifact("sa", 2, 8)
        });
        let b = shared.get_or_build(&ClassifyKey::new("sb", 2, real_sig()), || {
            tiny_artifact("sb", 2, 8)
        });
        assert_ne!(a.key(), b.key());
        let stats = shared.with_cache(|c| c.stats());
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 0);
    }
}
