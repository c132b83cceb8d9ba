//! The classify-once / replay-many sweep engine.
//!
//! Every multi-setup experiment in this crate replays *the same*
//! deterministic trace against several timing setups — placements,
//! device presets, cache mode at any memory-side-cache size, migration
//! periods. The classification stage (private L1/L2 and TLB)
//! dominates replay cost but is identical across every one of them
//! (cache mode's memory-side tags are probed by the timing side), so
//! this module factors it out:
//!
//! * a [`TraceSpec`] names a deterministic trace stream (canonical
//!   label + a factory for fresh sources);
//! * [`classified_for`] returns the stream's
//!   [`ClassifiedTrace`] artifact, built at most once per process
//!   through the global LRU [`ClassifyCache`](knl::classified::ClassifyCache) and
//!   shared by every memory setup;
//! * [`replay_point`] / [`replay_into`] replay one timing setup from
//!   the artifact via
//!   [`TraceSim::run_classified`](knl::tracesim::TraceSim::run_classified),
//!   bit-identical to regenerating and re-classifying from scratch
//!   (`tests/classified_equivalence.rs`).

use knl::classified::ClassifyKey;
use knl::tracesim::{TracePlacement, TraceSim, TraceSimReport};
use knl::{classify_signature, ClassifiedTrace, MachineConfig};
use simfabric::ByteSize;
use std::sync::Arc;
use workloads::tracegen::{classify_streaming, TraceKind, TraceSource};

/// A named deterministic trace stream: the canonical label (the
/// generator half of a [`ClassifyKey`]) plus a factory producing fresh
/// sources of the identical stream. Factories must be pure — two
/// sources from one spec yield bit-identical streams, which is what
/// lets the label stand in for the trace.
pub struct TraceSpec {
    label: String,
    cores: u32,
    make: Box<dyn Fn() -> Box<dyn TraceSource + Send> + Send + Sync>,
}

impl std::fmt::Debug for TraceSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSpec")
            .field("label", &self.label)
            .field("cores", &self.cores)
            .finish_non_exhaustive()
    }
}

impl TraceSpec {
    /// A spec from an explicit label and source factory. The caller
    /// owns the label contract: everything that changes the stream
    /// must reach the label, and equal labels must mean bit-identical
    /// streams.
    pub(crate) fn new(
        label: impl Into<String>,
        cores: u32,
        make: impl Fn() -> Box<dyn TraceSource + Send> + Send + Sync + 'static,
    ) -> Self {
        TraceSpec {
            label: label.into(),
            cores,
            make: Box::new(make),
        }
    }

    /// The spec of an application trace generator, labelled with
    /// [`TraceKind::spec`].
    pub fn from_kind(kind: TraceKind, cores: u32, accesses_per_core: u64, seed: u64) -> Self {
        Self::new(
            kind.spec(cores, accesses_per_core, seed),
            cores,
            move || kind.source(cores, accesses_per_core, seed),
        )
    }

    /// The canonical stream label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// A fresh source over the stream.
    pub fn source(&self) -> Box<dyn TraceSource + Send> {
        (self.make)()
    }

    /// The full classify key of this stream under a machine config.
    /// Every memory setup shares it; `_msc_capacity` is ignored and
    /// kept only for the `benchmark/` crate, which passes it (remove
    /// it with the next change there).
    pub fn key(&self, cfg: &MachineConfig, _msc_capacity: ByteSize) -> ClassifyKey {
        ClassifyKey::new(self.label.clone(), self.cores, classify_signature(cfg))
    }
}

/// The classified artifact for `spec` under `cfg`, through the global
/// [`ClassifyCache`](knl::classified::ClassifyCache): built (streamed, never materializing the raw
/// trace) on first use, shared by every later sweep point whose key
/// matches — every memory setup and MCDRAM-cache capacity, across
/// experiments, not just within one sweep. `msc_capacity` is ignored,
/// as in [`TraceSpec::key`]. Builds go
/// through the in-flight guard
/// ([`SharedClassifyCache`](knl::SharedClassifyCache)), so concurrent
/// callers missing on one key — advisor-service workers, say — run
/// one classification and share its artifact.
pub fn classified_for(
    spec: &TraceSpec,
    cfg: &MachineConfig,
    msc_capacity: ByteSize,
) -> Arc<ClassifiedTrace> {
    let key = spec.key(cfg, msc_capacity);
    let build = || classify_streaming(cfg, spec.cores, spec.label(), spec.source().as_mut());
    #[cfg(test)]
    if let Some(cache) = PRIVATE_CACHE.with(|p| p.borrow().clone()) {
        return cache.get_or_build(&key, build);
    }
    knl::global_classify_cache().get_or_build(&key, build)
}

#[cfg(test)]
thread_local! {
    static PRIVATE_CACHE: std::cell::RefCell<Option<Arc<knl::SharedClassifyCache>>> =
        const { std::cell::RefCell::new(None) };
}

/// Run `f` with [`classified_for`] on this thread going through
/// `cache` instead of the global cache, so a test can count its own
/// hits and misses while sibling tests run.
#[cfg(test)]
pub(crate) fn with_private_classify_cache<R>(
    cache: &Arc<knl::SharedClassifyCache>,
    f: impl FnOnce() -> R,
) -> R {
    let prev = PRIVATE_CACHE.with(|p| p.replace(Some(Arc::clone(cache))));
    let out = f();
    PRIVATE_CACHE.with(|p| p.replace(prev));
    out
}

/// Replay `spec` through an existing simulator (so callers can enable
/// telemetry or tweak knobs first). `cfg` must classify as the config
/// the simulator was constructed from — asserted via the classify
/// signature; the memory setup and MCDRAM-cache capacity are the
/// simulator's own.
pub(crate) fn replay_into(
    sim: &mut TraceSim,
    spec: &TraceSpec,
    cfg: &MachineConfig,
    msc_capacity: ByteSize,
) -> TraceSimReport {
    assert_eq!(
        sim.classify_signature(),
        classify_signature(cfg),
        "replay_into called with a config the simulator was not built from"
    );
    sim.run_classified(&classified_for(spec, cfg, msc_capacity))
}

/// Replay one sweep point: a fresh simulator for
/// (`cfg`, `placement`, `msc_capacity`), fed from the classified
/// artifact. Returns the simulator too — device/migration stats live
/// on it.
pub fn replay_point(
    spec: &TraceSpec,
    cfg: &MachineConfig,
    placement: TracePlacement,
    msc_capacity: ByteSize,
) -> (TraceSim, TraceSimReport) {
    let mut sim = TraceSim::new(cfg, spec.cores, placement, msc_capacity);
    let report = replay_into(&mut sim, spec, cfg, msc_capacity);
    (sim, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl::MemSetup;
    use workloads::tracegen::{collect, replay_streaming};

    fn spec() -> TraceSpec {
        TraceSpec::from_kind(TraceKind::Stream, 4, 200, 0x5EED)
    }

    #[test]
    fn spec_sources_are_reproducible_and_labelled() {
        let s = spec();
        assert_eq!(s.label(), TraceKind::Stream.spec(4, 200, 0x5EED));
        let a = collect(s.source().as_mut());
        let b = collect(s.source().as_mut());
        assert_eq!(a, b, "spec factories must be pure");
        assert!(!a.is_empty());
    }

    #[test]
    fn every_setup_and_capacity_shares_one_key() {
        let s = spec();
        let ddr = s.key(
            &MachineConfig::knl7210(MemSetup::DramOnly, 64),
            ByteSize::mib(8),
        );
        for (setup, msc) in [
            (MemSetup::HbmOnly, ByteSize::mib(8)),
            (MemSetup::CacheMode, ByteSize::mib(8)),
            (MemSetup::CacheMode, ByteSize::kib(64)),
        ] {
            let key = s.key(&MachineConfig::knl7210(setup, 64), msc);
            assert_eq!(key, ddr, "{setup:?} at {msc}");
        }
    }

    #[test]
    fn classified_for_classifies_once_for_every_setup() {
        // DRAM-only, HBM-only and cache mode at two capacities: one
        // build, then hits, all sharing the one artifact.
        let cache = Arc::new(knl::SharedClassifyCache::new(
            knl::classified::CLASSIFY_CACHE_DEFAULT_BYTES,
        ));
        let s = TraceSpec::new("sweeptest:gups:4x150:seed=0x52", 4, || {
            TraceKind::Gups.source(4, 150, 0x52)
        });
        let points = [
            (MemSetup::DramOnly, ByteSize::mib(8)),
            (MemSetup::HbmOnly, ByteSize::mib(8)),
            (MemSetup::CacheMode, ByteSize::kib(64)),
            (MemSetup::CacheMode, ByteSize::mib(1)),
        ];
        let artifacts: Vec<_> = with_private_classify_cache(&cache, || {
            points
                .iter()
                .map(|&(setup, msc)| classified_for(&s, &MachineConfig::knl7210(setup, 64), msc))
                .collect()
        });
        let stats = cache.with_cache(|c| c.stats());
        assert_eq!(stats.misses, 1, "one classification serves every setup");
        assert_eq!(stats.hits, points.len() as u64 - 1);
        for ct in &artifacts[1..] {
            assert!(Arc::ptr_eq(&artifacts[0], ct));
        }
        // The shared artifact replays cache mode at both capacities
        // exactly as a fresh streaming replay does.
        for &(setup, msc) in &points[2..] {
            let cfg = MachineConfig::knl7210(setup, 64);
            let mut fresh = TraceSim::new(&cfg, 4, TracePlacement::AllDdr, msc);
            let want = replay_streaming(&mut fresh, s.source().as_mut());
            let mut sim = TraceSim::new(&cfg, 4, TracePlacement::AllDdr, msc);
            assert_eq!(
                sim.run_classified(&artifacts[0]),
                want,
                "cache mode at {msc}"
            );
        }
    }

    #[test]
    fn classified_for_hits_the_global_cache_on_reuse() {
        // A private cache: sibling tests share the global one, and
        // their traffic would race the miss count below.
        let cache = Arc::new(knl::SharedClassifyCache::new(
            knl::classified::CLASSIFY_CACHE_DEFAULT_BYTES,
        ));
        let s = TraceSpec::new("sweeptest:stream:4x150:seed=0x51", 4, || {
            TraceKind::Stream.source(4, 150, 0x51)
        });
        let cfg = MachineConfig::knl7210(MemSetup::DramOnly, 64);
        let before = cache.with_cache(|c| c.stats());
        let (a, b) = with_private_classify_cache(&cache, || {
            (
                classified_for(&s, &cfg, ByteSize::mib(8)),
                classified_for(&s, &cfg, ByteSize::mib(8)),
            )
        });
        let after = cache.with_cache(|c| c.stats());
        assert!(Arc::ptr_eq(&a, &b), "second lookup must share the artifact");
        assert_eq!(after.misses - before.misses, 1);
        assert!(after.hits > before.hits);
        assert_eq!(a.accesses(), 4 * 150);
    }

    #[test]
    fn replay_point_matches_fresh_replay() {
        let s = spec();
        let cfg = MachineConfig::knl7210(MemSetup::DramOnly, 64);
        let mut fresh = TraceSim::new(&cfg, 4, TracePlacement::AllDdr, ByteSize::mib(8));
        let want = replay_streaming(&mut fresh, s.source().as_mut());
        let (_, got) = replay_point(&s, &cfg, TracePlacement::AllDdr, ByteSize::mib(8));
        assert_eq!(got, want, "classified replay must be bit-identical");
    }

    #[test]
    #[should_panic(expected = "not built from")]
    fn replay_into_rejects_mismatched_configs() {
        let s = spec();
        let flat = MachineConfig::knl7210(MemSetup::DramOnly, 64);
        // A slower DDR classifies under another signature.
        let mut slow = flat.clone();
        slow.ddr.idle_latency += simfabric::Duration::from_ns(1.0);
        let mut sim = TraceSim::new(&flat, 4, TracePlacement::AllDdr, ByteSize::mib(8));
        replay_into(&mut sim, &s, &slow, ByteSize::mib(8));
    }
}
