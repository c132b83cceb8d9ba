//! The placement-guidelines advisor.
//!
//! §VI of the paper: "Our study provides guidelines for selecting
//! suitable memory allocation based on application characteristic and
//! problem to solve." This module turns those guidelines into code: an
//! application profile goes in, a memory-configuration recommendation
//! with a model-predicted speedup comes out.

use crate::sweep::{replay_point, TraceSpec};
use knl::access::{RandomOp, Region, Reuse, StreamOp};
use knl::tracesim::{TracePlacement, TraceSimReport};
use knl::{Machine, MachineConfig, MemSetup};
use simfabric::ByteSize;
use workloads::AccessClass;

/// What the advisor needs to know about an application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Display name, used in the rationale.
    pub name: String,
    /// Dominant access pattern.
    pub pattern: AccessClass,
    /// Memory footprint of the target problem.
    pub footprint: ByteSize,
    /// Whether the code scales to multiple hardware threads per core
    /// (affects whether HBM latency can be hidden, §IV-D).
    pub can_use_hyperthreads: bool,
}

/// The advisor's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// Recommended memory configuration.
    pub setup: MemSetup,
    /// Recommended OpenMP thread count.
    pub threads: u32,
    /// Model-predicted speedup relative to DRAM-only at 64 threads.
    pub expected_speedup: f64,
    /// Why.
    pub rationale: String,
}

fn proxy_region(machine: &mut Machine, footprint: ByteSize) -> Option<Region> {
    machine.alloc("advisor_proxy", footprint).ok()
}

/// Model-predicted throughput (arbitrary units) of a synthetic proxy
/// with the profile's pattern under a given configuration; `None` if
/// the footprint cannot be placed.
fn proxy_rate(profile: &AppProfile, setup: MemSetup, threads: u32) -> Option<f64> {
    let mut machine = Machine::knl7210(setup, threads).ok()?;
    let region = proxy_region(&mut machine, profile.footprint)?;
    Some(match profile.pattern {
        AccessClass::Sequential => {
            let ops = [StreamOp {
                region: region.clone(),
                read_bytes: region.size().as_u64(),
                write_bytes: region.size().as_u64() / 3,
                reuse: Reuse::Streaming,
            }];
            let d = machine.price_stream(&ops);
            region.size().as_u64() as f64 / d.as_secs()
        }
        AccessClass::Random => machine.random_rate(&RandomOp::probes(&region, 1_000_000)),
    })
}

/// Produce a recommendation for `profile`.
///
/// # Example
///
/// ```
/// use hybridmem::{advise, AppProfile};
/// use knl::MemSetup;
/// use simfabric::ByteSize;
/// use workloads::AccessClass;
///
/// let rec = advise(&AppProfile {
///     name: "stencil".into(),
///     pattern: AccessClass::Sequential,
///     footprint: ByteSize::gib(8),
///     can_use_hyperthreads: true,
/// });
/// assert_eq!(rec.setup, MemSetup::HbmOnly);
/// ```
pub fn advise(profile: &AppProfile) -> Recommendation {
    let threads_options: &[u32] = if profile.can_use_hyperthreads {
        &[64, 128, 192, 256]
    } else {
        &[64]
    };
    let baseline =
        proxy_rate(profile, MemSetup::DramOnly, 64).expect("DRAM-only baseline must fit (96 GB)");
    let mut best: Option<(MemSetup, u32, f64)> = None;
    for setup in [MemSetup::DramOnly, MemSetup::HbmOnly, MemSetup::CacheMode] {
        for &t in threads_options {
            if let Some(rate) = proxy_rate(profile, setup, t) {
                if best.is_none_or(|(_, _, r)| rate > r) {
                    best = Some((setup, t, rate));
                }
            }
        }
    }
    let (setup, threads, rate) = best.expect("at least the baseline ran");
    let speedup = rate / baseline;
    let fits_hbm = profile.footprint <= ByteSize::gib(16);
    let rationale = match (profile.pattern, setup) {
        (AccessClass::Sequential, MemSetup::HbmOnly) => format!(
            "{} is bandwidth-bound and fits MCDRAM: bind it to the HBM node \
             (numactl --membind=1) for the full 4x bandwidth advantage.",
            profile.name
        ),
        (AccessClass::Sequential, MemSetup::CacheMode) => format!(
            "{} is bandwidth-bound but exceeds the 16-GB MCDRAM: cache mode \
             captures part of the bandwidth advantage without code changes.",
            profile.name
        ),
        (AccessClass::Sequential, _) => format!(
            "{} is bandwidth-bound but far exceeds MCDRAM ({}), where the \
             direct-mapped cache thrashes: plain DRAM is fastest.",
            profile.name, profile.footprint
        ),
        (AccessClass::Random, MemSetup::DramOnly) => format!(
            "{} is latency-bound; MCDRAM's ~18% higher latency makes DRAM \
             (numactl --membind=0) the best home for its data.",
            profile.name
        ),
        (AccessClass::Random, _) => format!(
            "{} is latency-bound, but with {} threads the extra hardware \
             threads hide MCDRAM latency and its bandwidth wins (§IV-D).",
            profile.name, threads
        ),
    };
    let _ = fits_hbm;
    Recommendation {
        setup,
        threads,
        expected_speedup: speedup,
        rationale,
    }
}

/// One placement candidate of a replayed advisor query.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayedCandidate {
    /// Display label of the placement.
    pub label: String,
    /// Whether the placement fits a fast tier of `budget` bytes
    /// (all-HBM does not; it is reported as the upper bound).
    pub fits_budget: bool,
    /// The replay report.
    pub report: TraceSimReport,
}

/// The verdict of a replayed advisor query.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayedAdvice {
    /// The trace the query replayed (the spec's canonical label).
    pub trace: String,
    /// Thread count the recommendation is issued for (echoed from the
    /// query; the trace replay itself is per-core).
    pub threads: u32,
    /// Every candidate, fixed order: DDR, split, cache, migrated,
    /// HBM (the unconstrained bound last).
    pub candidates: Vec<ReplayedCandidate>,
    /// Index of the fastest budget-fitting candidate.
    pub best: usize,
    /// Makespan speedup of the best candidate over all-DDR.
    pub speedup_vs_ddr: f64,
}

impl ReplayedAdvice {
    /// The recommended candidate.
    pub fn recommended(&self) -> &ReplayedCandidate {
        &self.candidates[self.best]
    }
}

/// The largest power of two at or below `n` (0 for 0).
fn prev_power_of_two(n: u64) -> u64 {
    if n == 0 {
        0
    } else {
        1 << (63 - n.leading_zeros())
    }
}

/// The pure query function behind the advisor service: replay `spec`
/// against every placement that fits a `budget`-sized fast tier —
/// all-DDR, a boundary split, cache mode, periodic migration with
/// period `migrate_period` and a `budget`-page move budget — plus
/// unconstrained all-HBM as the upper bound, and recommend the
/// fastest fitting one. Everything that can change the answer is in
/// the argument list (that is the service's `QueryKey` contract);
/// equal arguments produce bit-identical advice.
///
/// Repeated queries are what the classify-once engine exists for:
/// every candidate (DDR, split, cache mode, migrated, HBM) replays one
/// classified artifact from the global cache — cache mode probes its
/// memory-side cache at replay time, so the budget-sized capacity
/// never reaches the key — and a follow-up query over the same trace
/// (a different budget, say) replays without classifying anything.
pub(crate) fn advise_replayed_query(
    spec: &TraceSpec,
    budget: ByteSize,
    threads: u32,
    migrate_period: u64,
) -> ReplayedAdvice {
    let flat = MachineConfig::knl7210(MemSetup::DramOnly, threads);
    let cache = MachineConfig::knl7210(MemSetup::CacheMode, threads);
    let msc = ByteSize::mib(8);
    let budget_pages = (budget.as_u64() / memkind_sim::migrate::PAGE_BYTES).max(1) as u32;
    // The memory-side cache is direct-mapped over power-of-two slots,
    // so the cache-mode candidate gets the largest power-of-two
    // capacity that fits the budget (never below one 64 B line).
    let cache_capacity = ByteSize::bytes(prev_power_of_two(budget.as_u64()).max(64));
    let candidates: Vec<ReplayedCandidate> = [
        (
            "DDR (flat)".to_string(),
            &flat,
            TracePlacement::AllDdr,
            msc,
            true,
        ),
        (
            format!("split@{}KiB", budget.as_u64() >> 10),
            &flat,
            TracePlacement::SplitAt(budget.as_u64()),
            msc,
            true,
        ),
        (
            format!("cache({}KiB)", cache_capacity.as_u64() >> 10),
            &cache,
            TracePlacement::AllDdr,
            cache_capacity,
            true,
        ),
        (
            format!("migrated(T={migrate_period})"),
            &flat,
            TracePlacement::Migrated(memkind_sim::MigrationSpec::new(
                migrate_period,
                budget_pages,
            )),
            msc,
            true,
        ),
        (
            "HBM (flat, unconstrained)".to_string(),
            &flat,
            TracePlacement::AllHbm,
            msc,
            false,
        ),
    ]
    .into_iter()
    .map(
        |(label, cfg, placement, msc, fits_budget)| ReplayedCandidate {
            label,
            fits_budget,
            report: replay_point(spec, cfg, placement, msc).1,
        },
    )
    .collect();
    let best = candidates
        .iter()
        .enumerate()
        .filter(|(_, c)| c.fits_budget)
        .min_by_key(|(i, c)| (c.report.makespan, *i))
        .map(|(i, _)| i)
        .expect("budget-fitting candidates exist");
    let ddr = candidates[0].report.makespan.as_ps() as f64;
    let speedup_vs_ddr = ddr / candidates[best].report.makespan.as_ps() as f64;
    ReplayedAdvice {
        trace: spec.label().to_string(),
        threads,
        candidates,
        best,
        speedup_vs_ddr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(pattern: AccessClass, gib: u64, ht: bool) -> AppProfile {
        AppProfile {
            name: "app".into(),
            pattern,
            footprint: ByteSize::gib(gib),
            can_use_hyperthreads: ht,
        }
    }

    #[test]
    fn streaming_fitting_app_goes_to_hbm() {
        let r = advise(&profile(AccessClass::Sequential, 8, true));
        assert_eq!(r.setup, MemSetup::HbmOnly);
        assert!(r.expected_speedup > 3.0, "speedup {}", r.expected_speedup);
        assert!(r.rationale.contains("membind=1"));
    }

    #[test]
    fn streaming_oversized_app_goes_to_cache_mode() {
        let r = advise(&profile(AccessClass::Sequential, 20, false));
        assert_eq!(r.setup, MemSetup::CacheMode);
        assert!(r.expected_speedup > 1.0);
    }

    #[test]
    fn streaming_huge_app_stays_on_dram() {
        let r = advise(&profile(AccessClass::Sequential, 40, false));
        assert_eq!(r.setup, MemSetup::DramOnly);
        assert!((r.expected_speedup - 1.0).abs() < 1e-9);
        assert!(r.rationale.contains("thrashes"));
    }

    #[test]
    fn random_app_without_hyperthreads_stays_on_dram() {
        let r = advise(&profile(AccessClass::Random, 8, false));
        assert_eq!(r.setup, MemSetup::DramOnly);
        assert_eq!(r.threads, 64);
    }

    #[test]
    fn random_app_with_hyperthreads_may_flip_to_hbm() {
        // §IV-D: with 4 threads/core, HBM's concurrency wins for
        // independent random access.
        let r = advise(&profile(AccessClass::Random, 8, true));
        assert!(r.threads > 64, "should recommend hyper-threading");
        assert!(r.expected_speedup > 1.0);
    }

    #[test]
    fn replayed_advice_covers_placements_and_repeated_queries_share_artifacts() {
        use workloads::tracegen::TraceKind;
        let spec = TraceSpec::from_kind(TraceKind::Stream, 4, 400, 0xAD51);
        // A private classify cache: sibling tests share the global one,
        // and their traffic would leak into the counts below.
        let cache = std::sync::Arc::new(knl::SharedClassifyCache::new(
            knl::classified::CLASSIFY_CACHE_DEFAULT_BYTES,
        ));
        let stats = || cache.with_cache(|c| c.stats());
        let query = |budget| {
            crate::sweep::with_private_classify_cache(&cache, || {
                advise_replayed_query(&spec, budget, 64, 4_096)
            })
        };
        let first = query(ByteSize::kib(256));
        assert_eq!(first.candidates.len(), 5);
        assert_eq!(first.trace, spec.label());
        assert_eq!(first.threads, 64);
        assert!(first.candidates[first.best].fits_budget);
        assert!(first.speedup_vs_ddr >= 1.0 - 1e-12);
        assert!(
            first.candidates[3].label.starts_with("migrated(T="),
            "periodic migration must be in the candidate set"
        );
        assert!(!first.candidates[4].fits_budget, "all-HBM is the bound");
        // The first query classified once for all five candidates, and
        // a second query over the same trace reuses that artifact for
        // every one of them: migration and the resized memory-side
        // cache both live on the timing side, so neither classifies.
        let before = stats();
        assert_eq!(before.misses, 1, "one classification per trace");
        let second = query(ByteSize::kib(512));
        let after = stats();
        assert_eq!(after.misses - before.misses, 0, "nothing may rebuild");
        assert_eq!(after.hits - before.hits, 5, "every candidate must hit");
        // Same trace, same DDR baseline for both budgets.
        assert_eq!(
            first.candidates[0].report, second.candidates[0].report,
            "all-DDR is budget-independent"
        );
    }
}
