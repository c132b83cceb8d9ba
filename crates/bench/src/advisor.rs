//! Advisor-service benchmark: prices the batch query engine
//! ([`AdvisorService`]) against the naive loop it replaced.
//!
//! The naive arm answers a batch the way callers did before the
//! service existed — one [`answer`] per query, no dedup, no result
//! cache. The engine arm runs the same batch through a **fresh cold**
//! [`AdvisorService`] (within-batch dedup and result caching only; no
//! prior run's warmth flatters it). Both arms are asserted pointwise
//! bit-identical, so the measured speedup can never come from a
//! diverged engine. A second, untimed warm round on the same service
//! must be served wholly from the result cache.
//!
//! The bundled batch is repeat-heavy on purpose — hundreds of queries
//! over a dozen distinct configurations, with budgets and thread
//! counts jittered inside their canonicalization buckets — because
//! that is the workload the service exists for (placement advice at
//! volume repeats the same few configurations with cosmetic
//! variation).
//!
//! Backs the `advisor` and `advisor-plumbing` rows of `repro gate`
//! (the CI speedup and single-query overhead gates) and the bundled
//! batches of `repro advise-batch` and `repro queries`.

use crate::gate::{run_equal_pairs, run_pairs, timed, Paired, Side};
use crate::replay::BENCH_SEED;
use hybridmem::service::RESULT_CACHE_DEFAULT_BYTES;
use hybridmem::{answer, canonicalize, AdvisorQuery, AdvisorService};
use memkind_sim::migrate::PAGE_BYTES;
use simfabric::{ByteSize, Rng};
use std::sync::Arc;
use workloads::tracegen::TraceKind;

/// One advisor-bench scenario: how many queries to draw over which
/// distinct configuration pool.
#[derive(Debug, Clone)]
pub struct AdvisorBenchConfig {
    /// Queries in the batch.
    pub queries: usize,
    /// Trace kinds in the configuration pool.
    pub kinds: Vec<TraceKind>,
    /// Fast-tier budget buckets (pages) in the pool — the pool is the
    /// cross product of kinds and buckets.
    pub budgets_pages: Vec<u64>,
    /// Simulated core count of every pooled trace.
    pub cores: u32,
    /// Accesses per core of every pooled trace.
    pub accesses_per_core: u64,
}

impl AdvisorBenchConfig {
    /// Distinct configurations in the pool.
    pub(crate) fn pool_size(&self) -> usize {
        self.kinds.len() * self.budgets_pages.len()
    }

    /// The batch: `queries` draws from the pool, weighted toward its
    /// head (repeat-heavy, like real advice traffic), each draw's
    /// budget and thread count jittered *within* its canonicalization
    /// bucket so the batch also exercises key folding. Deterministic
    /// in [`BENCH_SEED`].
    pub fn batch(&self) -> Vec<AdvisorQuery> {
        let pool: Vec<(TraceKind, u64)> = self
            .kinds
            .iter()
            .flat_map(|&k| self.budgets_pages.iter().map(move |&p| (k, p)))
            .collect();
        let n = pool.len() as u64;
        // Linearly decaying weights: entry i drawn with weight n - i.
        let total: u64 = (1..=n).sum();
        let mut rng = Rng::seed_from_u64(BENCH_SEED ^ 0xAD5E);
        (0..self.queries)
            .map(|_| {
                let mut r = rng.next_below(total);
                let mut idx = 0usize;
                while r >= n - idx as u64 {
                    r -= n - idx as u64;
                    idx += 1;
                }
                let (kind, pages) = pool[idx];
                AdvisorQuery {
                    kind,
                    cores: self.cores,
                    accesses_per_core: self.accesses_per_core,
                    seed: BENCH_SEED,
                    // Any byte count in ((pages-1)·4096, pages·4096]
                    // canonicalizes to the same bucket.
                    budget: ByteSize::bytes(
                        (pages - 1) * PAGE_BYTES + 1 + rng.next_below(PAGE_BYTES),
                    ),
                    // Any request in 1..=64 folds to one SMT level.
                    threads: 1 + rng.next_below(64) as u32,
                    migrate_period: 0,
                }
            })
            .collect()
    }
}

/// The bundled 200-query scenario for `repro advise-batch --bundled
/// full` and `repro queries`: 12 distinct configurations
/// (3 kinds × 4 budget buckets) behind 200 repeat-heavy queries.
pub fn standard_advisor_config() -> AdvisorBenchConfig {
    AdvisorBenchConfig {
        queries: 200,
        kinds: vec![TraceKind::Stream, TraceKind::Gups, TraceKind::XsBench],
        budgets_pages: vec![16, 32, 64, 128],
        cores: 8,
        accesses_per_core: 1_500,
    }
}

/// Tiny scenario for the CI smoke gate (seconds, not minutes): 60
/// queries over 6 distinct configurations.
pub fn smoke_advisor_config() -> AdvisorBenchConfig {
    AdvisorBenchConfig {
        queries: 60,
        kinds: vec![TraceKind::Stream, TraceKind::XsBench],
        budgets_pages: vec![16, 32, 64],
        cores: 4,
        accesses_per_core: 600,
    }
}

/// Time `iters` alternating engine (A) / naive (B) batch pairs
/// ([`run_pairs`]), asserting the arms pointwise bit-identical every
/// pair. B/A is the speedup of the engine. The engine arm constructs
/// a fresh service inside the timed region — construction cost is
/// part of the price.
///
/// Every pair also asserts, independent of timer noise, that the
/// batch deduplicated to at most the configuration pool and that an
/// untimed warm re-run on the same service is bit-identical and
/// computes nothing — a result cache that silently stops retaining
/// fails here on the first attempt.
pub(crate) fn measure_advisor(cfg: &AdvisorBenchConfig, iters: usize) -> Paired {
    let batch = cfg.batch();
    run_pairs(
        iters,
        |side| match side {
            Side::A => {
                let (secs, (service, (answers, stats))) = timed(|| {
                    let service = AdvisorService::new(
                        RESULT_CACHE_DEFAULT_BYTES,
                        simfabric::par::num_threads(),
                    );
                    let batch_out = service.advise_batch(&batch);
                    (service, batch_out)
                });
                let distinct = stats.distinct;
                assert!(
                    distinct <= cfg.pool_size() && stats.computed == distinct,
                    "cold batch: {distinct} distinct keys over a {}-configuration pool, \
                     {} computed — dedupe is not folding repeats",
                    cfg.pool_size(),
                    stats.computed
                );
                // Untimed warm round: same batch, same service.
                let (warm, warm_stats) = service.advise_batch(&batch);
                assert_eq!(
                    warm_stats.computed, 0,
                    "warm round recomputed keys — the result cache is not retaining"
                );
                for (cold, warm) in answers.iter().zip(&warm) {
                    assert_eq!(**cold, **warm, "warm round diverged from cold");
                }
                (secs, answers)
            }
            Side::B => timed(|| {
                batch
                    .iter()
                    .map(|q| Arc::new(answer(&canonicalize(q))))
                    .collect()
            }),
        },
        |engine, naive| {
            assert_eq!(naive.len(), engine.len());
            for (i, (n, e)) in naive.iter().zip(&engine).enumerate() {
                assert_eq!(**n, **e, "engine diverged from naive loop at query {i}");
            }
        },
    )
}

/// Measure what the service *plumbing* costs on the path that cannot
/// amortize it: `iters` alternating pairs of a direct [`answer`] call
/// (A) against a single-query [`AdvisorService::advise`] (B) on a
/// zero-capacity service (retention off, so every call takes the full
/// canonicalize → probe → compute → distribute path), asserting both
/// give the same advice. The pair prices canonicalization, the cache
/// probe and the batch scaffolding, nothing else.
pub(crate) fn measure_single_query_overhead(cfg: &AdvisorBenchConfig, iters: usize) -> Paired {
    let query = &cfg.batch()[0];
    let key = canonicalize(query);
    let service = AdvisorService::new(0, 1);
    run_equal_pairs(
        iters,
        |side| {
            let (secs, advice) = timed(|| match side {
                Side::A => answer(&key),
                Side::B => (*service.advise(query)).clone(),
            });
            assert_eq!(advice.trace, key.spec().label().to_string());
            (secs, advice)
        },
        "the service must answer exactly as a direct call",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro() -> AdvisorBenchConfig {
        AdvisorBenchConfig {
            queries: 12,
            kinds: vec![TraceKind::Stream],
            budgets_pages: vec![8, 16],
            cores: 2,
            accesses_per_core: 150,
        }
    }

    #[test]
    fn batches_are_deterministic_and_repeat_heavy() {
        let cfg = micro();
        let a = cfg.batch();
        let b = cfg.batch();
        assert_eq!(a, b, "batches must be deterministic");
        assert_eq!(a.len(), 12);
        let distinct: std::collections::HashSet<_> =
            a.iter().map(hybridmem::canonicalize).collect();
        assert!(
            distinct.len() <= cfg.pool_size(),
            "jitter must stay inside canonicalization buckets"
        );
        assert!(distinct.len() < a.len(), "batch must contain repeats");
    }

    #[test]
    fn arms_are_bit_identical_and_measured() {
        let m = measure_advisor(&micro(), 2);
        assert!(m.best_secs.iter().all(|&s| s > 0.0));
        assert_eq!(m.ratios.len(), 2);
        assert!(m.median_ratio() > 0.0);
    }

    #[test]
    fn single_query_overhead_compares_identical_work() {
        let m = measure_single_query_overhead(&micro(), 2);
        assert!(m.best_secs.iter().all(|&s| s > 0.0));
        assert_eq!(m.ratios.len(), 2);
        // The plumbing ratio is bounded in release by the
        // `advisor-plumbing` row of `repro gate`, not here.
    }
}
