//! End-to-end contract of the advisor query service through the
//! public facade: batches answer bit-identically regardless of worker
//! width, cache capacity, or how queries are phrased within their
//! canonicalization buckets — and concurrent batch calls into one
//! service agree with a serial reference.
//!
//! The invariance test runs inside `par::with_threads(1)` and
//! `par::with_threads(8)`, so the pool-over-pool case (service workers
//! over replay workers) is exercised at both replay-worker extremes.
//! The scope reaches the reference answers, which classify afresh in
//! each round, the service's inline single-miss path, and its pool
//! workers, which carry the caller's worker count onto their fresh
//! threads (`par::par_queued`).

use knl_hybrid_memory::hybridmem::{answer, canonicalize, AdvisorQuery, AdvisorService};
use knl_hybrid_memory::knl::with_global_classify_cache;
use knl_hybrid_memory::simfabric::{par, ByteSize};
use knl_hybrid_memory::workloads::tracegen::TraceKind;
use std::sync::Arc;

fn batch() -> Vec<AdvisorQuery> {
    let mut queries = Vec::new();
    for (i, kind) in [TraceKind::Stream, TraceKind::Gups].into_iter().enumerate() {
        for pages in [8u64, 16] {
            for jitter in [0u64, 1000, 4095] {
                queries.push(AdvisorQuery {
                    kind,
                    cores: 2,
                    accesses_per_core: 150,
                    seed: 0xA5 + i as u64,
                    budget: ByteSize::bytes((pages - 1) * 4096 + 4096 - jitter),
                    threads: 1 + (jitter % 64) as u32,
                    migrate_period: 0,
                });
            }
        }
    }
    queries
}

#[test]
fn service_answers_are_invariant_to_workers_and_capacity() {
    let queries = batch();
    for replay_workers in [1, 8] {
        par::with_threads(replay_workers, || {
            // Drop retained artifacts so the reference classifies at
            // this worker count instead of reusing an earlier round's.
            with_global_classify_cache(|c| c.clear());
            let reference: Vec<_> = queries.iter().map(|q| answer(&canonicalize(q))).collect();
            for (workers, cap) in [(1, 0), (1, 16 << 20), (4, 16 << 20), (8, 1 << 10)] {
                let service = AdvisorService::new(cap, workers);
                let (answers, stats) = service.advise_batch(&queries);
                assert_eq!(stats.queries, queries.len());
                assert_eq!(stats.distinct, 4, "jitter must fold into 4 buckets");
                for (i, (got, want)) in answers.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        **got, *want,
                        "replay_workers={replay_workers} workers={workers} cap={cap}: \
                         query {i} diverged"
                    );
                }
            }
        });
    }
}

#[test]
fn concurrent_batches_share_one_service_and_agree() {
    let queries = Arc::new(batch());
    let service = Arc::new(AdvisorService::new(16 << 20, 2));
    let reference: Vec<_> = queries.iter().map(|q| answer(&canonicalize(q))).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let service = Arc::clone(&service);
                let queries = Arc::clone(&queries);
                scope.spawn(move || service.advise_batch(&queries).0)
            })
            .collect();
        for handle in handles {
            let answers = handle.join().expect("batch thread panicked");
            for (got, want) in answers.iter().zip(&reference) {
                assert_eq!(**got, *want, "concurrent batch diverged");
            }
        }
    });
    // Three batches probe 4 distinct keys each — exactly 12 lookups —
    // and every miss lands exactly one insert (two racing batches may
    // both compute a key, bit-identically; the cache replaces, never
    // duplicates). Nothing fits in "evicted" at this size.
    let stats = service.cache().stats();
    assert_eq!(stats.hits + stats.misses, 12);
    assert_eq!(stats.inserts, stats.misses);
    assert_eq!(stats.evictions, 0);
    // With the races over, a fresh batch is pure cache.
    let (_, warm) = service.advise_batch(&queries);
    assert_eq!(warm.cache_hits, 4);
    assert_eq!(warm.computed, 0);
}
