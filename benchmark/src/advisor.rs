//! `advisor_serve`: a closed loop with one client doing what `repro
//! serve` does per line — parse, canonicalize, advise, render — over a
//! seeded query stream with a fixed set of canonical keys.

use crate::digest::Fnv;
use crate::spans::{totals_by_name, Open, Tracer};
use crate::stats::{median, quantile};
use crate::{Check, Metrics, Pass, Workload};
use hybridmem::json::{self, Json};
use hybridmem::service::RESULT_CACHE_DEFAULT_BYTES;
use hybridmem::{
    advice_to_json, canonicalize, check_advice, AdvisorQuery, AdvisorService, QueryKey,
};
use knl::classified::ClassifiedTrace;
use knl::{with_global_classify_cache, MachineConfig, MemSetup};
use simfabric::{ByteSize, Rng};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;
use workloads::tracegen::{collect, TraceKind};

/// Budget buckets, KiB (page-aligned, so jitter stays in the bucket).
const BUDGETS_KIB: [u64; 4] = [64, 256, 1024, 4096];

/// SMT levels: the largest thread count of each fold bucket.
const SMT_LEVELS: [u64; 3] = [64, 128, 192];

/// Service constructions timed per pass for the set-up metric.
const SETUP_REPEATS: usize = 51;

/// The query stream, in the JSON-lines wire format with an integer
/// `budget_kib`, over the canonical keys `kinds` × budget buckets × SMT
/// levels. Each key's first occurrence sits at an even stride; every
/// other query repeats a key already seen, with `budget_kib` and
/// `threads` jittered inside the key's buckets.
pub fn query_lines(
    kinds: &[TraceKind],
    queries: usize,
    cores: u32,
    per_core: u64,
    seed: u64,
) -> Vec<String> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xAD5E_5E4E);
    let mut keys: Vec<(TraceKind, u64, u64)> = Vec::new();
    for &kind in kinds {
        for kib in BUDGETS_KIB {
            for level in SMT_LEVELS {
                keys.push((kind, kib, level));
            }
        }
    }
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    let stride = (queries / keys.len()).max(1);
    let query_seed = seed & 0xFFFF_FFFF;
    (0..queries)
        .map(|p| {
            let seen = (p / stride + 1).min(keys.len());
            let k = if p % stride == 0 && p / stride < keys.len() {
                p / stride
            } else {
                rng.next_below(seen as u64) as usize
            };
            let (kind, kib, level) = keys[k];
            format!(
                "{{\"workload\": \"{}_{cores}x{per_core}\", \"seed\": {query_seed}, \
                 \"budget_kib\": {}, \"threads\": {}}}",
                kind.name().to_lowercase(),
                kib - rng.next_below(4),
                level - rng.next_below(64),
            )
        })
        .collect()
}

/// The per-query digest: the canonical key, the recommendation and
/// every candidate's label and simulated makespan, read back from the
/// rendered `advisor_advice/v1` document.
fn advice_digest(doc: &Json) -> Result<u64, String> {
    let canonical = doc
        .get("query")
        .ok_or("missing query")?
        .str_field("canonical")?;
    let mut h = Fnv::default()
        .str(&canonical)
        .str(&doc.str_field("recommended")?)
        .word(doc.num_field("best")? as u64);
    for c in doc.arr_field("candidates")? {
        h = h
            .str(&c.str_field("label")?)
            .word(c.num_field("makespan_ps")? as u64);
    }
    Ok(h.finish())
}

/// Validate and digest every rendered answer (an unparsable or
/// invalid answer digests as 0 and is marked bad).
fn check_answers(texts: &[String]) -> (Vec<u64>, Vec<bool>) {
    texts
        .iter()
        .map(|t| {
            let parsed = json::parse(t).and_then(|doc| {
                check_advice(&doc)?;
                advice_digest(&doc)
            });
            match parsed {
                Ok(d) => (d, false),
                Err(_) => (0, true),
            }
        })
        .unzip()
}

fn parse_query(line: &str) -> Result<AdvisorQuery, String> {
    json::parse(line).and_then(|doc| AdvisorQuery::from_json(&doc))
}

/// The largest power of two at or below `n`, floored at one 64 B
/// line: the cache-mode candidate's memory-side cache capacity.
fn cache_capacity(budget: u64) -> ByteSize {
    let pow2 = if budget == 0 {
        0
    } else {
        1 << (63 - budget.leading_zeros())
    };
    ByteSize::bytes(pow2.max(64))
}

/// The advisor serve-loop workload.
pub struct Advisor {
    lines: Vec<String>,
}

impl Advisor {
    /// A stream of `queries` over traces of `kinds` at `cores` ×
    /// `per_core`.
    pub fn new(kinds: &[TraceKind], queries: usize, cores: u32, per_core: u64, seed: u64) -> Self {
        Advisor {
            lines: query_lines(kinds, queries, cores, per_core, seed),
        }
    }

    fn fresh_service(&self) -> AdvisorService {
        AdvisorService::new(RESULT_CACHE_DEFAULT_BYTES, crate::WORKERS)
    }
}

fn classify_misses() -> u64 {
    with_global_classify_cache(|c| c.stats().misses)
}

impl Workload for Advisor {
    fn pass(&mut self) -> Pass {
        let mut pass = Pass::default();
        with_global_classify_cache(|c| c.clear());
        // Set-up is one service construction, a few microseconds:
        // time several and keep the median.
        let mut setups = Vec::with_capacity(SETUP_REPEATS);
        let mut service = None;
        for _ in 0..SETUP_REPEATS {
            let t0 = Instant::now();
            let fresh = self.fresh_service();
            setups.push(t0.elapsed().as_secs_f64());
            service = Some(fresh);
        }
        pass.setup_s = median(&setups).value;
        let service = service.expect("at least one construction");
        let mut texts = Vec::with_capacity(self.lines.len());
        for line in &self.lines {
            let t = Instant::now();
            let Ok(query) = parse_query(line) else {
                texts.push(String::new());
                pass.op_ms.push(0.0);
                pass.computed.push(false);
                continue;
            };
            let key = canonicalize(&query);
            let (answers, stats) = service.advise_batch(std::slice::from_ref(&query));
            texts.push(advice_to_json(&key, &answers[0]).to_compact());
            let ms = t.elapsed().as_secs_f64() * 1e3;
            pass.op_ms.push(ms);
            pass.computed.push(stats.cache_hits == 0);
            pass.accesses += query.cores as u64 * query.accesses_per_core;
        }
        (pass.digests, pass.bad) = check_answers(&texts);
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
        with_global_classify_cache(|c| c.clear());
        let service = self.fresh_service();
        let mut seen: HashSet<QueryKey> = HashSet::new();
        let mut texts = Vec::with_capacity(self.lines.len());
        let mut unexpected = Vec::with_capacity(self.lines.len());
        let (mut flat_hits, mut cache_hits) = ([0u64; 4], [0u64; 4]);
        let (mut flat_n, mut cache_n) = (0u64, 0u64);
        let mut result_hits = 0usize;
        for line in &self.lines {
            let q = tracer.open(Some(root));
            let parsed = tracer.time(&q, "parse", 0, || parse_query(line));
            let Ok(query) = parsed else {
                tracer.close(q, "query", 0);
                texts.push(String::new());
                unexpected.push(true);
                continue;
            };
            let key = tracer.time(&q, "canonicalize", 0, || canonicalize(&query));
            let miss = seen.insert(key.clone());
            if miss {
                // Classify the key's flat and cache-mode hierarchies
                // first, exactly as `classified_for` would, so the
                // service call below is timing only.
                let spec = key.spec();
                let msc_cache = cache_capacity(key.budget().as_u64());
                for (which, setup, msc) in [
                    ("classify.flat", MemSetup::DramOnly, ByteSize::mib(8)),
                    ("classify.cache", MemSetup::CacheMode, msc_cache),
                ] {
                    let cfg = MachineConfig::knl7210(setup, key.threads);
                    let ckey = spec.key(&cfg, msc);
                    let cached = tracer.time(&q, "classify.lookup", 0, || {
                        with_global_classify_cache(|c| c.lookup(&ckey)).is_some()
                    });
                    if cached {
                        continue;
                    }
                    let n = key.cores as u64 * key.accesses_per_core;
                    let trace = tracer.time(&q, "tracegen", n, || collect(spec.source().as_mut()));
                    let n = trace.len() as u64;
                    let ct = tracer.time(&q, which, n, || {
                        let ct = ClassifiedTrace::build_from_trace(
                            &cfg,
                            key.cores,
                            msc,
                            spec.label(),
                            &trace,
                        );
                        let ct = Arc::new(ct);
                        with_global_classify_cache(|c| c.insert_built(Arc::clone(&ct)));
                        ct
                    });
                    let (hits, total) = if setup == MemSetup::DramOnly {
                        (&mut flat_hits, &mut flat_n)
                    } else {
                        (&mut cache_hits, &mut cache_n)
                    };
                    for (acc, h) in hits.iter_mut().zip(ct.level_hits()) {
                        *acc += h;
                    }
                    *total += ct.accesses();
                }
            }
            let misses = classify_misses();
            let name = if miss { "advise.miss" } else { "advise.hit" };
            let (answers, stats) = tracer.time(&q, name, 0, || {
                service.advise_batch(std::slice::from_ref(&query))
            });
            result_hits += stats.cache_hits;
            // A miss must find both artifacts classified, and the
            // result cache must answer exactly the repeated keys.
            unexpected.push(classify_misses() != misses || (stats.cache_hits > 0) == miss);
            let text = tracer.time(&q, "respond", 0, || {
                advice_to_json(&key, &answers[0]).to_compact()
            });
            texts.push(text);
            tracer.close(q, "query", 0);
        }
        let (digests, bad) = check_answers(&texts);
        for (i, d) in digests.iter().enumerate() {
            check.op(!bad[i] && !unexpected[i] && passes[0].digests.get(i) == Some(d));
        }

        let fraction = |hits: &[u64; 4], lvl: usize, n: u64| {
            if n > 0 {
                hits[lvl] as f64 / n as f64
            } else {
                0.0
            }
        };
        m.insert(
            "classify.memory_fraction.flat",
            fraction(&flat_hits, 3, flat_n),
        );
        m.insert(
            "classify.memory_fraction.cache",
            fraction(&cache_hits, 3, cache_n),
        );
        m.insert(
            "classify.msc_hit_fraction",
            fraction(&cache_hits, 2, cache_n),
        );

        let t = totals_by_name(tracer.log().records());
        let total = |name: &str| t.get(name).map_or((0.0, 0), |e| (e.0, e.2));
        let mean_us = |name: &str| {
            let (us, n) = total(name);
            if n > 0 {
                us / n as f64
            } else {
                0.0
            }
        };
        m.insert("service.parse_us", mean_us("parse"));
        m.insert("service.canonicalize_us", mean_us("canonicalize"));
        m.insert("service.respond_us", mean_us("respond"));
        m.insert("service.miss_replay_ms", mean_us("advise.miss") / 1e3);
        let misses = total("advise.miss").1;
        if misses > 0 {
            let classify_us: f64 = [
                "classify.lookup",
                "tracegen",
                "classify.flat",
                "classify.cache",
            ]
            .iter()
            .map(|n| total(n).0)
            .sum();
            m.insert(
                "service.miss_classify_ms",
                classify_us / misses as f64 / 1e3,
            );
        }
        m.insert(
            "service.result_cache_hit_ratio",
            result_hits as f64 / self.lines.len().max(1) as f64,
        );
        let pooled = |computed: bool| -> Vec<f64> {
            passes
                .iter()
                .flat_map(|p| p.op_ms.iter().zip(&p.computed))
                .filter(|(_, c)| **c == computed)
                .map(|(ms, _)| *ms)
                .collect()
        };
        let (hit_ms, miss_ms) = (pooled(false), pooled(true));
        m.insert("service.hit_us", median(&hit_ms).value * 1e3);
        m.insert("service.miss_ms", median(&miss_ms).value);
        m.insert("service.miss_p95_ms", quantile(&miss_ms, 0.95).value);
        check
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_has_every_key_once_in_order_and_repeats_seen_ones() {
        let lines = query_lines(&TraceKind::ALL, 600, 8, 4000, 0xBE9C);
        assert_eq!(lines.len(), 600);
        let keys: Vec<QueryKey> = lines
            .iter()
            .map(|l| canonicalize(&parse_query(l).expect("wire format parses")))
            .collect();
        let distinct: HashSet<&QueryKey> = keys.iter().collect();
        assert_eq!(distinct.len(), 60);
        let mut seen = HashSet::new();
        for (p, k) in keys.iter().enumerate() {
            let first = seen.insert(k.clone());
            assert_eq!(first, p % 10 == 0, "query {p}: {}", k.canonical());
        }
        assert_eq!(query_lines(&TraceKind::ALL, 600, 8, 4000, 0xBE9C), lines);
        assert_ne!(query_lines(&TraceKind::ALL, 600, 8, 4000, 7), lines);
    }
}
