//! The advisor query engine: batched placement advice behind a
//! canonicalized key, a sharded result cache, and a worker pool.
//!
//! §VI of the paper is a lookup table in prose — "which memory tier
//! should this workload use?" — and the ROADMAP's service framing
//! asks that question at volume, where most queries repeat the same
//! few hundred configurations. [`advise_replayed`] answers one query
//! by replaying five placements; this module makes repeats nearly
//! free with a four-level fast path:
//!
//! 1. **Canonicalize** ([`canonicalize`]): an [`AdvisorQuery`] folds
//!    into a [`QueryKey`] — budgets round up to placement-equivalent
//!    page buckets, thread counts fold through the machine's valid
//!    SMT range, a zero migration period resolves to the trace-scaled
//!    default — and duplicate keys within a batch dedupe to one
//!    computation with N subscribers.
//! 2. **Result cache** ([`ResultCache`]): distinct keys probe a
//!    sharded, byte-bounded LRU ([`simfabric::ShardedLru`]) before
//!    any replay runs; repeats across batches cost a lookup. Exported
//!    as `advisor.cache.*` metrics.
//! 3. **SMT-level sharing**: trace replay does not model hardware
//!    threads (the advice only echoes them), so keys that differ only
//!    in `threads` have the same candidates. A miss whose key is
//!    cached at another SMT level takes that answer re-stamped with
//!    its own `threads`, and misses of one batch that differ only in
//!    `threads` compute once. Sibling probes
//!    ([`ShardedLru::peek`]) are not result-cache lookups: they count
//!    neither a hit nor a miss.
//! 4. **Worker pool**: remaining misses fan out over
//!    [`simfabric::par::par_queued`] workers, each running the pure
//!    [`answer`] function; concurrent workers share classification
//!    work through the global classify cache's in-flight guard
//!    ([`knl::SharedClassifyCache`]), so two setups over one trace
//!    spec classify it once even across threads.
//!
//! The single-query path ([`AdvisorService::advise`]) is the batch
//! path at N = 1, so the CLI and batch entry points cannot drift.
//! Soundness of the canonicalization — equal keys give bit-identical
//! advice, distinct keys never alias — is property-tested below: the
//! engine *answers at the bucket's representative*, so a bucketed
//! query is answered exactly, for the bucket it canonicalized into.
//!
//! [`advise_replayed`]: crate::advisor::advise_replayed

use crate::advisor::{advise_replayed_query, ReplayedAdvice};
use crate::json::Json;
use crate::sweep::TraceSpec;
use memkind_sim::migrate::PAGE_BYTES;
use simfabric::cache::{ShardedCacheStats, ShardedLru};
use simfabric::telemetry::MetricsRegistry;
use simfabric::{par, ByteSize};
use std::collections::HashMap;
use std::sync::Arc;
use workloads::tracegen::TraceKind;

/// Schema tag of the advice documents [`advice_to_json`] writes and
/// [`check_advice`] validates.
pub const ADVICE_SCHEMA: &str = "advisor_advice/v1";

/// Seed a query uses when the JSON line omits `seed`.
pub const DEFAULT_QUERY_SEED: u64 = 0xAD5E;

/// Default [`ResultCache`] budget: plenty for tens of thousands of
/// advice entries (an entry is a few hundred bytes, not a trace).
pub const RESULT_CACHE_DEFAULT_BYTES: usize = 16 << 20;

/// Shards in the [`ResultCache`] — enough that a worker pool's
/// concurrent probes rarely collide on one lock.
pub const RESULT_CACHE_SHARDS: usize = 16;

/// One advisor query, as the CLI and the JSON-lines batch files state
/// it: which trace, how much fast-tier budget, how many threads, and
/// (optionally) a migration rebalance period.
#[derive(Debug, Clone, PartialEq)]
pub struct AdvisorQuery {
    /// Trace generator.
    pub kind: TraceKind,
    /// Simulated core count.
    pub cores: u32,
    /// Approximate accesses per core.
    pub accesses_per_core: u64,
    /// Generator seed.
    pub seed: u64,
    /// Fast-tier budget (split boundary, cache capacity, migration
    /// pool), in bytes as stated — canonicalization buckets it.
    pub budget: ByteSize,
    /// Requested thread count — canonicalization folds it through the
    /// machine's valid SMT range.
    pub threads: u32,
    /// Migration rebalance period in accesses; 0 means "pick for me"
    /// (resolved to [`auto_period`] during canonicalization).
    pub migrate_period: u64,
}

/// Parse a `<kind>_<cores>x<per_core>` workload label (the bench
/// config format, e.g. `stream_8x2000`). Admits 1 to
/// [`knl::calib::CORES`] cores and a nonzero per-core count whose
/// trace total fits a `u64`.
pub fn parse_workload(label: &str) -> Result<(TraceKind, u32, u64), String> {
    let shape = || format!("bad workload label {label:?} (expected <kind>_<cores>x<per_core>)");
    let (kind_s, rest) = label.rsplit_once('_').ok_or_else(shape)?;
    let kind = TraceKind::ALL
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(kind_s))
        .ok_or_else(|| {
            let known: Vec<String> = TraceKind::ALL
                .iter()
                .map(|k| k.name().to_lowercase())
                .collect();
            format!("unknown trace kind {kind_s:?}; known: {}", known.join(", "))
        })?;
    let (cores_s, per_s) = rest.split_once('x').ok_or_else(shape)?;
    let cores: u32 = cores_s.parse().map_err(|_| shape())?;
    let accesses_per_core: u64 = per_s.parse().map_err(|_| shape())?;
    if cores == 0 || accesses_per_core == 0 {
        return Err(shape());
    }
    if cores > knl::calib::CORES {
        return Err(format!(
            "workload {label:?} asks for {cores} cores; the machine has {}",
            knl::calib::CORES
        ));
    }
    if (cores as u64).checked_mul(accesses_per_core).is_none() {
        return Err(format!(
            "workload {label:?} has more than {} accesses in total",
            u64::MAX
        ));
    }
    Ok((kind, cores, accesses_per_core))
}

impl AdvisorQuery {
    /// A query over a `<kind>_<cores>x<per_core>` workload label at
    /// the given budget, with default seed, 64 threads, and an
    /// auto-resolved migration period.
    pub fn over(workload: &str, budget: ByteSize) -> Result<AdvisorQuery, String> {
        let (kind, cores, accesses_per_core) = parse_workload(workload)?;
        Ok(AdvisorQuery {
            kind,
            cores,
            accesses_per_core,
            seed: DEFAULT_QUERY_SEED,
            budget,
            threads: 64,
            migrate_period: 0,
        })
    }

    /// The workload label (`stream_8x2000` form).
    pub fn workload_label(&self) -> String {
        format!(
            "{}_{}x{}",
            self.kind.name().to_lowercase(),
            self.cores,
            self.accesses_per_core
        )
    }

    /// Parse one JSON-lines query document. `workload` is required;
    /// `budget_kib` defaults to 256, `seed` to
    /// [`DEFAULT_QUERY_SEED`], `threads` to 64, `period` to 0
    /// (auto). Unknown fields are ignored so batch files can carry
    /// annotations.
    pub fn from_json(doc: &Json) -> Result<AdvisorQuery, String> {
        let workload = doc.str_field("workload")?;
        let opt_num = |key: &str, default: f64| -> Result<f64, String> {
            match doc.get(key) {
                None => Ok(default),
                Some(v) => match v.as_f64() {
                    Some(n) if n.is_finite() => Ok(n),
                    Some(n) => Err(format!("non-finite field `{key}`: {n}")),
                    None => Err(format!("non-numeric field `{key}`")),
                },
            }
        };
        // A whole number in `[min, max]`, taken as-is: fractional or
        // out-of-range values are errors, never truncated or saturated.
        let opt_int = |key: &str, default: u64, min: u64, max: u64| -> Result<u64, String> {
            let n = opt_num(key, default as f64)?;
            // `max as f64 + 1.0` rounds to 2^64 for `u64::MAX`, the
            // first f64 past the range.
            if n.fract() != 0.0 || n < min as f64 || n >= max as f64 + 1.0 {
                return Err(format!(
                    "field `{key}` must be a whole number in {min}..={max}, got {n}"
                ));
            }
            Ok(n as u64)
        };
        let budget_kib = opt_num("budget_kib", 256.0)?;
        let budget = (budget_kib * 1024.0).round();
        if budget < 1.0 || budget >= u64::MAX as f64 {
            return Err(format!(
                "budget_kib {budget_kib} is not a positive byte count"
            ));
        }
        let mut q = AdvisorQuery::over(&workload, ByteSize::bytes(budget as u64))?;
        q.seed = opt_int("seed", DEFAULT_QUERY_SEED, 0, u64::MAX)?;
        q.threads = opt_int("threads", 64, 1, u32::MAX as u64)? as u32;
        q.migrate_period = opt_int("period", 0, 0, u64::MAX)?;
        Ok(q)
    }

    /// The JSON-lines form of this query (inverse of
    /// [`from_json`](Self::from_json)).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::Str(self.workload_label())),
            ("seed", Json::Num(self.seed as f64)),
            (
                "budget_kib",
                Json::Num(self.budget.as_u64() as f64 / 1024.0),
            ),
            ("threads", Json::Num(self.threads as f64)),
            ("period", Json::Num(self.migrate_period as f64)),
        ])
    }
}

/// The canonical identity of an advisor query — every field the
/// answer depends on, post-normalization, and nothing else. Equal
/// keys get bit-identical [`ReplayedAdvice`]; the service computes
/// and caches per key, never per raw query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryKey {
    /// Trace generator.
    pub kind: TraceKind,
    /// Simulated core count.
    pub cores: u32,
    /// Accesses per core.
    pub accesses_per_core: u64,
    /// Generator seed.
    pub seed: u64,
    /// Budget bucket, in whole pages (the answer is computed at
    /// exactly this size).
    pub budget_pages: u64,
    /// Folded thread count (a full SMT level: 64, 128, 192 or 256).
    pub threads: u32,
    /// Resolved migration period (never 0).
    pub period: u64,
}

impl QueryKey {
    /// The canonical string form (used in logs; equality of keys is
    /// equality of these strings, which the no-alias property test
    /// checks).
    pub fn canonical(&self) -> String {
        format!(
            "advise:{}|budget_pages={}|threads={}|period={}",
            self.kind
                .spec(self.cores, self.accesses_per_core, self.seed),
            self.budget_pages,
            self.threads,
            self.period
        )
    }

    /// The budget the bucket represents.
    pub fn budget(&self) -> ByteSize {
        ByteSize::bytes(self.budget_pages * PAGE_BYTES)
    }

    /// The trace spec this key replays.
    pub fn spec(&self) -> TraceSpec {
        TraceSpec::from_kind(self.kind, self.cores, self.accesses_per_core, self.seed)
    }
}

/// The thread counts [`fold_threads`] folds into: one per SMT level
/// of the 64-core KNL.
pub const SMT_LEVELS: [u32; 4] = [64, 128, 192, 256];

/// Fold a requested thread count through the machine's valid range:
/// up to the next full SMT level (64 threads per level on the 64-core
/// KNL), clamped to 1–4 levels ([`SMT_LEVELS`]). Within a level the
/// advice is identical — folding is what makes "63 threads" and "64
/// threads" one cache entry. Across levels only the echoed `threads`
/// differs today, because trace replay is per-core and never reads
/// the thread count; [`AdvisorService::advise_batch`] relies on that
/// to replay once per SMT-level group.
pub fn fold_threads(threads: u32) -> u32 {
    SMT_LEVELS[threads.div_ceil(64).clamp(1, 4) as usize - 1]
}

/// The migration period a zero-period query resolves to: an eighth of
/// the trace (eight rebalance opportunities), floored at 256 accesses
/// so tiny traces still migrate. Saturates rather than overflowing on
/// a trace too long to count.
pub fn auto_period(cores: u32, accesses_per_core: u64) -> u64 {
    ((cores as u64).saturating_mul(accesses_per_core) / 8).max(256)
}

/// Canonicalize a query into its [`QueryKey`]: bucket the budget up
/// to whole pages, fold threads, resolve a zero period. The answer is
/// computed *at the bucket's representative values*, which is what
/// makes same-key queries bit-identical by construction.
pub fn canonicalize(q: &AdvisorQuery) -> QueryKey {
    QueryKey {
        kind: q.kind,
        cores: q.cores,
        accesses_per_core: q.accesses_per_core,
        seed: q.seed,
        budget_pages: q.budget.as_u64().div_ceil(PAGE_BYTES).max(1),
        threads: fold_threads(q.threads),
        period: if q.migrate_period == 0 {
            auto_period(q.cores, q.accesses_per_core)
        } else {
            q.migrate_period
        },
    }
}

/// The pure query function: answer a canonicalized key by replaying
/// its five placement candidates
/// ([`advise_replayed_query`]). Deterministic in the key alone;
/// everything cached or deduplicated upstream funnels through here.
pub fn answer(key: &QueryKey) -> ReplayedAdvice {
    advise_replayed_query(&key.spec(), key.budget(), key.threads, key.period)
}

/// Approximate heap footprint of an advice entry, the unit the
/// [`ResultCache`] budget is measured in.
pub fn advice_bytes(advice: &ReplayedAdvice) -> usize {
    std::mem::size_of::<ReplayedAdvice>()
        + advice.trace.len()
        + advice
            .candidates
            .iter()
            .map(|c| std::mem::size_of_val(c) + c.label.len())
            .sum::<usize>()
}

/// The sharded, byte-bounded advice cache (level 2 of the fast
/// path). A thin wrapper over [`ShardedLru`] that owns entry sizing
/// and the `advisor.cache.*` metrics export.
#[derive(Debug)]
pub struct ResultCache {
    lru: ShardedLru<QueryKey, ReplayedAdvice>,
}

impl ResultCache {
    /// A cache with a `cap_bytes` budget over
    /// [`RESULT_CACHE_SHARDS`] shards (0 disables retention — every
    /// lookup misses, which the single-query overhead gate uses).
    pub fn new(cap_bytes: usize) -> Self {
        ResultCache {
            lru: ShardedLru::new(RESULT_CACHE_SHARDS, cap_bytes),
        }
    }

    /// Budget from the environment: `ADVISOR_CACHE_MB` (MiB; 0
    /// disables retention), defaulting to
    /// [`RESULT_CACHE_DEFAULT_BYTES`].
    pub fn capacity_from_env() -> usize {
        match simfabric::env::usize_var("ADVISOR_CACHE_MB") {
            Some(mib) => mib << 20,
            None => RESULT_CACHE_DEFAULT_BYTES,
        }
    }

    /// The cached advice for `key`, if any (counts a hit or miss).
    pub fn get(&self, key: &QueryKey) -> Option<Arc<ReplayedAdvice>> {
        self.lru.get(key)
    }

    /// The cached advice for `key` at another SMT level, found without
    /// counting a lookup ([`ShardedLru::peek`]).
    fn peek_smt_sibling(&self, key: &QueryKey) -> Option<Arc<ReplayedAdvice>> {
        SMT_LEVELS
            .iter()
            .filter(|&&threads| threads != key.threads)
            .find_map(|&threads| {
                self.lru.peek(&QueryKey {
                    threads,
                    ..key.clone()
                })
            })
    }

    /// Retain `advice` under `key`, weighted by [`advice_bytes`].
    pub fn insert(&self, key: QueryKey, advice: Arc<ReplayedAdvice>) {
        let bytes = advice_bytes(&advice);
        self.lru.insert(key, advice, bytes);
    }

    /// Behaviour counters, summed over shards.
    pub fn stats(&self) -> ShardedCacheStats {
        self.lru.stats()
    }

    /// Retained entries.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Retained payload bytes.
    pub fn bytes(&self) -> usize {
        self.lru.bytes()
    }

    /// Snapshot as `advisor.cache.*` metrics: hit/miss/insert/
    /// eviction/rejection counters plus entry, byte, and shard
    /// gauges.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let stats = self.stats();
        let mut reg = MetricsRegistry::new();
        reg.counter("advisor.cache.hits", stats.hits);
        reg.counter("advisor.cache.misses", stats.misses);
        reg.counter("advisor.cache.inserts", stats.inserts);
        reg.counter("advisor.cache.evictions", stats.evictions);
        reg.counter("advisor.cache.rejected", stats.rejected);
        reg.gauge("advisor.cache.entries", self.len() as f64);
        reg.gauge("advisor.cache.bytes", self.bytes() as f64);
        reg.gauge(
            "advisor.cache.shard_cap_bytes",
            self.lru.shard_cap_bytes() as f64,
        );
        reg.gauge("advisor.cache.shards", self.lru.shards() as f64);
        reg
    }
}

/// What one [`AdvisorService::advise_batch`] call did, level by
/// level: how many raw queries came in, how many distinct keys they
/// folded into, how many of those the result cache answered under
/// their own key, how many took a re-stamped answer from another SMT
/// level, and how many had to compute. `distinct` is the sum of the
/// last three.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Raw queries in the batch.
    pub queries: usize,
    /// Distinct canonical keys after dedup.
    pub distinct: usize,
    /// Distinct keys served from the result cache under their own key.
    pub cache_hits: usize,
    /// Distinct keys answered by re-stamping the advice of a key that
    /// differs only in `threads` (cached, or computed in this batch).
    pub shared: usize,
    /// Distinct keys that ran [`answer`].
    pub computed: usize,
}

/// `advice` as answered for `threads`: the same candidates, `best`
/// and speedup, with the echoed thread count replaced.
fn restamp(advice: &Arc<ReplayedAdvice>, threads: u32) -> Arc<ReplayedAdvice> {
    if advice.threads == threads {
        return Arc::clone(advice);
    }
    Arc::new(ReplayedAdvice {
        threads,
        ..(**advice).clone()
    })
}

/// The batch advisor engine: canonicalize → dedupe → result cache →
/// SMT-level sharing → worker pool. One instance owns one
/// [`ResultCache`]; the global classify cache is shared process-wide
/// regardless.
#[derive(Debug)]
pub struct AdvisorService {
    cache: ResultCache,
    workers: usize,
}

impl AdvisorService {
    /// A service with a `cap_bytes` result-cache budget and at most
    /// `workers` concurrent miss computations.
    pub fn new(cap_bytes: usize, workers: usize) -> Self {
        AdvisorService {
            cache: ResultCache::new(cap_bytes),
            workers: workers.max(1),
        }
    }

    /// A service sized from the environment:
    /// [`ResultCache::capacity_from_env`] and
    /// [`par::num_threads`] workers.
    pub fn with_defaults() -> Self {
        Self::new(ResultCache::capacity_from_env(), par::num_threads())
    }

    /// The service's result cache (stats, metrics).
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Answer one query — the batch path at N = 1, so the CLI and
    /// batch entry points share every level of the fast path.
    pub fn advise(&self, query: &AdvisorQuery) -> Arc<ReplayedAdvice> {
        let (mut answers, _) = self.advise_batch(std::slice::from_ref(query));
        answers.pop().expect("one query yields one answer")
    }

    /// Answer a batch: canonicalize every query, dedupe identical
    /// keys (N duplicates → one computation with N subscribers),
    /// serve repeats from the result cache, answer misses cached at
    /// another SMT level by re-stamping, and fan the remaining misses
    /// over the worker pool, one per group of keys that differ only in
    /// `threads` (a single miss computes inline — no pool spin-up on
    /// the single-query path). Every answered miss is cached under its
    /// own key. Answers come back in input order; element `i` answers
    /// `queries[i]`.
    pub fn advise_batch(&self, queries: &[AdvisorQuery]) -> (Vec<Arc<ReplayedAdvice>>, BatchStats) {
        // Level 1: canonicalize and dedupe within the batch.
        let keys: Vec<QueryKey> = queries.iter().map(canonicalize).collect();
        let mut distinct: Vec<QueryKey> = Vec::new();
        let mut slot_of: HashMap<QueryKey, usize> = HashMap::new();
        let subscriptions: Vec<usize> = keys
            .iter()
            .map(|key| {
                *slot_of.entry(key.clone()).or_insert_with(|| {
                    distinct.push(key.clone());
                    distinct.len() - 1
                })
            })
            .collect();

        // Level 2: probe the result cache per distinct key.
        let mut resolved: Vec<Option<Arc<ReplayedAdvice>>> =
            distinct.iter().map(|key| self.cache.get(key)).collect();
        let cache_hits = resolved.iter().filter(|r| r.is_some()).count();

        // Level 3: group the misses by everything but `threads`; a
        // group cached at another SMT level needs no replay.
        let mut groups: Vec<(Option<Arc<ReplayedAdvice>>, Vec<usize>)> = Vec::new();
        let mut group_of: HashMap<QueryKey, usize> = HashMap::new();
        for slot in (0..distinct.len()).filter(|&s| resolved[s].is_none()) {
            let smt_free = QueryKey {
                threads: 0,
                ..distinct[slot].clone()
            };
            let g = *group_of.entry(smt_free).or_insert_with(|| {
                let donor = self.cache.peek_smt_sibling(&distinct[slot]);
                groups.push((donor, Vec::new()));
                groups.len() - 1
            });
            groups[g].1.push(slot);
        }

        // Level 4: compute one member of every group without a donor —
        // inline for one (`par_queued` runs a single item on this
        // thread), through the worker pool for many.
        let leaders: Vec<usize> = groups
            .iter()
            .enumerate()
            .filter_map(|(g, (donor, _))| donor.is_none().then_some(g))
            .collect();
        let leader_keys: Vec<&QueryKey> =
            leaders.iter().map(|&g| &distinct[groups[g].1[0]]).collect();
        let computed = par::par_queued(&leader_keys, self.workers, |_, key| answer(key));
        for (&g, advice) in leaders.iter().zip(computed) {
            groups[g].0 = Some(Arc::new(advice));
        }
        for (donor, members) in &groups {
            let donor = donor.as_ref().expect("every group has a donor now");
            for &slot in members {
                let advice = restamp(donor, distinct[slot].threads);
                self.cache
                    .insert(distinct[slot].clone(), Arc::clone(&advice));
                resolved[slot] = Some(advice);
            }
        }

        let answers = subscriptions
            .iter()
            .map(|&slot| {
                Arc::clone(
                    resolved[slot]
                        .as_ref()
                        .expect("every distinct key is resolved"),
                )
            })
            .collect();
        (
            answers,
            BatchStats {
                queries: queries.len(),
                distinct: distinct.len(),
                cache_hits,
                shared: distinct.len() - cache_hits - leaders.len(),
                computed: leaders.len(),
            },
        )
    }
}

/// Render advice as an `advisor_advice/v1` document: the
/// canonicalized query, the recommendation, and every candidate's
/// replay numbers.
pub fn advice_to_json(key: &QueryKey, advice: &ReplayedAdvice) -> Json {
    let candidates: Vec<Json> = advice
        .candidates
        .iter()
        .map(|c| {
            Json::obj([
                ("label", Json::Str(c.label.clone())),
                ("fits_budget", Json::Bool(c.fits_budget)),
                ("makespan_ps", Json::Num(c.report.makespan.as_ps() as f64)),
                ("avg_latency_ns", Json::Num(c.report.avg_latency.as_ns())),
                ("bandwidth_gbs", Json::Num(c.report.bandwidth_gbs)),
                ("accesses", Json::Num(c.report.accesses as f64)),
            ])
        })
        .collect();
    Json::obj([
        ("schema", Json::Str(ADVICE_SCHEMA.into())),
        (
            "query",
            Json::obj([
                (
                    "workload",
                    Json::Str(format!(
                        "{}_{}x{}",
                        key.kind.name().to_lowercase(),
                        key.cores,
                        key.accesses_per_core
                    )),
                ),
                ("seed", Json::Num(key.seed as f64)),
                ("budget_pages", Json::Num(key.budget_pages as f64)),
                ("threads", Json::Num(key.threads as f64)),
                ("period", Json::Num(key.period as f64)),
                ("canonical", Json::Str(key.canonical())),
            ]),
        ),
        ("trace", Json::Str(advice.trace.clone())),
        ("best", Json::Num(advice.best as f64)),
        ("recommended", Json::Str(advice.recommended().label.clone())),
        ("speedup_vs_ddr", Json::Num(advice.speedup_vs_ddr)),
        ("candidates", Json::Arr(candidates)),
    ])
}

/// What [`check_advice`] found in a valid advice document.
#[derive(Debug, Clone, PartialEq)]
pub struct AdviceSummary {
    /// Candidates in the document.
    pub candidates: usize,
    /// The recommended candidate's label.
    pub recommended: String,
    /// The recommendation's speedup over all-DDR.
    pub speedup_vs_ddr: f64,
}

/// Validate an `advisor_advice/v1` document: schema tag, a complete
/// canonicalized query block, a non-empty candidate list with typed
/// replay fields, a `best` index in range whose label matches
/// `recommended`, and a positive finite speedup. Errors name the
/// offending field.
pub fn check_advice(doc: &Json) -> Result<AdviceSummary, String> {
    let schema = doc.str_field("schema")?;
    if schema != ADVICE_SCHEMA {
        return Err(format!("schema {schema:?}, expected {ADVICE_SCHEMA:?}"));
    }
    let query = doc.get("query").ok_or("missing `query` object")?;
    query.str_field("workload")?;
    query.str_field("canonical")?;
    for field in ["seed", "budget_pages", "threads", "period"] {
        let v = query.num_field(field)?;
        if field != "seed" && v < 1.0 {
            return Err(format!("query.{field} {v} below 1"));
        }
    }
    doc.str_field("trace")?;
    let speedup = doc.num_field("speedup_vs_ddr")?;
    if speedup <= 0.0 || !speedup.is_finite() {
        return Err(format!("non-positive speedup_vs_ddr {speedup}"));
    }
    let candidates = doc.arr_field("candidates")?;
    if candidates.is_empty() {
        return Err("empty candidates array".into());
    }
    for (i, c) in candidates.iter().enumerate() {
        let label = c.str_field("label")?;
        if !matches!(c.get("fits_budget"), Some(Json::Bool(_))) {
            return Err(format!("candidate {i} ({label}): missing fits_budget"));
        }
        for field in ["makespan_ps", "avg_latency_ns", "bandwidth_gbs", "accesses"] {
            let v = c.num_field(field)?;
            if v <= 0.0 || !v.is_finite() {
                return Err(format!("candidate {i} ({label}): non-positive {field} {v}"));
            }
        }
    }
    let best = doc.num_field("best")? as usize;
    if best >= candidates.len() {
        return Err(format!(
            "best index {best} out of range ({} candidates)",
            candidates.len()
        ));
    }
    let recommended = doc.str_field("recommended")?;
    let best_label = candidates[best].str_field("label")?;
    if recommended != best_label {
        return Err(format!(
            "recommended {recommended:?} does not match candidates[{best}] {best_label:?}"
        ));
    }
    Ok(AdviceSummary {
        candidates: candidates.len(),
        recommended,
        speedup_vs_ddr: speedup,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simfabric::Rng;
    use std::collections::HashSet;

    fn tiny_query() -> AdvisorQuery {
        AdvisorQuery {
            kind: TraceKind::Stream,
            cores: 2,
            accesses_per_core: 150,
            seed: 0x51,
            budget: ByteSize::kib(64),
            threads: 64,
            migrate_period: 0,
        }
    }

    #[test]
    fn thread_folding_snaps_to_smt_levels() {
        assert_eq!(fold_threads(0), 64);
        assert_eq!(fold_threads(1), 64);
        assert_eq!(fold_threads(64), 64);
        assert_eq!(fold_threads(65), 128);
        assert_eq!(fold_threads(128), 128);
        assert_eq!(fold_threads(200), 256);
        assert_eq!(fold_threads(256), 256);
        assert_eq!(fold_threads(10_000), 256, "clamped to the valid range");
    }

    #[test]
    fn canonicalization_buckets_budget_and_resolves_period() {
        let mut q = tiny_query();
        q.budget = ByteSize::bytes(1);
        let key = canonicalize(&q);
        assert_eq!(key.budget_pages, 1, "budgets round up to whole pages");
        assert_eq!(key.period, auto_period(2, 150));
        assert!(key.period >= 256);
        q.migrate_period = 777;
        assert_eq!(canonicalize(&q).period, 777);
    }

    /// Satellite property test, half 1: any two queries mapping to
    /// the same `QueryKey` produce bit-identical advice through the
    /// full pipeline. Jitters every canonicalized dimension within
    /// its bucket, seeded so failures replay.
    #[test]
    fn same_key_queries_get_bit_identical_advice() {
        let mut rng = Rng::seed_from_u64(0x5E41CE);
        let base = tiny_query();
        let base_key = canonicalize(&base);
        let service = AdvisorService::new(0, 1); // cache off: both sides compute
        let want = service.advise(&base);
        for _ in 0..4 {
            let mut jittered = base.clone();
            // Same page bucket, different byte count.
            let pages = base_key.budget_pages;
            jittered.budget =
                ByteSize::bytes((pages - 1) * PAGE_BYTES + 1 + rng.next_below(PAGE_BYTES - 1));
            // Same SMT level, different request.
            jittered.threads = 1 + rng.next_below(64) as u32;
            let key = canonicalize(&jittered);
            assert_eq!(key, base_key, "jitter escaped the bucket: {jittered:?}");
            let got = service.advise(&jittered);
            assert_eq!(
                *got, *want,
                "same key must mean bit-identical advice: {jittered:?}"
            );
        }
    }

    /// Satellite property test, half 2: distinct key tuples never
    /// alias — every component reaches the canonical string.
    #[test]
    fn distinct_keys_never_alias() {
        let base = canonicalize(&tiny_query());
        let mut variants = vec![base.clone()];
        let mut v = base.clone();
        v.kind = TraceKind::Gups;
        variants.push(v.clone());
        v = base.clone();
        v.cores = 4;
        variants.push(v.clone());
        v = base.clone();
        v.accesses_per_core += 1;
        variants.push(v.clone());
        v = base.clone();
        v.seed ^= 1;
        variants.push(v.clone());
        v = base.clone();
        v.budget_pages += 1;
        variants.push(v.clone());
        v = base.clone();
        v.threads = 128;
        variants.push(v.clone());
        v = base.clone();
        v.period += 1;
        variants.push(v);
        let canonicals: HashSet<String> = variants.iter().map(QueryKey::canonical).collect();
        assert_eq!(
            canonicals.len(),
            variants.len(),
            "a key component failed to reach the canonical string"
        );
        let keys: HashSet<QueryKey> = variants.iter().cloned().collect();
        assert_eq!(keys.len(), variants.len());
    }

    #[test]
    fn batch_dedupes_and_warm_round_hits() {
        let service = AdvisorService::new(RESULT_CACHE_DEFAULT_BYTES, 2);
        let mut queries = Vec::new();
        for i in 0..6 {
            let mut q = tiny_query();
            // Three distinct budgets, each stated two ways.
            q.budget = ByteSize::bytes((1 + i / 2) * PAGE_BYTES - (i % 2) * 100);
            queries.push(q);
        }
        let (answers, stats) = service.advise_batch(&queries);
        assert_eq!(answers.len(), 6);
        assert_eq!(stats.queries, 6);
        assert_eq!(stats.distinct, 3, "pairs must dedupe to one key each");
        assert_eq!(stats.computed, 3);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.shared, 0);
        for pair in answers.chunks(2) {
            assert!(
                Arc::ptr_eq(&pair[0], &pair[1]),
                "duplicate queries must share one answer"
            );
        }
        // Warm round: identical answers, all from the cache.
        let (warm, warm_stats) = service.advise_batch(&queries);
        assert_eq!(warm_stats.cache_hits, 3);
        assert_eq!(warm_stats.computed, 0);
        for (a, b) in answers.iter().zip(&warm) {
            assert_eq!(**a, **b, "cold and warm answers must be bit-identical");
        }
        let cache_stats = service.cache().stats();
        assert_eq!(cache_stats.inserts, 3);
        assert!(cache_stats.hits >= 3);
    }

    /// Guard for the SMT-level sharing in `advise_batch`: it is exact
    /// only while replay ignores the thread count.
    #[test]
    fn answers_differ_across_smt_levels_only_in_threads() {
        for kind in TraceKind::ALL {
            let mut q = tiny_query();
            q.kind = kind;
            let base = canonicalize(&q);
            let want = answer(&base);
            for threads in SMT_LEVELS {
                let got = answer(&QueryKey {
                    threads,
                    ..base.clone()
                });
                assert_eq!(got.threads, threads, "{kind:?}: threads must be echoed");
                assert_eq!(
                    ReplayedAdvice {
                        threads: want.threads,
                        ..got
                    },
                    want,
                    "{kind:?} at {threads} threads: replay now reads threads, so the SMT \
                     sharing in `advise_batch` must key on `threads_per_core` (ROADMAP, \
                     hardware threads in trace replay)"
                );
            }
        }
    }

    #[test]
    fn smt_levels_of_one_key_replay_once() {
        let service = AdvisorService::new(RESULT_CACHE_DEFAULT_BYTES, 2);
        let queries: Vec<AdvisorQuery> = SMT_LEVELS
            .iter()
            .map(|&threads| AdvisorQuery {
                threads,
                ..tiny_query()
            })
            .collect();
        let (answers, stats) = service.advise_batch(&queries);
        assert_eq!(stats.distinct, 4);
        assert_eq!((stats.cache_hits, stats.shared, stats.computed), (0, 3, 1));
        for (q, got) in queries.iter().zip(&answers) {
            assert_eq!(**got, answer(&canonicalize(q)), "threads {}", q.threads);
        }
        let lookups = service.cache().stats();
        assert_eq!((lookups.hits, lookups.misses, lookups.inserts), (0, 4, 4));
        let (warm, warm_stats) = service.advise_batch(&queries);
        assert_eq!(
            (
                warm_stats.cache_hits,
                warm_stats.shared,
                warm_stats.computed
            ),
            (4, 0, 0)
        );
        for (a, b) in answers.iter().zip(&warm) {
            assert!(
                Arc::ptr_eq(a, b),
                "warm answers come from each key's own entry"
            );
        }
    }

    #[test]
    fn a_cached_smt_sibling_answers_a_miss_without_a_lookup() {
        let service = AdvisorService::new(RESULT_CACHE_DEFAULT_BYTES, 1);
        let first = service.advise(&tiny_query());
        let other = AdvisorQuery {
            threads: 200,
            ..tiny_query()
        };
        let (answers, stats) = service.advise_batch(std::slice::from_ref(&other));
        assert_eq!((stats.cache_hits, stats.shared, stats.computed), (0, 1, 0));
        assert_eq!(answers[0].threads, 256);
        assert_eq!(*answers[0], answer(&canonicalize(&other)));
        assert_eq!(answers[0].candidates, first.candidates);
        let lookups = service.cache().stats();
        assert_eq!(
            (lookups.hits, lookups.misses),
            (0, 2),
            "the sibling probe is not a lookup"
        );
        // The re-stamped answer now sits under its own key.
        let (_, again) = service.advise_batch(std::slice::from_ref(&other));
        assert_eq!((again.cache_hits, again.shared), (1, 0));
    }

    #[test]
    fn single_query_path_is_the_batch_path() {
        let service = AdvisorService::new(RESULT_CACHE_DEFAULT_BYTES, 4);
        let q = tiny_query();
        let via_advise = service.advise(&q);
        let direct = answer(&canonicalize(&q));
        assert_eq!(*via_advise, direct);
        // The advise() call warmed the cache.
        assert!(Arc::ptr_eq(&via_advise, &service.advise(&q)));
    }

    #[test]
    fn batch_answers_match_workers_any_width() {
        let mut queries = Vec::new();
        for i in 0..4u64 {
            let mut q = tiny_query();
            q.seed = 0x51 + i;
            queries.push(q);
        }
        let serial = AdvisorService::new(0, 1).advise_batch(&queries).0;
        let pooled = AdvisorService::new(0, 4).advise_batch(&queries).0;
        for (a, b) in serial.iter().zip(&pooled) {
            assert_eq!(**a, **b, "worker width must not change answers");
        }
    }

    #[test]
    fn query_json_round_trips_with_defaults() {
        let doc = crate::json::parse(r#"{"workload": "stream_4x200", "budget_kib": 128}"#).unwrap();
        let q = AdvisorQuery::from_json(&doc).unwrap();
        assert_eq!(q.kind, TraceKind::Stream);
        assert_eq!((q.cores, q.accesses_per_core), (4, 200));
        assert_eq!(q.seed, DEFAULT_QUERY_SEED);
        assert_eq!(q.budget, ByteSize::kib(128));
        assert_eq!((q.threads, q.migrate_period), (64, 0));
        let back = AdvisorQuery::from_json(&q.to_json()).unwrap();
        assert_eq!(back, q);

        for bad in [
            r#"{"budget_kib": 128}"#,
            r#"{"workload": "warp_4x200"}"#,
            r#"{"workload": "stream_4x200", "budget_kib": 0}"#,
            r#"{"workload": "stream_4x200", "threads": "lots"}"#,
            r#"{"workload": "stream_2x18446744073709551615"}"#,
            r#"{"workload": "stream_4x200", "budget_kib": 1e300}"#,
            r#"{"workload": "stream_4x200", "budget_kib": 0.0001}"#,
            r#"{"workload": "stream_4x200", "threads": 1e300}"#,
            r#"{"workload": "stream_4x200", "threads": 4294967296}"#,
            r#"{"workload": "stream_4x200", "threads": 2.5}"#,
            r#"{"workload": "stream_4x200", "seed": -1}"#,
            r#"{"workload": "stream_4x200", "seed": 18446744073709551616}"#,
            r#"{"workload": "stream_4x200", "period": 1e300}"#,
        ] {
            let doc = crate::json::parse(bad).unwrap();
            assert!(AdvisorQuery::from_json(&doc).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn query_json_keeps_sub_kib_budgets() {
        let mut q = AdvisorQuery::over("stream_4x200", ByteSize::bytes(256 * 1024 + 512)).unwrap();
        q.seed = 7;
        let text = q.to_json().to_compact();
        assert!(text.contains("256.5"), "{text}");
        let back = AdvisorQuery::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, q);
        // Whole-KiB budgets keep their integer wire form.
        let whole = AdvisorQuery::over("stream_4x200", ByteSize::kib(256)).unwrap();
        assert!(
            whole.to_json().to_compact().contains("\"budget_kib\":256,"),
            "{}",
            whole.to_json().to_compact()
        );
    }

    #[test]
    fn advice_document_validates_and_round_trips() {
        let q = tiny_query();
        let key = canonicalize(&q);
        let advice = answer(&key);
        let doc = advice_to_json(&key, &advice);
        let summary = check_advice(&doc).expect("fresh advice validates");
        assert_eq!(summary.candidates, 5);
        assert_eq!(summary.recommended, advice.recommended().label);
        let parsed = crate::json::parse(&doc.to_compact()).expect("compact parses");
        check_advice(&parsed).expect("parsed advice validates");

        // Mutations the checker must catch.
        assert!(check_advice(&Json::obj([])).is_err());
        if let Json::Obj(mut map) = doc.clone() {
            map.insert("best".into(), Json::Num(99.0));
            assert!(check_advice(&Json::Obj(map)).is_err(), "best out of range");
        }
        if let Json::Obj(mut map) = doc {
            map.insert("recommended".into(), Json::Str("nope".into()));
            assert!(
                check_advice(&Json::Obj(map)).is_err(),
                "recommended must match best"
            );
        }
    }

    #[test]
    fn metrics_cover_the_cache_counters() {
        use simfabric::telemetry::MetricValue;
        let service = AdvisorService::new(RESULT_CACHE_DEFAULT_BYTES, 1);
        let q = tiny_query();
        let _ = service.advise(&q);
        let _ = service.advise(&q);
        let reg = service.cache().metrics_registry();
        assert_eq!(
            reg.get("advisor.cache.hits"),
            Some(&MetricValue::Counter(1))
        );
        assert_eq!(
            reg.get("advisor.cache.misses"),
            Some(&MetricValue::Counter(1))
        );
        assert_eq!(
            reg.get("advisor.cache.inserts"),
            Some(&MetricValue::Counter(1))
        );
        assert!(matches!(
            reg.get("advisor.cache.bytes"),
            Some(MetricValue::Gauge(b)) if *b > 0.0
        ));
    }

    #[test]
    fn workload_labels_parse_and_reject() {
        assert!(parse_workload("stream_8x2000").is_ok());
        assert!(parse_workload("XSBench_4x10").is_ok());
        for bad in [
            "stream",
            "stream_8",
            "warp_8x100",
            "stream_0x100",
            "stream_8x0",
            "stream_65x100",
            "stream_2x18446744073709551615",
        ] {
            assert!(parse_workload(bad).is_err(), "accepted {bad:?}");
        }
        assert!(parse_workload("stream_64x100").is_ok());
        assert_eq!(auto_period(64, u64::MAX), u64::MAX / 8);
    }
}
