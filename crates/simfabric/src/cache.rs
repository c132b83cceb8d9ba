//! A generic sharded, byte-bounded LRU cache for concurrent readers.
//!
//! The classify cache in `knl` proved the shape — whole-key lookup,
//! LRU-by-payload-bytes, explicit counters — but it lives behind one
//! `Mutex`, which is fine for a sweep loop and wrong for a query
//! engine where many workers probe the cache on every request. This
//! module generalizes it: entries are spread over N independently
//! locked shards by key hash, so concurrent lookups to different
//! shards never contend, and each shard runs the same
//! bounded-bytes LRU discipline locally.
//!
//! The cache stores `Arc<V>` values; a hit clones the `Arc`, so
//! entries are shared, never copied. Sizing is caller-declared
//! (`insert` takes the entry's byte weight) because `V` is opaque
//! here. A zero total budget disables retention entirely — every
//! lookup misses — which overhead gates use to price the plumbing
//! alone.

use std::collections::VecDeque;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Aggregated behaviour counters of a [`ShardedLru`], summed over
/// shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardedCacheStats {
    /// Lookups served from a shard.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries retained by `insert`.
    pub inserts: u64,
    /// Entries dropped to make room (per-shard LRU order).
    pub evictions: u64,
    /// Entries too large for their shard's budget to ever retain.
    pub rejected: u64,
}

/// One shard: a locally locked LRU of `(key, value, bytes)` entries.
#[derive(Debug)]
struct Shard<K, V> {
    /// Front = least recently used; back = most recently used.
    lru: VecDeque<(K, Arc<V>, usize)>,
    bytes: usize,
    stats: ShardedCacheStats,
}

impl<K: Eq, V> Shard<K, V> {
    fn lookup(&mut self, key: &K) -> Option<Arc<V>> {
        match self.lru.iter().position(|(k, _, _)| k == key) {
            Some(pos) => {
                let entry = self.lru.remove(pos).expect("position came from iter");
                let value = Arc::clone(&entry.1);
                self.lru.push_back(entry);
                self.stats.hits += 1;
                Some(value)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn peek(&self, key: &K) -> Option<Arc<V>> {
        self.lru
            .iter()
            .find(|(k, _, _)| k == key)
            .map(|(_, v, _)| Arc::clone(v))
    }

    fn insert(&mut self, key: K, value: Arc<V>, entry_bytes: usize, cap_bytes: usize) {
        if cap_bytes == 0 {
            return;
        }
        if entry_bytes > cap_bytes {
            self.stats.rejected += 1;
            return;
        }
        // Replace a stale entry under the same key rather than
        // double-counting its bytes.
        if let Some(pos) = self.lru.iter().position(|(k, _, _)| k == &key) {
            let (_, _, old_bytes) = self.lru.remove(pos).expect("position came from iter");
            self.bytes -= old_bytes;
        }
        while self.bytes + entry_bytes > cap_bytes {
            let (_, _, evicted) = self.lru.pop_front().expect("over budget implies entries");
            self.bytes -= evicted;
            self.stats.evictions += 1;
        }
        self.bytes += entry_bytes;
        self.stats.inserts += 1;
        self.lru.push_back((key, value, entry_bytes));
    }
}

/// A sharded, byte-bounded concurrent LRU: `&self` lookup and insert,
/// with one mutex per shard so probes to different shards proceed in
/// parallel. The total byte budget is split evenly across shards
/// (each shard evicts locally), so the worst-case retained total
/// never exceeds the budget.
#[derive(Debug)]
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    shard_cap_bytes: usize,
}

impl<K: Hash + Eq, V> ShardedLru<K, V> {
    /// A cache of `shards` shards (at least one) sharing a
    /// `cap_bytes` total budget (0 disables retention).
    pub fn new(shards: usize, cap_bytes: usize) -> Self {
        let shards = shards.max(1);
        ShardedLru {
            shard_cap_bytes: cap_bytes / shards,
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        lru: VecDeque::new(),
                        bytes: 0,
                        stats: ShardedCacheStats::default(),
                    })
                })
                .collect(),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// The entry under `key`, moved to its shard's MRU position.
    /// Counts a hit or a miss on the shard.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        self.shard(key)
            .lock()
            .expect("cache shard poisoned")
            .lookup(key)
    }

    /// The entry under `key`, without touching the shard: no hit or
    /// miss is counted and the LRU order is unchanged. For probes
    /// that are not lookups of their own (a caller checking whether a
    /// related entry could stand in for a miss).
    pub fn peek(&self, key: &K) -> Option<Arc<V>> {
        self.shard(key)
            .lock()
            .expect("cache shard poisoned")
            .peek(key)
    }

    /// Retain `value` under `key`, declared `entry_bytes` large,
    /// evicting the shard's LRU entries until it fits. An entry
    /// exceeding the whole shard budget is rejected (counted), as is
    /// every insert when the cache is disabled.
    pub fn insert(&self, key: K, value: Arc<V>, entry_bytes: usize) {
        self.shard(&key)
            .lock()
            .expect("cache shard poisoned")
            .insert(key, value, entry_bytes, self.shard_cap_bytes);
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard byte budget (total budget / shard count).
    pub fn shard_cap_bytes(&self) -> usize {
        self.shard_cap_bytes
    }

    /// Retained entries, summed over shards.
    pub fn entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").lru.len())
            .sum()
    }

    /// Retained payload bytes, summed over shards.
    pub fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").bytes)
            .sum()
    }

    /// Behaviour counters, summed over shards.
    pub fn stats(&self) -> ShardedCacheStats {
        let mut total = ShardedCacheStats::default();
        for s in &self.shards {
            let st = s.lock().expect("cache shard poisoned").stats;
            total.hits += st.hits;
            total.misses += st.misses;
            total.inserts += st.inserts;
            total.evictions += st.evictions;
            total.rejected += st.rejected;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn hit_miss_and_lru_eviction_per_shard() {
        // One shard so the LRU order is directly observable.
        let cache: ShardedLru<u32, String> = ShardedLru::new(1, 100);
        assert!(cache.get(&1).is_none());
        cache.insert(1, Arc::new("a".into()), 40);
        cache.insert(2, Arc::new("b".into()), 40);
        assert_eq!(cache.bytes(), 80);
        // Touch 1 so 2 becomes LRU, then overflow: 2 must go.
        assert_eq!(cache.get(&1).as_deref().map(String::as_str), Some("a"));
        cache.insert(3, Arc::new("c".into()), 40);
        assert!(cache.get(&1).is_some(), "1 was MRU and must survive");
        assert!(cache.get(&2).is_none(), "2 was LRU and must be evicted");
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.inserts, 3);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn reinsert_replaces_without_double_counting() {
        let cache: ShardedLru<u32, u64> = ShardedLru::new(1, 100);
        cache.insert(7, Arc::new(1), 60);
        cache.insert(7, Arc::new(2), 60);
        assert_eq!(cache.bytes(), 60);
        assert_eq!(cache.entries(), 1);
        assert_eq!(cache.get(&7).as_deref(), Some(&2));
    }

    #[test]
    fn zero_budget_disables_retention_and_oversize_rejects() {
        let off: ShardedLru<u32, u64> = ShardedLru::new(4, 0);
        off.insert(1, Arc::new(9), 8);
        assert!(off.get(&1).is_none());
        assert_eq!(off.entries(), 0);

        let tiny: ShardedLru<u32, u64> = ShardedLru::new(2, 16); // 8 per shard
        tiny.insert(1, Arc::new(9), 64);
        assert!(tiny.get(&1).is_none());
        assert_eq!(tiny.stats().rejected, 1);
    }

    #[test]
    fn peek_neither_counts_nor_reorders() {
        let cache: ShardedLru<u32, u64> = ShardedLru::new(1, 100);
        assert!(cache.peek(&1).is_none());
        cache.insert(1, Arc::new(10), 40);
        cache.insert(2, Arc::new(20), 40);
        assert_eq!(cache.peek(&1).as_deref(), Some(&10));
        assert_eq!(cache.stats().hits + cache.stats().misses, 0);
        // 1 is still LRU despite the peek, so it goes first.
        cache.insert(3, Arc::new(30), 40);
        assert!(cache.peek(&1).is_none());
        assert_eq!(cache.peek(&2).as_deref(), Some(&20));
    }

    #[test]
    fn budget_splits_across_shards() {
        let cache: ShardedLru<u32, u64> = ShardedLru::new(4, 400);
        assert_eq!(cache.shards(), 4);
        assert_eq!(cache.shard_cap_bytes(), 100);
    }

    #[test]
    fn concurrent_probes_share_entries() {
        let cache: ShardedLru<u32, u64> = ShardedLru::new(8, 1 << 16);
        for k in 0..32u32 {
            cache.insert(k, Arc::new(k as u64 * 3), 64);
        }
        thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for k in 0..32u32 {
                        assert_eq!(cache.get(&k).as_deref(), Some(&(k as u64 * 3)));
                    }
                });
            }
        });
        assert_eq!(cache.stats().hits, 4 * 32);
    }
}
