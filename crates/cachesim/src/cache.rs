//! Generic set-associative cache model.
//!
//! Tracks tags only (no data): the simulator cares about hit/miss
//! behaviour, dirty evictions and occupancy, not about values. Used for
//! the KNL's 32-KB 8-way L1D and the 1-MB 16-way per-tile L2.

use crate::replacement::{ReplacementPolicy, Replacer};
use simfabric::stats::Counter;
use simfabric::ByteSize;

/// Read or write access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled; `evicted` reports a
    /// victim writeback if the victim was dirty.
    Miss {
        /// Address of a dirty victim line that must be written back,
        /// if any.
        evicted_dirty: Option<u64>,
    },
}

impl AccessOutcome {
    /// True for [`AccessOutcome::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// Static cache configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: ByteSize,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Associativity (ways).
    pub ways: u16,
    /// Replacement policy.
    pub replacement: ReplacementPolicy,
    /// Whether stores allocate on miss (write-allocate) — both KNL L1
    /// and L2 do.
    pub write_allocate: bool,
}

impl CacheConfig {
    /// The KNL per-core 32-KB, 8-way L1 data cache.
    pub(crate) fn knl_l1d() -> Self {
        CacheConfig {
            capacity: ByteSize::kib(32),
            line_bytes: 64,
            ways: 8,
            replacement: ReplacementPolicy::PseudoLru,
            write_allocate: true,
        }
    }

    /// The KNL per-tile 1-MB, 16-way shared L2.
    pub fn knl_l2() -> Self {
        CacheConfig {
            capacity: ByteSize::mib(1),
            line_bytes: 64,
            ways: 16,
            replacement: ReplacementPolicy::PseudoLru,
            write_allocate: true,
        }
    }

    /// Number of sets implied by the configuration.
    pub(crate) fn num_sets(&self) -> u32 {
        (self.capacity.as_u64() / (self.line_bytes as u64 * self.ways as u64)) as u32
    }

    /// Validate the configuration.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !self.line_bytes.is_power_of_two() || self.line_bytes == 0 {
            return Err("line size must be a power of two".into());
        }
        if self.ways == 0 {
            return Err("associativity must be positive".into());
        }
        let denom = self.line_bytes as u64 * self.ways as u64;
        if self.capacity.as_u64() == 0 || !self.capacity.as_u64().is_multiple_of(denom) {
            return Err(format!(
                "capacity {} not divisible by line*ways {denom}",
                self.capacity
            ));
        }
        let sets = self.capacity.as_u64() / denom;
        if !sets.is_power_of_two() {
            return Err(format!("set count {sets} must be a power of two"));
        }
        if self.line_bytes as u64 * sets < 1 << TAG_SHIFT {
            return Err("line size x set count must be at least 4 bytes".into());
        }
        Ok(())
    }
}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Read hits.
    pub read_hits: Counter,
    /// Read misses.
    pub read_misses: Counter,
    /// Write hits.
    pub write_hits: Counter,
    /// Write misses.
    pub write_misses: Counter,
    /// Dirty lines written back on eviction.
    pub writebacks: Counter,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.read_hits.get()
            + self.read_misses.get()
            + self.write_hits.get()
            + self.write_misses.get()
    }

    /// Total misses.
    pub(crate) fn misses(&self) -> u64 {
        self.read_misses.get() + self.write_misses.get()
    }

    /// Overall hit rate (0.0 when no accesses).
    pub fn hit_rate(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            (a - self.misses()) as f64 / a as f64
        }
    }
}

/// One cache way packed into a word: `tag << 2 | dirty << 1 | valid`.
/// The tag is the address above the line offset and set index, which
/// [`CacheConfig::validate`] requires to span at least `TAG_SHIFT`
/// bits, so the shift never loses tag bits.
type Way = u64;

const VALID: Way = 1;
const DIRTY: Way = 2;
const TAG_SHIFT: u32 = 2;

/// A tag-only set-associative cache.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Way>, // num_sets × ways, row-major
    replacer: Replacer,
    stats: CacheStats,
    line_shift: u32,
    set_shift: u32,
    set_mask: u64,
}

impl Cache {
    /// Build a cache; panics on invalid configuration (configurations
    /// are developer input, not user input).
    pub fn new(config: CacheConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("bad cache config: {e}"));
        let num_sets = config.num_sets();
        Cache {
            sets: vec![0; num_sets as usize * config.ways as usize],
            replacer: Replacer::new(config.replacement, num_sets, config.ways),
            stats: CacheStats::default(),
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: num_sets.trailing_zeros(),
            set_mask: (num_sets - 1) as u64,
            config,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    #[inline]
    fn index(&self, addr: u64) -> (u32, u64) {
        let line = addr >> self.line_shift;
        ((line & self.set_mask) as u32, line >> self.set_shift)
    }

    /// The ways of `set`.
    #[inline]
    fn ways_of(&self, set: u32) -> std::ops::Range<usize> {
        let w = self.config.ways as usize;
        let base = set as usize * w;
        base..base + w
    }

    /// Way index within `set` holding a valid `tag`.
    #[inline]
    fn find(&self, set: u32, tag: u64) -> Option<usize> {
        let want = tag << TAG_SHIFT | DIRTY | VALID;
        self.sets[self.ways_of(set)]
            .iter()
            .position(|&w| w | DIRTY == want)
    }

    /// Access the line containing `addr`.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> AccessOutcome {
        let (set, tag) = self.index(addr);
        let ways = self.ways_of(set);
        // One pass over the set finds the hit way or, failing that, the
        // first invalid way (`ways.len()` when the set is full).
        let want = tag << TAG_SHIFT | DIRTY | VALID;
        let mut invalid = ways.len();
        let mut hit = None;
        for (w, &v) in self.sets[ways.clone()].iter().enumerate() {
            if v | DIRTY == want {
                hit = Some(w);
                break;
            }
            if v & VALID == 0 {
                invalid = invalid.min(w);
            }
        }
        if let Some(w) = hit {
            if kind == AccessKind::Write {
                self.sets[ways.start + w] |= DIRTY;
                self.stats.write_hits.incr();
            } else {
                self.stats.read_hits.incr();
            }
            self.replacer.touch(set, w as u16);
            return AccessOutcome::Hit;
        }
        match kind {
            AccessKind::Read => self.stats.read_misses.incr(),
            AccessKind::Write => self.stats.write_misses.incr(),
        }
        if kind == AccessKind::Write && !self.config.write_allocate {
            // Write-around: no fill, no eviction.
            return AccessOutcome::Miss {
                evicted_dirty: None,
            };
        }
        // Prefer an invalid way before victimizing.
        let (victim_way, evicted_dirty) = if invalid < ways.len() {
            (invalid as u16, None)
        } else {
            let w = self.replacer.victim(set);
            let v = self.sets[ways.start + w as usize];
            let evicted = if v & DIRTY != 0 {
                self.stats.writebacks.incr();
                Some(self.reconstruct_addr(set, v >> TAG_SHIFT))
            } else {
                None
            };
            (w, evicted)
        };
        let dirty = if kind == AccessKind::Write { DIRTY } else { 0 };
        self.sets[ways.start + victim_way as usize] = tag << TAG_SHIFT | dirty | VALID;
        self.replacer.touch(set, victim_way);
        AccessOutcome::Miss { evicted_dirty }
    }

    /// True if the line containing `addr` is currently cached (no state
    /// change, no stats).
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        self.find(set, tag).is_some()
    }

    /// Invalidate the line containing `addr`; returns the address if a
    /// dirty line was dropped (caller decides whether to write back).
    pub fn invalidate(&mut self, addr: u64) -> Option<u64> {
        let (set, tag) = self.index(addr);
        let i = self.ways_of(set).start + self.find(set, tag)?;
        let slot = &mut self.sets[i];
        let was_dirty = *slot & DIRTY != 0;
        *slot = 0;
        was_dirty.then(|| self.reconstruct_addr(set, tag))
    }

    /// Number of valid lines currently held.
    pub fn occupancy(&self) -> u64 {
        self.sets.iter().filter(|&&w| w & VALID != 0).count() as u64
    }

    fn reconstruct_addr(&self, set: u32, tag: u64) -> u64 {
        ((tag << self.set_shift) | set as u64) << self.line_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64 B = 512 B.
        Cache::new(CacheConfig {
            capacity: ByteSize::bytes(512),
            line_bytes: 64,
            ways: 2,
            replacement: ReplacementPolicy::Lru,
            write_allocate: true,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x1000, AccessKind::Read).is_hit());
        assert!(c.access(0x1000, AccessKind::Read).is_hit());
        assert!(c.access(0x1004, AccessKind::Read).is_hit()); // same line
        assert!(!c.access(0x1040, AccessKind::Read).is_hit()); // next line
        assert_eq!(c.stats().accesses(), 4);
        assert_eq!(c.stats().misses(), 2);
    }

    #[test]
    fn set_conflict_evicts_lru() {
        let mut c = tiny();
        // Three lines mapping to the same set (stride = sets*line = 256).
        c.access(0x0000, AccessKind::Read);
        c.access(0x0100, AccessKind::Read);
        c.access(0x0000, AccessKind::Read); // touch to make 0x100 LRU
        c.access(0x0200, AccessKind::Read); // evicts 0x100
        assert!(c.probe(0x0000));
        assert!(!c.probe(0x0100));
        assert!(c.probe(0x0200));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0x0000, AccessKind::Write);
        c.access(0x0100, AccessKind::Read);
        let out = c.access(0x0200, AccessKind::Read); // evicts dirty 0x0
        assert_eq!(
            out,
            AccessOutcome::Miss {
                evicted_dirty: Some(0x0000)
            }
        );
        assert_eq!(c.stats().writebacks.get(), 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(0x0000, AccessKind::Read);
        c.access(0x0100, AccessKind::Read);
        let out = c.access(0x0200, AccessKind::Read);
        assert_eq!(
            out,
            AccessOutcome::Miss {
                evicted_dirty: None
            }
        );
    }

    #[test]
    fn write_no_allocate_skips_fill() {
        let mut c = Cache::new(CacheConfig {
            write_allocate: false,
            ..*tiny().config()
        });
        assert!(!c.access(0x0000, AccessKind::Write).is_hit());
        assert!(!c.probe(0x0000));
        // Reads still allocate.
        c.access(0x0000, AccessKind::Read);
        assert!(c.probe(0x0000));
        // A write hit marks dirty.
        c.access(0x0000, AccessKind::Write);
        assert_eq!(c.stats().write_hits.get(), 1);
    }

    #[test]
    fn invalidate_returns_dirty_address() {
        let mut c = tiny();
        c.access(0x1000, AccessKind::Write);
        assert_eq!(c.invalidate(0x1000), Some(0x1000));
        assert!(!c.probe(0x1000));
        c.access(0x2000, AccessKind::Read);
        assert_eq!(c.invalidate(0x2000), None);
        assert_eq!(c.invalidate(0x3000), None); // absent line
    }

    #[test]
    fn occupancy_saturates_at_capacity() {
        let mut c = tiny();
        for i in 0..100 {
            c.access(i * 64, AccessKind::Read);
        }
        assert_eq!(c.occupancy(), 8); // 4 sets × 2 ways
    }

    #[test]
    fn knl_presets_validate() {
        CacheConfig::knl_l1d().validate().unwrap();
        CacheConfig::knl_l2().validate().unwrap();
        assert_eq!(CacheConfig::knl_l1d().num_sets(), 64);
        assert_eq!(CacheConfig::knl_l2().num_sets(), 1024);
    }

    #[test]
    fn working_set_within_capacity_fully_hits_on_second_pass() {
        let mut c = Cache::new(CacheConfig::knl_l1d());
        let lines = 32 * 1024 / 64;
        for i in 0..lines {
            c.access(i * 64, AccessKind::Read);
        }
        let misses_before = c.stats().misses();
        for i in 0..lines {
            c.access(i * 64, AccessKind::Read);
        }
        assert_eq!(c.stats().misses(), misses_before);
    }

    #[test]
    fn reconstructed_writeback_addr_is_line_aligned_and_same_set() {
        let mut c = tiny();
        let addr = 0xABCD40;
        c.access(addr, AccessKind::Write);
        c.access(addr + 0x100, AccessKind::Read);
        if let AccessOutcome::Miss {
            evicted_dirty: Some(wb),
        } = c.access(addr + 0x200, AccessKind::Read)
        {
            assert_eq!(wb, addr & !63);
        } else {
            panic!("expected dirty eviction");
        }
    }
}
