//! The direct-mapped, memory-side MCDRAM cache ("cache mode").
//!
//! In cache mode the 16-GB MCDRAM fronts all DDR traffic as a
//! direct-mapped cache with 64-byte lines (§II). Because it is
//! direct-mapped, each DDR line has exactly one possible slot; with
//! 96 GB of DDR behind 16 GB of cache, six DDR lines contend for every
//! slot. This module provides
//!
//! * [`MemorySideCache`] — an exact, line-granularity simulator used by
//!   the trace path and the tests, and
//! * [`DirectMappedModel`] — the analytic hit-ratio model used by the
//!   machine model for paper-scale footprints, calibrated so that the
//!   resulting bandwidth curve reproduces Fig. 2 (≈260 GB/s below half
//!   capacity, 125 GB/s at 11.4 GB, below-DRAM beyond ~24 GB).
//!
//! The analytic streaming model reflects how the OS scatters physical
//! pages: contiguous virtual footprints map quasi-randomly into cache
//! slots, so conflict misses appear smoothly once the footprint exceeds
//! about half the cache rather than as a step at 16 GB.

use simfabric::stats::Counter;
use simfabric::ByteSize;

/// Outcome of a memory-side cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MscOutcome {
    /// Served from MCDRAM.
    Hit,
    /// Missed; served from DDR and filled. If the displaced line was
    /// dirty its address must be written back to DDR first.
    Miss {
        /// Dirty victim line address, if any.
        dirty_victim: Option<u64>,
    },
}

impl MscOutcome {
    /// True on [`MscOutcome::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, MscOutcome::Hit)
    }
}

/// Exact direct-mapped memory-side cache (tag store only).
#[derive(Debug, Clone)]
pub struct MemorySideCache {
    /// Per-slot `tag << 1 | dirty`; `INVALID` marks an empty slot.
    /// A capacity above one byte leaves tags at most 63 bits wide, so
    /// no valid word equals `INVALID`.
    tags: Vec<u64>,
    line_shift: u32,
    slot_shift: u32,
    /// Hits.
    pub hits: Counter,
    /// Misses.
    pub misses: Counter,
    /// Dirty writebacks to DDR.
    pub writebacks: Counter,
}

const INVALID: u64 = u64::MAX;

impl MemorySideCache {
    /// Build a cache of `capacity` with `line_bytes` lines.
    ///
    /// The real device has 2^28 slots; tests use scaled-down capacities,
    /// which is sound because direct-mapped behaviour depends only on
    /// the footprint/capacity ratio.
    pub fn new(capacity: ByteSize, line_bytes: u32) -> Self {
        assert!(line_bytes.is_power_of_two() && line_bytes > 0);
        let slots = capacity.as_u64() / line_bytes as u64;
        assert!(
            slots > 0 && slots.is_power_of_two(),
            "slot count must be a power of two"
        );
        assert!(capacity.as_u64() > 1, "capacity must exceed one byte");
        MemorySideCache {
            tags: vec![INVALID; slots as usize],
            line_shift: line_bytes.trailing_zeros(),
            slot_shift: slots.trailing_zeros(),
            hits: Counter::new(),
            misses: Counter::new(),
            writebacks: Counter::new(),
        }
    }

    /// Number of slots.
    pub fn slots(&self) -> u64 {
        self.tags.len() as u64
    }

    /// Access the line containing `addr`.
    pub fn access(&mut self, addr: u64, is_write: bool) -> MscOutcome {
        let line = addr >> self.line_shift;
        let slot = (line & (self.slots() - 1)) as usize;
        let tag = line >> self.slot_shift;
        let word = &mut self.tags[slot];
        if *word >> 1 == tag {
            self.hits.incr();
            *word |= is_write as u64;
            return MscOutcome::Hit;
        }
        self.misses.incr();
        let dirty_victim = if *word != INVALID && *word & 1 == 1 {
            self.writebacks.incr();
            Some((*word >> 1 << self.slot_shift | slot as u64) << self.line_shift)
        } else {
            None
        };
        *word = tag << 1 | is_write as u64;
        MscOutcome::Miss { dirty_victim }
    }

    /// Overall hit rate.
    pub fn hit_rate(&self) -> f64 {
        self.hits.ratio_of(self.hits.get() + self.misses.get())
    }
}

/// Analytic hit-ratio model for the direct-mapped MCDRAM cache.
///
/// Calibration constants (see module docs for the Fig. 2 fit):
///
/// * streaming footprints at or below `STREAM_SAFE_FRACTION` of
///   capacity always hit after the first pass;
/// * beyond that, the surviving-hit fraction decays exponentially with
///   the excess load factor at rate `STREAM_CONFLICT_RATE` (a Poisson
///   collision argument over quasi-random page placement);
/// * uniform random access hits with probability `capacity/footprint`
///   (each slot is owned by the most recent of its contenders).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirectMappedModel {
    /// Cache capacity.
    pub capacity: ByteSize,
}

/// Fraction of capacity a streaming footprint can occupy before
/// conflict misses appear (page-placement collisions are negligible
/// below half capacity; Fig. 2 peaks at ~8 GB of 16 GB).
pub(crate) const STREAM_SAFE_FRACTION: f64 = 0.5;

/// Decay rate of streaming hit ratio with excess load factor,
/// calibrated to the Fig. 2 points (125 GB/s at 11.4 GB).
pub(crate) const STREAM_CONFLICT_RATE: f64 = 2.1;

impl DirectMappedModel {
    /// Load factor of a footprint (footprint / capacity).
    pub(crate) fn load_factor(&self, footprint: ByteSize) -> f64 {
        footprint.as_u64() as f64 / self.capacity.as_u64() as f64
    }

    /// Steady-state hit ratio for a *streaming* workload that sweeps a
    /// footprint repeatedly (STREAM, DGEMM panels, CG vectors).
    pub fn streaming_hit_ratio(&self, footprint: ByteSize) -> f64 {
        let alpha = self.load_factor(footprint);
        if alpha <= STREAM_SAFE_FRACTION {
            1.0
        } else {
            (-(alpha - STREAM_SAFE_FRACTION) * STREAM_CONFLICT_RATE).exp()
        }
    }

    /// Steady-state hit ratio for *uniform random* access over a
    /// footprint (GUPS table, XSBench grid, Graph500 frontier):
    /// `min(1, capacity/footprint)`.
    pub fn random_hit_ratio(&self, footprint: ByteSize) -> f64 {
        let alpha = self.load_factor(footprint);
        if alpha <= 1.0 {
            1.0
        } else {
            1.0 / alpha
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_cache_hits_after_first_pass_when_fitting() {
        let mut c = MemorySideCache::new(ByteSize::kib(64), 64);
        let lines = 64 * 1024 / 64;
        for pass in 0..3 {
            for i in 0..lines {
                let out = c.access(i * 64, false);
                if pass > 0 {
                    assert!(out.is_hit(), "pass {pass} line {i}");
                }
            }
        }
        assert!(c.hit_rate() > 0.6);
    }

    #[test]
    fn exact_cache_thrashes_on_cyclic_overflow() {
        // Footprint 2× capacity, contiguous: every slot has exactly two
        // contenders and a cyclic sweep always misses (the classic
        // direct-mapped pathologial case).
        let mut c = MemorySideCache::new(ByteSize::kib(64), 64);
        let lines = 2 * 64 * 1024 / 64;
        for _ in 0..3 {
            for i in 0..lines {
                c.access(i * 64, false);
            }
        }
        assert_eq!(c.hits.get(), 0);
    }

    #[test]
    fn exact_cache_dirty_writeback_address() {
        let mut c = MemorySideCache::new(ByteSize::kib(4), 64);
        let cap = 4 * 1024u64;
        c.access(0, true);
        match c.access(cap, false) {
            MscOutcome::Miss { dirty_victim } => assert_eq!(dirty_victim, Some(0)),
            MscOutcome::Hit => panic!("expected conflict miss"),
        }
        assert_eq!(c.writebacks.get(), 1);
        // Clean eviction has no writeback.
        match c.access(2 * cap, false) {
            MscOutcome::Miss { dirty_victim } => assert_eq!(dirty_victim, None),
            MscOutcome::Hit => panic!("expected conflict miss"),
        }
    }

    #[test]
    fn exact_random_hit_rate_matches_analytic() {
        use simfabric::prng::Rng;
        let cap = ByteSize::kib(64);
        let mut c = MemorySideCache::new(cap, 64);
        let model = DirectMappedModel { capacity: cap };
        let footprint = ByteSize::kib(256); // 4x capacity
        let mut rng = Rng::seed_from_u64(1);
        let mut hits = 0u64;
        let n = 200_000u64;
        // Warm up.
        for _ in 0..50_000 {
            let a = rng.gen_range(0..footprint.as_u64()) & !63;
            c.access(a, false);
        }
        for _ in 0..n {
            let a = rng.gen_range(0..footprint.as_u64()) & !63;
            if c.access(a, false).is_hit() {
                hits += 1;
            }
        }
        let measured = hits as f64 / n as f64;
        let predicted = model.random_hit_ratio(footprint);
        assert!(
            (measured - predicted).abs() < 0.03,
            "measured {measured}, predicted {predicted}"
        );
    }

    /// The 16-GB KNL MCDRAM cache.
    fn knl_model() -> DirectMappedModel {
        DirectMappedModel {
            capacity: ByteSize::gib(16),
        }
    }

    #[test]
    fn analytic_streaming_curve_shape() {
        let m = knl_model();
        assert_eq!(m.streaming_hit_ratio(ByteSize::gib(4)), 1.0);
        assert_eq!(m.streaming_hit_ratio(ByteSize::gib(8)), 1.0);
        let h11 = m.streaming_hit_ratio(ByteSize::gib_f(11.4));
        assert!(h11 > 0.55 && h11 < 0.72, "h(11.4GB) = {h11}");
        let h23 = m.streaming_hit_ratio(ByteSize::gib_f(22.8));
        assert!(h23 < 0.2, "h(22.8GB) = {h23}");
        // Monotone decreasing.
        let mut prev = 1.0;
        for g in 1..45 {
            let h = m.streaming_hit_ratio(ByteSize::gib(g));
            assert!(h <= prev + 1e-12);
            prev = h;
        }
    }

    #[test]
    fn analytic_random_curve_shape() {
        let m = knl_model();
        assert_eq!(m.random_hit_ratio(ByteSize::gib(8)), 1.0);
        assert_eq!(m.random_hit_ratio(ByteSize::gib(16)), 1.0);
        assert!((m.random_hit_ratio(ByteSize::gib(32)) - 0.5).abs() < 1e-12);
        assert!((m.random_hit_ratio(ByteSize::gib(64)) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_slot_count_rejected() {
        let _ = MemorySideCache::new(ByteSize::bytes(3 * 64), 64);
    }
}
