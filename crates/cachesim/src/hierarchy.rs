//! Composition of the per-core hierarchy for trace replay:
//! L1 → L2 → memory.
//!
//! The hierarchy charges each access the latency of the level that
//! serves it, plus TLB overhead, and reports which level hit so the
//! trace simulator can attribute time. It models a single core's view
//! of its private caches only: the memory-side MCDRAM cache of cache
//! mode sits below L2 and is probed by the `knl` crate's trace
//! simulator on L2 misses, which also layers on mesh and DRAM-bank
//! effects.

use crate::cache::{AccessKind, Cache, CacheConfig};
use crate::tlb::{Tlb, TlbConfig};
use simfabric::Duration;

/// Which level served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LevelHit {
    /// Per-core L1.
    L1,
    /// Per-tile L2.
    L2,
    /// Memory-side MCDRAM cache (cache mode only). [`Hierarchy`]
    /// never reports it: the cache sits below L2, and its owner turns
    /// an L2 miss into this level on a tag hit.
    McdramCache,
    /// Backing memory (DDR, or MCDRAM in flat mode).
    Memory,
}

/// Configuration of a single-core hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyConfig {
    /// L1 configuration.
    pub l1: CacheConfig,
    /// L2 configuration.
    pub l2: CacheConfig,
    /// L1 hit latency.
    pub l1_latency: Duration,
    /// L2 hit latency (includes tag directory lookup on the tile).
    pub l2_latency: Duration,
    /// Memory latency (device idle latency; the caller picks DDR or
    /// MCDRAM flat).
    pub memory_latency: Duration,
    /// TLB configuration.
    pub tlb: TlbConfig,
}

impl HierarchyConfig {
    /// KNL single-core hierarchy in **flat** mode over a memory with
    /// `memory_latency` idle latency.
    pub fn knl_flat(memory_latency: Duration) -> Self {
        HierarchyConfig {
            l1: CacheConfig::knl_l1d(),
            l2: CacheConfig::knl_l2(),
            // ~4 cycles at 1.3 GHz ≈ 3 ns; L2 ≈ 20 cycles ≈ 15 ns.
            l1_latency: Duration::from_ns(3.0),
            l2_latency: Duration::from_ns(15.0),
            memory_latency,
            tlb: TlbConfig::knl_4k(),
        }
    }
}

/// The per-core hierarchy simulator.
pub struct Hierarchy {
    config: HierarchyConfig,
    l1: Cache,
    l2: Cache,
    tlb: Tlb,
    hits: [u64; 4],
}

impl Hierarchy {
    /// Build a hierarchy from `config`.
    pub fn new(config: HierarchyConfig) -> Self {
        Hierarchy {
            l1: Cache::new(config.l1),
            l2: Cache::new(config.l2),
            tlb: Tlb::new(config.tlb),
            hits: [0; 4],
            config,
        }
    }

    /// Access `addr`; returns `(serving level, total latency)`.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> (LevelHit, Duration) {
        let tlb_overhead = self.tlb.translate(addr).latency(&self.config.tlb);
        let (level, lat) = if self.l1.access(addr, kind).is_hit() {
            (LevelHit::L1, self.config.l1_latency)
        } else if self.l2.access(addr, kind).is_hit() {
            (
                LevelHit::L2,
                self.config.l1_latency + self.config.l2_latency,
            )
        } else {
            (
                LevelHit::Memory,
                self.config.l1_latency + self.config.l2_latency + self.config.memory_latency,
            )
        };
        self.hits[level_index(level)] += 1;
        (level, lat + tlb_overhead)
    }

    /// Count of accesses served by `level`.
    pub fn hits_at(&self, level: LevelHit) -> u64 {
        self.hits[level_index(level)]
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits.iter().sum()
    }

    /// The L1 cache (for stats).
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// The L2 cache (for stats).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// The TLB (for stats).
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }
}

fn level_index(level: LevelHit) -> usize {
    match level {
        LevelHit::L1 => 0,
        LevelHit::L2 => 1,
        LevelHit::McdramCache => 2,
        LevelHit::Memory => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat() -> Hierarchy {
        Hierarchy::new(HierarchyConfig::knl_flat(Duration::from_ns(130.4)))
    }

    #[test]
    fn first_touch_goes_to_memory_then_l1() {
        let mut h = flat();
        let (lvl, lat) = h.access(0x10000, AccessKind::Read);
        assert_eq!(lvl, LevelHit::Memory);
        // L1 + L2 + memory + page walk.
        assert!((lat.as_ns() - (3.0 + 15.0 + 130.4 + 35.0)).abs() < 1e-9);
        let (lvl, lat) = h.access(0x10000, AccessKind::Read);
        assert_eq!(lvl, LevelHit::L1);
        assert_eq!(lat.as_ns(), 3.0);
    }

    #[test]
    fn l2_serves_what_l1_evicts() {
        let mut h = flat();
        // Touch 64 KiB (2x L1) then re-touch the start: L1 missed but
        // L2 (1 MiB) holds it.
        for i in 0..1024u64 {
            h.access(i * 64, AccessKind::Read);
        }
        let (lvl, _) = h.access(0, AccessKind::Read);
        assert_eq!(lvl, LevelHit::L2);
    }

    #[test]
    fn accesses_are_attributed() {
        let mut h = flat();
        for i in 0..100u64 {
            h.access(i * 64, AccessKind::Read);
            h.access(i * 64, AccessKind::Read);
        }
        assert_eq!(h.accesses(), 200);
        assert_eq!(h.hits_at(LevelHit::L1), 100);
        assert_eq!(h.hits_at(LevelHit::Memory), 100);
        assert_eq!(h.hits_at(LevelHit::McdramCache), 0);
    }
}
