//! Cross-crate property tests on the invariants the simulator's
//! correctness rests on, driven by seeded random cases from the
//! in-tree PRNG (deterministic across runs).

use cachesim::cache::{AccessKind, Cache, CacheConfig};
use cachesim::replacement::ReplacementPolicy;
use knl::tracesim::{TracePlacement, TraceSim};
use knl::MachineConfig;
use knl_hybrid_memory::prelude::*;
use memkind_sim::migrate::{MigrationCost, MigrationSpec, PageScheduler};
use memkind_sim::{Arena, MemkindHeap};
use numamem::system::PAGE_BYTES;
use numamem::{MemPolicy, NumaSystem, NumaTopology};
use simfabric::prng::Rng;
use simfabric::SimTime;

/// The arena never double-allocates: live extents are disjoint,
/// and live + free bytes always equals the span.
#[test]
fn arena_conservation() {
    let mut rng = Rng::seed_from_u64(0x1007_0001);
    for case in 0..64 {
        let len = rng.gen_range(1usize..60);
        let ops: Vec<(u64, bool)> = (0..len)
            .map(|_| (rng.gen_range(0u64..64), rng.gen()))
            .collect();
        let mut arena = Arena::new(0, 256 * PAGE_BYTES);
        let mut live: Vec<u64> = Vec::new();
        for (size_pages, free_instead) in ops {
            if free_instead && !live.is_empty() {
                let addr = live.swap_remove((size_pages as usize) % live.len());
                arena.free(addr);
            } else if let Some(addr) = arena.alloc(size_pages * PAGE_BYTES) {
                assert_eq!(addr % PAGE_BYTES, 0, "case {case}");
                assert!(!live.contains(&addr), "case {case}");
                live.push(addr);
            }
            assert_eq!(
                arena.live_bytes() + arena.free_bytes(),
                256 * PAGE_BYTES,
                "case {case}"
            );
            assert_eq!(arena.live_count(), live.len(), "case {case}");
        }
    }
}

/// NUMA allocation conservation: free pages decrease by exactly the
/// pages allocated, and freeing restores them.
#[test]
fn numa_system_conservation() {
    let mut rng = Rng::seed_from_u64(0x1007_0002);
    for case in 0..64 {
        let len = rng.gen_range(1usize..20);
        let sizes: Vec<u64> = (0..len).map(|_| rng.gen_range(1u64..4096)).collect();
        let mut sys = NumaSystem::new(NumaTopology::knl_flat());
        let total_before = sys.free_on(0).as_u64() + sys.free_on(1).as_u64();
        let mut allocs = Vec::new();
        for (i, kib) in sizes.iter().enumerate() {
            let policy = match i % 3 {
                0 => MemPolicy::Default,
                1 => MemPolicy::Preferred(1),
                _ => MemPolicy::Interleave(vec![0, 1]),
            };
            if let Ok(a) = sys.allocate(ByteSize::kib(*kib), &policy) {
                allocs.push(a);
            }
        }
        let held: u64 = allocs.iter().map(|a| a.pages() * PAGE_BYTES).sum();
        assert_eq!(
            sys.free_on(0).as_u64() + sys.free_on(1).as_u64(),
            total_before - held,
            "case {case}"
        );
        for a in &allocs {
            sys.free(a);
        }
        assert_eq!(
            sys.free_on(0).as_u64() + sys.free_on(1).as_u64(),
            total_before,
            "case {case}"
        );
    }
}

/// Cache inclusion-of-reference: immediately after any access, a
/// probe of the same address hits (for allocate-on-miss configs),
/// and occupancy never exceeds capacity.
#[test]
fn cache_probe_after_access() {
    let mut rng = Rng::seed_from_u64(0x1007_0003);
    for case in 0..64 {
        let len = rng.gen_range(1usize..200);
        let addrs: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..(1 << 20))).collect();
        let policy =
            [ReplacementPolicy::Lru, ReplacementPolicy::PseudoLru][rng.gen_range(0usize..2)];
        let mut cache = Cache::new(CacheConfig {
            capacity: ByteSize::kib(4),
            line_bytes: 64,
            ways: 4,
            replacement: policy,
            write_allocate: true,
        });
        for &a in &addrs {
            cache.access(a, AccessKind::Read);
            assert!(
                cache.probe(a),
                "case {case}: line absent right after access"
            );
            assert!(cache.occupancy() <= 64, "case {case}");
        }
        let s = cache.stats();
        assert_eq!(s.accesses(), addrs.len() as u64, "case {case}");
    }
}

/// The heap's address→node map is consistent with the reported
/// placement fractions.
#[test]
fn heap_node_of_matches_fractions() {
    let mut rng = Rng::seed_from_u64(0x1007_0004);
    for case in 0..64 {
        let len = rng.gen_range(1usize..12);
        let sizes_kib: Vec<u64> = (0..len).map(|_| rng.gen_range(4u64..512)).collect();
        let heap = MemkindHeap::new(NumaTopology::knl_flat());
        for (i, kib) in sizes_kib.iter().enumerate() {
            let kind = [Kind::Default, Kind::Hbw, Kind::Interleave][i % 3];
            let block = heap.malloc(kind, ByteSize::kib(*kib)).unwrap();
            let pages = block.size.pages(PAGE_BYTES).max(1);
            let mut on_hbm = 0u64;
            for p in 0..pages {
                if heap.node_of(block.addr + p * PAGE_BYTES) == Some(1) {
                    on_hbm += 1;
                }
            }
            let frac = on_hbm as f64 / pages as f64;
            assert!(
                (frac - heap.fraction_on(&block, 1)).abs() < 1e-9,
                "case {case}"
            );
        }
    }
}

/// Page-migration tier accounting: under arbitrary seeded access
/// streams, random periods and random budgets, the scheduler never
/// holds more pages resident in MCDRAM than the budget, and every page
/// sits in exactly one tier — the resident count always equals
/// promotions minus demotions, and bytes moved price every crossing.
#[test]
fn migration_occupancy_within_budget() {
    let mut rng = Rng::seed_from_u64(0x1007_0008);
    let cfg = MachineConfig::knl7210(MemSetup::DramOnly, 64);
    let cost = MigrationCost::from_devices(&cfg.ddr, &cfg.mcdram);
    for case in 0..64 {
        let period = rng.gen_range(1u64..64);
        let budget = rng.gen_range(1u32..16);
        let pages = rng.gen_range(1u64..48);
        let len = rng.gen_range(1usize..800);
        let mut s = PageScheduler::new(MigrationSpec::new(period, budget), cost)
            .expect("enabled spec must build");
        let mut mem_ticks = 0u64;
        for i in 0..len {
            let page = rng.gen_range(0u64..pages);
            let memory_level = rng.gen_bool(0.8);
            mem_ticks += u64::from(memory_level);
            s.tick(
                page * memkind_sim::PAGE_BYTES,
                memory_level,
                SimTime::from_ps(i as u64 * 100),
            );
            let stats = s.stats();
            let ctx = format!("case {case} tick {i} (T={period} budget={budget})");
            assert!(s.resident_pages() <= u64::from(budget), "{ctx}");
            assert!(stats.peak_resident_pages <= u64::from(budget), "{ctx}");
            assert_eq!(
                s.resident_pages(),
                stats.promoted_pages - stats.demoted_pages,
                "tier accounting leaked a page: {ctx}"
            );
            assert_eq!(
                stats.bytes_moved,
                (stats.promoted_pages + stats.demoted_pages) * memkind_sim::PAGE_BYTES,
                "{ctx}"
            );
        }
        let stats = s.stats();
        assert_eq!(
            stats.sampled_accesses, mem_ticks,
            "case {case}: sampled accesses lost"
        );
        assert_eq!(
            stats.rebalances,
            len as u64 / period,
            "case {case}: rebalance cadence drifted"
        );
    }
}

/// Degenerate migration specs are exactly the static all-DDR
/// placement: a zero period or zero budget builds no scheduler at all,
/// and a period longer than the whole trace never reaches a rebalance
/// point — all three must replay bit-identically to `AllDdr`.
#[test]
fn migration_degenerates_to_static_placement() {
    let mut rng = Rng::seed_from_u64(0x1007_0009);
    let cfg = MachineConfig::knl7210(MemSetup::DramOnly, 64);
    for case in 0..8 {
        let cores = rng.gen_range(1u32..5);
        let per_core = rng.gen_range(50u64..200);
        let trace =
            workloads::tracegen::hot_cold_trace(cores, 2, per_core, 64 << 10, 1 << 20, rng.gen());
        let mk =
            |placement: TracePlacement| TraceSim::new(&cfg, cores, placement, ByteSize::mib(4));
        let mut base = mk(TracePlacement::AllDdr);
        let expect = base.run(&trace);
        // Period or budget of zero: no scheduler is even built.
        for spec in [MigrationSpec::new(0, 8), MigrationSpec::new(1, 0)] {
            let mut sim = mk(TracePlacement::Migrated(spec));
            assert_eq!(sim.run(&trace), expect, "case {case} {spec:?}");
            assert!(
                sim.migration_stats().is_none(),
                "case {case}: disabled {spec:?} built a scheduler"
            );
            assert_eq!(sim.ddr_stats(), base.ddr_stats(), "case {case} {spec:?}");
        }
        // A period strictly longer than the trace ticks but never
        // rebalances. (A period *equal* to the trace length fires one
        // rebalance on the final tick, so `+ 1` is the exact edge.)
        let spec = MigrationSpec::new(trace.len() as u64 + 1, 8);
        let mut sim = mk(TracePlacement::Migrated(spec));
        assert_eq!(sim.run(&trace), expect, "case {case}: infinite period");
        let stats = sim.migration_stats().expect("scheduler must exist");
        assert_eq!(stats.rebalances, 0, "case {case}");
        assert_eq!(stats.promoted_pages, 0, "case {case}");
        assert_eq!(sim.ddr_stats(), base.ddr_stats(), "case {case}");
        assert_eq!(sim.hbm_stats(), base.hbm_stats(), "case {case}");
    }
}

/// Migration rearranges *where* accesses land, never how many there
/// are: replay under an aggressive scheduler conserves the access
/// count, the memory-access count, and the per-device row totals sum.
#[test]
fn migration_conserves_accesses() {
    let mut rng = Rng::seed_from_u64(0x1007_000A);
    let cfg = MachineConfig::knl7210(MemSetup::DramOnly, 64);
    for case in 0..8 {
        let cores = rng.gen_range(1u32..5);
        let per_core = rng.gen_range(50u64..200);
        let trace =
            workloads::tracegen::hot_cold_trace(cores, 2, per_core, 64 << 10, 1 << 20, rng.gen());
        let period = rng.gen_range(16u64..128);
        let budget = rng.gen_range(1u32..32);
        let mk =
            |placement: TracePlacement| TraceSim::new(&cfg, cores, placement, ByteSize::mib(4));
        let mut base = mk(TracePlacement::AllDdr);
        let expect = base.run(&trace);
        let mut sim = mk(TracePlacement::Migrated(MigrationSpec::new(period, budget)));
        let got = sim.run(&trace);
        let ctx = format!("case {case} (T={period} budget={budget})");
        assert_eq!(got.accesses, expect.accesses, "{ctx}");
        assert_eq!(got.memory_accesses, expect.memory_accesses, "{ctx}");
        let rows = |sim: &TraceSim| sim.ddr_stats().total() + sim.hbm_stats().total();
        assert_eq!(rows(&sim), rows(&base), "device row totals leaked: {ctx}");
        let stats = sim.migration_stats().unwrap();
        assert_eq!(
            stats.sampled_accesses, got.memory_accesses,
            "{ctx}: scheduler must sample each memory access exactly once"
        );
        assert!(
            stats.hbm_routed <= stats.sampled_accesses,
            "{ctx}: routed more accesses than were sampled"
        );
    }
}

/// Machine pricing is deterministic and monotone in bytes.
#[test]
fn stream_pricing_monotone() {
    let mut rng = Rng::seed_from_u64(0x1007_0007);
    for case in 0..64 {
        let gib = rng.gen_range(1u64..12);
        let extra = rng.gen_range(1u64..4);
        let mut m = Machine::knl7210(MemSetup::DramOnly, 64).unwrap();
        let small = m.alloc("s", ByteSize::gib(gib)).unwrap();
        let large = m.alloc("l", ByteSize::gib(gib + extra)).unwrap();
        let t_small = m.price_stream(&[knl::StreamOp::read_all(&small)]);
        let t_large = m.price_stream(&[knl::StreamOp::read_all(&large)]);
        assert!(t_large > t_small, "case {case}");
        // Deterministic.
        assert_eq!(
            t_small,
            m.price_stream(&[knl::StreamOp::read_all(&small)]),
            "case {case}"
        );
    }
}
