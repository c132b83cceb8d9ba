//! Property tests validating the fast cache structures against naive
//! reference implementations, on seeded random traces from the
//! in-tree PRNG.

use cachesim::cache::{AccessKind, AccessOutcome, Cache, CacheConfig};
use cachesim::mcdram_cache::{MemorySideCache, MscOutcome};
use cachesim::mshr::{Mshr, MshrOutcome};
use cachesim::replacement::ReplacementPolicy;
use cachesim::tlb::{Tlb, TlbConfig, TlbOutcome};
use simfabric::prng::Rng;
use simfabric::stats::Histogram;
use simfabric::{ByteSize, Duration, SimTime};
use std::collections::VecDeque;

/// Naive LRU cache: vectors of (set, recency list of (tag, dirty)).
struct RefLru {
    sets: Vec<Vec<(u64, bool)>>, // MRU at the front
    ways: usize,
    line: u64,
    num_sets: u64,
}

impl RefLru {
    fn new(num_sets: u64, ways: usize, line: u64) -> Self {
        RefLru {
            sets: vec![Vec::new(); num_sets as usize],
            ways,
            line,
            num_sets,
        }
    }

    /// The outcome a write-allocate LRU cache reports.
    fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        let lineno = addr / self.line;
        let set = lineno % self.num_sets;
        let tag = lineno / self.num_sets;
        let list = &mut self.sets[set as usize];
        if let Some(pos) = list.iter().position(|&(t, _)| t == tag) {
            let (_, dirty) = list.remove(pos);
            list.insert(0, (tag, dirty || write));
            return AccessOutcome::Hit;
        }
        let mut evicted_dirty = None;
        if list.len() == self.ways {
            let (victim, dirty) = list.pop().expect("full set");
            if dirty {
                evicted_dirty = Some((victim * self.num_sets + set) * self.line);
            }
        }
        list.insert(0, (tag, write));
        AccessOutcome::Miss { evicted_dirty }
    }
}

fn random_addrs(rng: &mut Rng, bound: u64, max_len: usize) -> Vec<u64> {
    let len = rng.gen_range(1..max_len);
    (0..len).map(|_| rng.gen_range(0..bound)).collect()
}

/// The production LRU cache produces the exact outcome sequence of the
/// naive reference on arbitrary read/write traces: hits, misses and
/// the address of every dirty victim.
#[test]
fn lru_cache_matches_reference() {
    let mut rng = Rng::seed_from_u64(0xcac4_0001);
    for case in 0..64 {
        let addrs = random_addrs(&mut rng, 1 << 16, 500);
        let writes: Vec<bool> = addrs.iter().map(|_| rng.gen_bool(0.3)).collect();
        let mut cache = Cache::new(CacheConfig {
            capacity: ByteSize::bytes(4096), // 16 sets x 4 ways x 64 B
            line_bytes: 64,
            ways: 4,
            replacement: ReplacementPolicy::Lru,
            write_allocate: true,
        });
        let mut reference = RefLru::new(16, 4, 64);
        for (&a, &w) in addrs.iter().zip(&writes) {
            let kind = if w {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let got = cache.access(a, kind);
            let want = reference.access(a, w);
            assert_eq!(got, want, "case {case}: divergence at address {a:#x}");
        }
    }
}

/// Naive tree-PLRU cache: per set, `ways` optional `(tag, dirty)`
/// entries and one word of tree bits, updated by walking the tree a
/// level at a time. A fill takes the first invalid way, else the way
/// the bits point at.
struct RefPlru {
    sets: Vec<Vec<Option<(u64, bool)>>>,
    bits: Vec<u64>,
    ways: u16,
    line: u64,
    num_sets: u64,
}

impl RefPlru {
    fn new(num_sets: u64, ways: u16, line: u64) -> Self {
        RefPlru {
            sets: vec![vec![None; ways as usize]; num_sets as usize],
            bits: vec![0; num_sets as usize],
            ways,
            line,
            num_sets,
        }
    }

    /// Point every node on `way`'s path away from it; bit set means
    /// "next victim is on the left".
    fn touch(&mut self, set: usize, way: u16) {
        let bits = &mut self.bits[set];
        let (mut node, mut lo, mut hi) = (0usize, 0u16, self.ways);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let go_right = way >= mid;
            if go_right {
                *bits |= 1 << node;
                lo = mid;
            } else {
                *bits &= !(1 << node);
                hi = mid;
            }
            node = 2 * node + if go_right { 2 } else { 1 };
        }
    }

    fn victim(&self, set: usize) -> u16 {
        let bits = self.bits[set];
        let (mut node, mut lo, mut hi) = (0usize, 0u16, self.ways);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let go_left = (bits >> node) & 1 == 1;
            if go_left {
                hi = mid;
            } else {
                lo = mid;
            }
            node = 2 * node + if go_left { 1 } else { 2 };
        }
        lo
    }

    fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        let lineno = addr / self.line;
        let set = (lineno % self.num_sets) as usize;
        let tag = lineno / self.num_sets;
        let ways = &mut self.sets[set];
        if let Some(w) = ways
            .iter()
            .position(|e| matches!(e, Some((t, _)) if *t == tag))
        {
            let entry = ways[w].as_mut().expect("hit way is valid");
            entry.1 |= write;
            self.touch(set, w as u16);
            return AccessOutcome::Hit;
        }
        let (way, evicted_dirty) = match ways.iter().position(Option::is_none) {
            Some(w) => (w as u16, None),
            None => {
                let w = self.victim(set);
                let (victim, dirty) = self.sets[set][w as usize].expect("full set");
                let addr = (victim * self.num_sets + set as u64) * self.line;
                (w, dirty.then_some(addr))
            }
        };
        self.sets[set][way as usize] = Some((tag, write));
        self.touch(set, way);
        AccessOutcome::Miss { evicted_dirty }
    }

    /// Drop the line holding `addr`; its address if it was dirty.
    fn invalidate(&mut self, addr: u64) -> Option<u64> {
        let lineno = addr / self.line;
        let set = (lineno % self.num_sets) as usize;
        let tag = lineno / self.num_sets;
        let entry = self.sets[set]
            .iter_mut()
            .find(|e| matches!(e, Some((t, _)) if *t == tag))?;
        let (_, dirty) = entry.take().expect("matched a valid way");
        dirty.then_some(lineno * self.line)
    }
}

/// The production tree-PLRU cache (what both KNL L1 and L2 use)
/// produces the exact outcome sequence of the level-by-level reference
/// walk, dirty-victim addresses included, at every power-of-two
/// associativity from 2 to 64, over address ranges of 1 to 8 times the
/// capacity with 30 % writes. One operation in fifty invalidates a
/// burst of lines of one set instead, so later fills land in several
/// holes at once and must take the first invalid way.
#[test]
fn plru_cache_matches_reference() {
    let mut rng = Rng::seed_from_u64(0xcac4_0006);
    for ways in [2u16, 4, 8, 16, 32, 64] {
        for num_sets in [1u64, 4, 16] {
            let capacity = num_sets * ways as u64 * 64;
            for span in [1u64, 2, 4, 8] {
                let mut cache = Cache::new(CacheConfig {
                    capacity: ByteSize::bytes(capacity),
                    line_bytes: 64,
                    ways,
                    replacement: ReplacementPolicy::PseudoLru,
                    write_allocate: true,
                });
                let mut reference = RefPlru::new(num_sets, ways, 64);
                for i in 0..4_000 {
                    let a = rng.gen_range(0..span * capacity);
                    if rng.gen_bool(0.02) {
                        // Lines `set_span` apart share a set.
                        let set_span = num_sets * 64;
                        for _ in 0..ways {
                            let b = a % set_span + rng.gen_range(0..span * ways as u64) * set_span;
                            assert_eq!(
                                cache.invalidate(b),
                                reference.invalidate(b),
                                "{ways} ways x {num_sets} sets: invalidation at {i} of {b:#x}"
                            );
                        }
                        continue;
                    }
                    let w = rng.gen_bool(0.3);
                    let kind = if w {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    assert_eq!(
                        cache.access(a, kind),
                        reference.access(a, w),
                        "{ways} ways x {num_sets} sets over {span}x capacity: access {i} to {a:#x}"
                    );
                }
            }
        }
    }
}

/// The direct-mapped memory-side cache matches a trivial tag-array
/// reference on read/write traces, dirty-victim addresses included.
#[test]
fn msc_matches_reference() {
    let mut rng = Rng::seed_from_u64(0xcac4_0002);
    for case in 0..64 {
        let addrs = random_addrs(&mut rng, 1 << 20, 500);
        let slots = 64u64;
        let mut msc = MemorySideCache::new(ByteSize::bytes(slots * 64), 64);
        let mut tags: Vec<Option<(u64, bool)>> = vec![None; slots as usize];
        for &a in &addrs {
            let write = rng.gen_bool(0.3);
            let line = a / 64;
            let slot = (line % slots) as usize;
            let tag = line / slots;
            let want = match tags[slot] {
                Some((t, dirty)) if t == tag => {
                    tags[slot] = Some((t, dirty || write));
                    MscOutcome::Hit
                }
                old => {
                    tags[slot] = Some((tag, write));
                    MscOutcome::Miss {
                        dirty_victim: old
                            .filter(|&(_, dirty)| dirty)
                            .map(|(t, _)| (t * slots + slot as u64) * 64),
                    }
                }
            };
            assert_eq!(msc.access(a, write), want, "case {case} at {a:#x}");
        }
    }
}

/// TLB conservation: every translation is exactly one of L1 hit,
/// L2 hit, or walk; and a repeat translation immediately after is
/// always an L1 hit.
#[test]
fn tlb_accounting_and_mru() {
    let mut rng = Rng::seed_from_u64(0xcac4_0003);
    for case in 0..64 {
        let addrs = random_addrs(&mut rng, 1u64 << 32, 300);
        let mut tlb = Tlb::new(TlbConfig::knl_4k());
        for &a in &addrs {
            tlb.translate(a);
            let again = tlb.translate(a);
            assert_eq!(again, TlbOutcome::L1Hit, "case {case}");
        }
        assert_eq!(
            tlb.translations(),
            tlb.l1_hits.get() + tlb.l2_hits.get() + tlb.walks.get(),
            "case {case}"
        );
        assert_eq!(tlb.translations(), 2 * addrs.len() as u64, "case {case}");
    }
}

/// Cache occupancy is monotone under fresh lines and capped by
/// capacity, regardless of policy.
#[test]
fn occupancy_caps() {
    let mut rng = Rng::seed_from_u64(0xcac4_0004);
    for case in 0..64 {
        let policy =
            [ReplacementPolicy::Lru, ReplacementPolicy::PseudoLru][rng.gen_range(0usize..2)];
        let n = rng.gen_range(1u64..300);
        let mut cache = Cache::new(CacheConfig {
            capacity: ByteSize::bytes(8192),
            line_bytes: 64,
            ways: 8,
            replacement: policy,
            write_allocate: true,
        });
        for i in 0..n {
            cache.access(i * 64, AccessKind::Read);
            assert!(cache.occupancy() <= 128, "case {case}");
            assert_eq!(
                cache.occupancy(),
                n.min(i + 1).min(128),
                "case {case} ({policy:?})"
            );
        }
    }
}

/// Naive two-level LRU TLB: linear scans over recency queues (front =
/// MRU), the model the slab-and-map TLB must reproduce exactly.
struct RefTlb {
    l1_entries: usize,
    l2_entries: usize,
    l1: VecDeque<u64>,
    l2: VecDeque<u64>,
}

impl RefTlb {
    fn new(l1_entries: usize, l2_entries: usize) -> Self {
        RefTlb {
            l1_entries,
            l2_entries,
            l1: VecDeque::new(),
            l2: VecDeque::new(),
        }
    }

    fn translate(&mut self, page: u64) -> TlbOutcome {
        if let Some(pos) = self.l1.iter().position(|&p| p == page) {
            self.l1.remove(pos);
            self.l1.push_front(page);
            return TlbOutcome::L1Hit;
        }
        let outcome = if let Some(pos) = self.l2.iter().position(|&p| p == page) {
            self.l2.remove(pos);
            TlbOutcome::L2Hit
        } else {
            TlbOutcome::Walk
        };
        if self.l1.len() == self.l1_entries {
            let victim = self.l1.pop_back().expect("L1 full");
            if self.l2_entries > 0 {
                if self.l2.len() == self.l2_entries {
                    self.l2.pop_back();
                }
                self.l2.push_front(victim);
            }
        }
        self.l1.push_front(page);
        outcome
    }
}

/// The TLB reproduces the naive two-level LRU outcome by outcome, for
/// geometries from the KNL 4-KB DTLB down to a lone L1 entry, over
/// page counts below, at and beyond total capacity. Traces mix
/// uniform pages, immediate repeats (the MRU path) and short
/// sequential runs.
///
/// A second pass per geometry draws half its pages from a pool that
/// shares home positions in the TLB's page index (the last two
/// positions of the table and the first), so probe runs wrap around
/// the table end, and evictions from those runs exercise the
/// backward-shift deletion; the other half are uniform pages that
/// keep the TLB evicting.
#[test]
fn tlb_matches_reference() {
    let mut rng = Rng::seed_from_u64(0xcac4_0005);
    for (l1, l2) in [(64, 256), (8, 128), (4, 4), (2, 1), (1, 0)] {
        let cap = (l1 + l2) as u64;
        let cfg = TlbConfig {
            l1_entries: l1,
            l2_entries: l2,
            ..TlbConfig::knl_4k()
        };
        for pages in [1, cap / 2 + 1, cap, cap + 1, 2 * cap, 8 * cap] {
            let mut tlb = Tlb::new(cfg);
            let mut reference = RefTlb::new(l1, l2);
            let mut page = 0u64;
            for i in 0..4_000 {
                page = match rng.gen_range(0u32..4) {
                    0 => page,
                    1 => (page + 1) % pages,
                    _ => rng.gen_range(0..pages),
                };
                let offset = rng.gen_range(0..4096);
                let got = tlb.translate(page * 4096 + offset);
                let want = reference.translate(page);
                assert_eq!(
                    got, want,
                    "({l1},{l2}) over {pages} pages: access {i} to page {page}"
                );
            }
            assert_eq!(tlb.translations(), 4_000);
        }

        // The index has `(4 * cap).next_power_of_two()` positions and
        // homes a page at the top bits of `page * 0x9e37_79b9_7f4a_7c15`.
        let len = (4 * cap).next_power_of_two();
        let home = |p: u64| p.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - len.trailing_zeros());
        let per_home = (cap as usize).clamp(3, 8);
        let mut pool = Vec::new();
        for target in [len - 1, len - 2, 0] {
            pool.extend((8 * cap..).filter(|&p| home(p) == target).take(per_home));
        }
        let mut tlb = Tlb::new(cfg);
        let mut reference = RefTlb::new(l1, l2);
        for i in 0..8_000 {
            let page = if rng.gen_bool(0.5) {
                pool[rng.gen_range(0..pool.len())]
            } else {
                rng.gen_range(0..8 * cap)
            };
            assert_eq!(
                tlb.translate(page * 4096),
                reference.translate(page),
                "({l1},{l2}) colliding pool: access {i} to page {page}"
            );
        }
    }
}

/// 4 sets x 2 ways x 64 B, LRU.
fn tiny_cache() -> Cache {
    Cache::new(CacheConfig {
        capacity: ByteSize::bytes(512),
        line_bytes: 64,
        ways: 2,
        replacement: ReplacementPolicy::Lru,
        write_allocate: true,
    })
}

/// A dirty victim's address is rebuilt from the packed tag, set and
/// line offset — exactly, even when the tag takes every address bit
/// above the set index.
#[test]
fn dirty_victim_address_survives_widest_tag() {
    for (mut cache, set_stride) in [
        (tiny_cache(), 4 * 64),
        (Cache::new(CacheConfig::knl_l2()), 1024 * 64),
    ] {
        let top = !63u64;
        cache.access(top, AccessKind::Write);
        let ways = cache.config().ways as u64;
        let mut evicted = Vec::new();
        for k in 1..=ways {
            if let AccessOutcome::Miss {
                evicted_dirty: Some(a),
            } = cache.access(top - k * set_stride, AccessKind::Read)
            {
                evicted.push(a);
            }
        }
        assert_eq!(evicted, vec![top]);
    }
}

/// A write hit on a clean line marks it dirty, and a later read hit
/// does not clean it: its eviction writes back.
#[test]
fn write_hit_sets_dirty() {
    let mut c = tiny_cache();
    c.access(0x0000, AccessKind::Read);
    assert!(c.access(0x0000, AccessKind::Write).is_hit());
    assert!(c.access(0x0000, AccessKind::Read).is_hit());
    c.access(0x0100, AccessKind::Read);
    assert_eq!(
        c.access(0x0200, AccessKind::Read),
        AccessOutcome::Miss {
            evicted_dirty: Some(0x0000)
        }
    );
    assert_eq!(c.stats().writebacks.get(), 1);
}

/// `invalidate` drops the line (so `probe` misses), clears its dirty
/// bit, and leaves the other way of the set untouched.
#[test]
fn invalidate_then_probe() {
    let mut c = tiny_cache();
    c.access(0x0000, AccessKind::Write);
    c.access(0x0100, AccessKind::Write);
    assert_eq!(c.invalidate(0x0000), Some(0x0000));
    assert!(!c.probe(0x0000));
    assert!(c.probe(0x0100));
    assert_eq!(c.invalidate(0x0000), None);
    assert_eq!(c.occupancy(), 1);
    // The refill is clean: the freed way takes it without an eviction,
    // and dropping it again reports no writeback.
    assert_eq!(
        c.access(0x0000, AccessKind::Read),
        AccessOutcome::Miss {
            evicted_dirty: None
        }
    );
    assert!(c.probe(0x0100));
    assert_eq!(c.invalidate(0x0000), None);
}

/// Memory-side-cache writebacks rebuild high addresses exactly, and a
/// write hit on a clean slot makes its eviction write back.
#[test]
fn msc_writeback_addresses_at_high_addresses() {
    let slots = 64u64;
    let cap = slots * 64;
    let mut msc = MemorySideCache::new(ByteSize::bytes(cap), 64);
    for addr in [!63u64, (1 << 48) + 7 * 64, (1 << 40) - 64] {
        msc.access(addr, true);
        assert_eq!(
            msc.access(addr - cap, false),
            MscOutcome::Miss {
                dirty_victim: Some(addr & !63)
            },
            "{addr:#x}"
        );
        assert!(msc.access(addr - cap, true).is_hit());
        assert_eq!(
            msc.access(addr, false),
            MscOutcome::Miss {
                dirty_victim: Some(addr - cap)
            },
            "{addr:#x}"
        );
    }
}

/// Naive MSHR file: insertion-ordered entries, retired with `retain`,
/// looked up with `find` and a separate minimum scan — the model the
/// completion-ordered file must reproduce exactly.
struct RefMshr {
    capacity: usize,
    inflight: Vec<(u64, SimTime)>,
    allocations: u64,
    merges: u64,
    stalls: u64,
    occupancy: Histogram,
}

impl RefMshr {
    fn new(capacity: usize) -> Self {
        RefMshr {
            capacity,
            inflight: Vec::new(),
            allocations: 0,
            merges: 0,
            stalls: 0,
            occupancy: Histogram::new(),
        }
    }

    fn retire(&mut self, now: SimTime) {
        self.inflight.retain(|&(_, done)| done > now);
    }

    fn register(&mut self, line: u64, now: SimTime) -> MshrOutcome {
        self.retire(now);
        self.occupancy.record(self.inflight.len() as u64);
        if let Some(&(_, ready_at)) = self.inflight.iter().find(|&&(l, _)| l == line) {
            self.merges += 1;
            return MshrOutcome::Merged { ready_at };
        }
        if self.inflight.len() >= self.capacity {
            self.stalls += 1;
            let free_at = self.inflight.iter().map(|&(_, d)| d).min().unwrap();
            return MshrOutcome::Stall { free_at };
        }
        self.allocations += 1;
        self.inflight.push((line, SimTime::from_ps(u64::MAX)));
        MshrOutcome::Allocated
    }

    fn complete_at(&mut self, line: u64, done: SimTime) {
        self.inflight.iter_mut().find(|e| e.0 == line).unwrap().1 = done;
    }

    fn probe_occupancy(&self, now: SimTime) -> usize {
        self.inflight.iter().filter(|&&(_, d)| d > now).count()
    }
}

/// The MSHR file reproduces the naive reference outcome by outcome —
/// allocations, merges and stalls with their times — plus all three
/// counters, the occupancy histogram and `probe_occupancy`. Lines come
/// from small pools (duplicates merge), latencies from a short list
/// (equal completion times tie for the earliest free slot), clocks
/// sometimes stand still or step back, and some probes see an entry
/// whose completion is not yet set. Capacity 25 is the per-core cap
/// `knl::calib::STREAM_MLP_PER_CORE_CAP`.
///
/// A second pass keeps several placeholders outstanding at once and
/// sets their completions in random order from the same short list,
/// so completions tie and land out of allocation order, and it calls
/// `occupancy` and `retire` between registers, so the retired prefix
/// of the ordered file is drained many times in each case.
#[test]
fn mshr_matches_reference() {
    let mut rng = Rng::seed_from_u64(0x5a5a_0003);
    for capacity in [1usize, 2, 12, 25] {
        for case in 0..24 {
            let lines = rng.gen_range(1..3 * capacity as u64 + 2);
            let mut mshr = Mshr::new(capacity);
            mshr.enable_occupancy_histogram();
            let mut reference = RefMshr::new(capacity);
            let mut now = SimTime::ZERO;
            for step in 0..2_000 {
                let ctx = format!("capacity {capacity} case {case} step {step}");
                match rng.gen_range(0..10u32) {
                    0 => {}
                    1 => now = SimTime::from_ps(now.as_ps().saturating_sub(40_000)),
                    _ => now += Duration::from_ps(rng.gen_range(0..30_000)),
                }
                let line = rng.gen_range(0..lines) * 64;
                let mut issue = now;
                loop {
                    let got = mshr.register(line, issue);
                    assert_eq!(got, reference.register(line, issue), "{ctx}");
                    match got {
                        MshrOutcome::Stall { free_at } => issue = free_at,
                        MshrOutcome::Merged { .. } => break,
                        MshrOutcome::Allocated => {
                            if rng.gen_bool(0.1) {
                                // The placeholder completion counts as
                                // in flight until the real one is set.
                                assert_eq!(
                                    mshr.probe_occupancy(issue),
                                    reference.probe_occupancy(issue),
                                    "{ctx}"
                                );
                            }
                            let latency = [0u64, 50_000, 50_000, 100_000, 130_000];
                            let done =
                                issue + Duration::from_ps(latency[rng.gen_range(0..latency.len())]);
                            mshr.complete_at(line, done);
                            reference.complete_at(line, done);
                            break;
                        }
                    }
                }
                let probe = SimTime::from_ps(now.as_ps() + rng.gen_range(0..150_000));
                assert_eq!(
                    mshr.probe_occupancy(probe),
                    reference.probe_occupancy(probe),
                    "{ctx}"
                );
            }
            let ctx = format!("capacity {capacity} case {case}");
            assert_eq!(mshr.allocations.get(), reference.allocations, "{ctx}");
            assert_eq!(mshr.merges.get(), reference.merges, "{ctx}");
            assert_eq!(mshr.stalls.get(), reference.stalls, "{ctx}");
            assert_eq!(
                mshr.occupancy_histogram(),
                Some(reference.occupancy.clone()),
                "{ctx}"
            );
            reference.retire(now);
            assert_eq!(mshr.occupancy(now), reference.inflight.len(), "{ctx}");
        }
    }

    let mut rng = Rng::seed_from_u64(0x5a5a_0004);
    for capacity in [1usize, 2, 12, 25] {
        for case in 0..24 {
            let lines = rng.gen_range(1..3 * capacity as u64 + 2);
            let max_pending = rng.gen_range(1..capacity.min(6) + 1);
            let mut mshr = Mshr::new(capacity);
            mshr.enable_occupancy_histogram();
            let mut reference = RefMshr::new(capacity);
            let mut now = SimTime::ZERO;
            // Allocated lines whose completion is not yet set.
            let mut pending: Vec<u64> = Vec::new();
            for step in 0..2_000 {
                let ctx = format!("pending: capacity {capacity} case {case} step {step}");
                match rng.gen_range(0..10u32) {
                    0 => {}
                    1 => now = SimTime::from_ps(now.as_ps().saturating_sub(40_000)),
                    _ => now += Duration::from_ps(rng.gen_range(0..30_000)),
                }
                match rng.gen_range(0..6u32) {
                    0 => {
                        reference.retire(now);
                        assert_eq!(mshr.occupancy(now), reference.inflight.len(), "{ctx}");
                    }
                    1 => {
                        mshr.retire(now);
                        reference.retire(now);
                    }
                    _ => {}
                }
                if !pending.is_empty() && (pending.len() >= max_pending || rng.gen_bool(0.4)) {
                    let line = pending.swap_remove(rng.gen_range(0..pending.len()));
                    let latency = [0u64, 50_000, 50_000, 100_000, 130_000];
                    let done = now + Duration::from_ps(latency[rng.gen_range(0..latency.len())]);
                    mshr.complete_at(line, done);
                    reference.complete_at(line, done);
                } else {
                    // A stall is not retried here: its `free_at` may be
                    // a placeholder's, which only a completion moves.
                    let line = rng.gen_range(0..lines) * 64;
                    let got = mshr.register(line, now);
                    assert_eq!(got, reference.register(line, now), "{ctx}");
                    if got == MshrOutcome::Allocated {
                        pending.push(line);
                    }
                }
                let probe = SimTime::from_ps(now.as_ps() + rng.gen_range(0..150_000));
                assert_eq!(
                    mshr.probe_occupancy(probe),
                    reference.probe_occupancy(probe),
                    "{ctx}"
                );
            }
            let ctx = format!("pending: capacity {capacity} case {case}");
            assert_eq!(mshr.allocations.get(), reference.allocations, "{ctx}");
            assert_eq!(mshr.merges.get(), reference.merges, "{ctx}");
            assert_eq!(mshr.stalls.get(), reference.stalls, "{ctx}");
            assert_eq!(
                mshr.occupancy_histogram(),
                Some(reference.occupancy.clone()),
                "{ctx}"
            );
            reference.retire(now);
            assert_eq!(mshr.occupancy(now), reference.inflight.len(), "{ctx}");
        }
    }
}
