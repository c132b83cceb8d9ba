//! TLB and page-walk model.
//!
//! Fig. 3 of the paper shows random-read latency climbing with block
//! size well past the cache sizes; the driver is TLB misses and page
//! walks. KNL has a 64-entry L1 DTLB and a 256-entry L2 TLB for 4-KB
//! pages (8 entries for 2-MB pages at L1). This module models a
//! two-level TLB exactly and provides the analytic miss-rate helper the
//! latency model uses at paper scale.

use simfabric::stats::Counter;
use simfabric::{ByteSize, Duration};

/// Supported page sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageSize {
    /// 4-KB base pages.
    Small,
    /// 2-MB huge pages.
    Huge,
}

impl PageSize {
    /// Bytes per page.
    pub(crate) fn bytes(self) -> u64 {
        match self {
            PageSize::Small => 4 * 1024,
            PageSize::Huge => 2 * 1024 * 1024,
        }
    }
}

/// TLB configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TlbConfig {
    /// Page size translated by this TLB.
    pub page_size: PageSize,
    /// L1 TLB entries (fully associative LRU in the model).
    pub l1_entries: usize,
    /// L2 TLB entries (0 disables the second level).
    pub l2_entries: usize,
    /// Latency of an L2 TLB hit.
    pub l2_hit_latency: Duration,
    /// Latency of a full page walk (multi-level table walk through the
    /// cache hierarchy; ~25–40 ns on KNL for 4-KB pages).
    pub walk_latency: Duration,
}

impl TlbConfig {
    /// KNL DTLB for 4-KB pages: 64-entry L1, 256-entry L2.
    pub fn knl_4k() -> Self {
        TlbConfig {
            page_size: PageSize::Small,
            l1_entries: 64,
            l2_entries: 256,
            l2_hit_latency: Duration::from_ns(7.0),
            walk_latency: Duration::from_ns(35.0),
        }
    }

    /// KNL DTLB for 2-MB pages: 8-entry L1, 128-entry L2, cheaper walk
    /// (one less level).
    pub fn knl_2m() -> Self {
        TlbConfig {
            page_size: PageSize::Huge,
            l1_entries: 8,
            l2_entries: 128,
            l2_hit_latency: Duration::from_ns(7.0),
            walk_latency: Duration::from_ns(25.0),
        }
    }

    /// Analytic expected translation overhead per access for *uniform
    /// random* accesses over `footprint`, as added latency.
    ///
    /// With `p` pages touched uniformly and `e` entries, the hit
    /// probability of an LRU TLB is ≈ `min(1, e/p)`; misses that hit L2
    /// pay `l2_hit_latency`, the rest pay the full walk.
    pub fn random_access_overhead(&self, footprint: ByteSize) -> Duration {
        let pages = footprint.pages(self.page_size.bytes()).max(1) as f64;
        let l1_hit = (self.l1_entries as f64 / pages).min(1.0);
        let l2_hit = ((self.l1_entries + self.l2_entries) as f64 / pages).min(1.0) - l1_hit;
        let walk = 1.0 - l1_hit - l2_hit;
        self.l2_hit_latency.scale(l2_hit) + self.walk_latency.scale(walk)
    }
}

/// Exact two-level, fully associative LRU TLB.
///
/// Both levels live in one fixed slab of `l1_entries + l2_entries`
/// nodes threaded onto two intrusive recency lists (head = MRU), and a
/// fixed open-addressed `SlotIndex` finds a page's node, so a
/// translation costs O(1) whatever the TLB size. A hit on the MRU page
/// short-circuits before the index lookup.
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    page_shift: u32,
    /// Page at the head of the L1 list (`u64::MAX` while L1 is empty).
    mru_page: u64,
    index: SlotIndex,
    nodes: Vec<Node>,
    lists: [List; 2],
    /// L1 hits.
    pub l1_hits: Counter,
    /// L2 hits (L1 misses).
    pub l2_hits: Counter,
    /// Full page walks.
    pub walks: Counter,
}

const NIL: u32 = u32::MAX;
const L1: u8 = 0;
const L2: u8 = 1;

/// One TLB entry in the slab, linked into the list of its level.
#[derive(Debug, Clone, Copy)]
struct Node {
    page: u64,
    prev: u32,
    next: u32,
    level: u8,
}

/// An intrusive doubly linked recency list over the slab.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
    len: usize,
}

/// Where a translation was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbOutcome {
    /// L1 TLB hit: free.
    L1Hit,
    /// L2 TLB hit: small penalty.
    L2Hit,
    /// Full page walk.
    Walk,
}

impl TlbOutcome {
    /// Latency contributed by this outcome under `config`.
    pub(crate) fn latency(self, config: &TlbConfig) -> Duration {
        match self {
            TlbOutcome::L1Hit => Duration::ZERO,
            TlbOutcome::L2Hit => config.l2_hit_latency,
            TlbOutcome::Walk => config.walk_latency,
        }
    }
}

impl Tlb {
    /// Build a TLB from `config`.
    pub fn new(config: TlbConfig) -> Self {
        assert!(config.l1_entries > 0, "L1 TLB needs entries");
        let capacity = config.l1_entries + config.l2_entries;
        assert!(capacity < NIL as usize, "TLB too large for u32 slots");
        let empty = List {
            head: NIL,
            tail: NIL,
            len: 0,
        };
        Tlb {
            config,
            page_shift: config.page_size.bytes().trailing_zeros(),
            mru_page: u64::MAX,
            index: SlotIndex::new(capacity),
            nodes: Vec::with_capacity(capacity),
            lists: [empty; 2],
            l1_hits: Counter::new(),
            l2_hits: Counter::new(),
            walks: Counter::new(),
        }
    }

    /// Translate the page containing `addr`.
    pub fn translate(&mut self, addr: u64) -> TlbOutcome {
        let page = addr >> self.page_shift;
        if page == self.mru_page {
            self.l1_hits.incr();
            return TlbOutcome::L1Hit;
        }
        let (outcome, slot) = match self.index.find(&self.nodes, page) {
            Some(slot) if self.nodes[slot as usize].level == L1 => {
                self.unlink(slot);
                self.push_front(L1, slot);
                self.mru_page = page;
                self.l1_hits.incr();
                return TlbOutcome::L1Hit;
            }
            Some(slot) => {
                self.unlink(slot);
                self.l2_hits.incr();
                (TlbOutcome::L2Hit, Some(slot))
            }
            None => {
                self.walks.incr();
                (TlbOutcome::Walk, None)
            }
        };
        // Fill L1; the displaced L1 entry falls to L2, whose own LRU
        // entry leaves the TLB. A walk reuses the slot that left.
        let mut freed = None;
        if self.lists[L1 as usize].len == self.config.l1_entries {
            let victim = self.lists[L1 as usize].tail;
            self.unlink(victim);
            if self.config.l2_entries == 0 {
                freed = Some(victim);
            } else {
                if self.lists[L2 as usize].len == self.config.l2_entries {
                    let dropped = self.lists[L2 as usize].tail;
                    self.unlink(dropped);
                    freed = Some(dropped);
                }
                self.push_front(L2, victim);
            }
        }
        let slot = slot.unwrap_or_else(|| {
            let slot = match freed {
                Some(slot) => {
                    self.index.remove(&self.nodes, slot);
                    self.nodes[slot as usize].page = page;
                    slot
                }
                None => {
                    self.nodes.push(Node {
                        page,
                        prev: NIL,
                        next: NIL,
                        level: L1,
                    });
                    (self.nodes.len() - 1) as u32
                }
            };
            self.index.insert(page, slot);
            slot
        });
        self.push_front(L1, slot);
        self.mru_page = page;
        outcome
    }

    /// Detach `slot` from the list it is on.
    fn unlink(&mut self, slot: u32) {
        let Node {
            prev, next, level, ..
        } = self.nodes[slot as usize];
        let list = &mut self.lists[level as usize];
        match prev {
            NIL => list.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => list.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
        list.len -= 1;
    }

    /// Link `slot` in as the MRU entry of `level`.
    fn push_front(&mut self, level: u8, slot: u32) {
        let list = &mut self.lists[level as usize];
        let old_head = list.head;
        list.head = slot;
        if old_head == NIL {
            list.tail = slot;
        } else {
            self.nodes[old_head as usize].prev = slot;
        }
        list.len += 1;
        let node = &mut self.nodes[slot as usize];
        node.prev = NIL;
        node.next = old_head;
        node.level = level;
    }

    /// Total translations performed.
    pub fn translations(&self) -> u64 {
        self.l1_hits.get() + self.l2_hits.get() + self.walks.get()
    }
}

/// Page → slab-slot index: a fixed open-addressed table of `u32` slots
/// (`NIL` when empty) with a multiplicative hash, linear probing and
/// backward-shift deletion. It stores no keys: a probe compares the
/// page through the slab node the slot names. Sized at four times the
/// TLB's capacity, rounded up to a power of two, the table is at most
/// a quarter full, so probe runs stay short and always end on an
/// empty slot.
#[derive(Debug, Clone)]
struct SlotIndex {
    table: Vec<u32>,
    /// `64 - log2(table.len())`: the multiplicative hash keeps the top
    /// bits of the product.
    shift: u32,
}

impl SlotIndex {
    fn new(capacity: usize) -> Self {
        let len = (4 * capacity).next_power_of_two();
        SlotIndex {
            table: vec![NIL; len],
            shift: 64 - len.trailing_zeros(),
        }
    }

    /// Home position of `page`.
    #[inline]
    fn home(&self, page: u64) -> usize {
        (page.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    #[inline]
    fn mask(&self) -> usize {
        self.table.len() - 1
    }

    /// The slot holding `page`, if any.
    #[inline]
    fn find(&self, nodes: &[Node], page: u64) -> Option<u32> {
        let mut i = self.home(page);
        loop {
            match self.table[i] {
                NIL => return None,
                slot if nodes[slot as usize].page == page => return Some(slot),
                _ => i = (i + 1) & self.mask(),
            }
        }
    }

    /// Index `slot` under `page`, which must be absent.
    fn insert(&mut self, page: u64, slot: u32) {
        let mut i = self.home(page);
        while self.table[i] != NIL {
            i = (i + 1) & self.mask();
        }
        self.table[i] = slot;
    }

    /// Drop `slot`, indexed under `nodes[slot].page`. Each later entry
    /// of the probe run shifts back into the hole unless that would
    /// move it before its home, so no run ever has a gap.
    fn remove(&mut self, nodes: &[Node], slot: u32) {
        let mask = self.mask();
        let mut hole = self.home(nodes[slot as usize].page);
        while self.table[hole] != slot {
            hole = (hole + 1) & mask;
        }
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let s = self.table[i];
            if s == NIL {
                break;
            }
            // Distances, cyclically, from `s`'s home and from the hole
            // to `i`: it may fill the hole when its home is no later.
            let from_home = i.wrapping_sub(self.home(nodes[s as usize].page)) & mask;
            if from_home >= i.wrapping_sub(hole) & mask {
                self.table[hole] = s;
                hole = i;
            }
        }
        self.table[hole] = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_l1_coverage_everything_hits() {
        let mut tlb = Tlb::new(TlbConfig::knl_4k());
        let pages = 64u64;
        for _ in 0..3 {
            for p in 0..pages {
                tlb.translate(p * 4096);
            }
        }
        // First pass walks; later passes hit L1.
        assert_eq!(tlb.walks.get(), 64);
        assert_eq!(tlb.l1_hits.get(), 128);
    }

    #[test]
    fn l2_catches_l1_overflow() {
        let mut tlb = Tlb::new(TlbConfig::knl_4k());
        let pages = 200u64; // > 64 L1 entries, < 320 total
        for p in 0..pages {
            tlb.translate(p * 4096);
        }
        let walks_first = tlb.walks.get();
        for p in 0..pages {
            tlb.translate(p * 4096);
        }
        assert_eq!(tlb.walks.get(), walks_first, "second pass should not walk");
        assert!(tlb.l2_hits.get() > 0);
    }

    #[test]
    fn beyond_total_coverage_walks_again() {
        let cfg = TlbConfig {
            l1_entries: 4,
            l2_entries: 4,
            ..TlbConfig::knl_4k()
        };
        let mut tlb = Tlb::new(cfg);
        for _ in 0..3 {
            for p in 0..100u64 {
                tlb.translate(p * 4096);
            }
        }
        // Cyclic sweep over 100 pages through 8 entries: all walks.
        assert_eq!(tlb.walks.get(), 300);
    }

    #[test]
    fn analytic_overhead_grows_with_footprint() {
        let cfg = TlbConfig::knl_4k();
        let small = cfg.random_access_overhead(ByteSize::kib(128));
        let mid = cfg.random_access_overhead(ByteSize::mib(1));
        let large = cfg.random_access_overhead(ByteSize::gib(1));
        assert_eq!(small, Duration::ZERO);
        assert!(mid > small);
        assert!(large > mid);
        // At 1 GiB nearly every access walks.
        assert!((large.as_ns() - cfg.walk_latency.as_ns()).abs() < 1.0);
    }

    #[test]
    fn outcome_latencies() {
        let cfg = TlbConfig::knl_4k();
        assert_eq!(TlbOutcome::L1Hit.latency(&cfg), Duration::ZERO);
        assert_eq!(TlbOutcome::L2Hit.latency(&cfg), cfg.l2_hit_latency);
        assert_eq!(TlbOutcome::Walk.latency(&cfg), cfg.walk_latency);
    }

    #[test]
    fn exact_random_miss_rate_tracks_analytic() {
        use simfabric::prng::Rng;
        let cfg = TlbConfig {
            l1_entries: 16,
            l2_entries: 16,
            ..TlbConfig::knl_4k()
        };
        let mut tlb = Tlb::new(cfg);
        let mut rng = Rng::seed_from_u64(3);
        let pages = 128u64;
        for _ in 0..20_000 {
            tlb.translate(rng.gen_range(0..pages) * 4096);
        }
        let walk_rate = tlb.walks.get() as f64 / tlb.translations() as f64;
        // Analytic: 1 - 32/128 = 0.75 (LRU under uniform random ≈ cap).
        assert!(
            (walk_rate - 0.75).abs() < 0.05,
            "walk rate {walk_rate} vs analytic 0.75"
        );
    }
}
