//! Periodic page migration between memory tiers — the Cori scenario.
//!
//! The paper measures *static* placements only; the interesting regime
//! on production hybrid-memory machines (NERSC Cori is the canonical
//! example) is a page scheduler that samples per-page hotness from the
//! access stream and, every `T` accesses, promotes the hottest pages
//! DDR→MCDRAM and demotes cold pages back, under a fixed MCDRAM
//! capacity budget. [`PageScheduler`] is that scheduler, factored so
//! the trace simulator (`knl::tracesim`) can drive it from every
//! replay path and stay bit-identical:
//!
//! * **Sampling** — [`PageScheduler::tick`] is called exactly once per
//!   consumed access, in the replay's merge order, with the access's
//!   pre-stall issue time as `now`. Memory-level accesses bump a
//!   per-page hotness counter.
//! * **Rebalancing** — when the global tick count reaches a multiple
//!   of the period, the scheduler ranks pages by decayed hotness
//!   (resident pages win ties — hysteresis), takes the top
//!   `budget_pages`, and migrates the set difference. Counters then
//!   halve (exponential decay), so stale phases age out in a few
//!   windows.
//! * **Cost model** — every migration batch is charged a per-page
//!   transfer time drawn from the slower device's sustained bandwidth
//!   (a page move reads one device and writes the other, so the slow
//!   side bounds it) plus a fixed per-page remap overhead, plus one
//!   TLB-shootdown constant per batch. Accesses touching a page in
//!   transit are floored to the batch's completion time via
//!   [`PageScheduler::transit_floor`].
//!
//! Everything the scheduler does is a pure function of the tick
//! sequence `(addr, memory_level, now)` — hash-map iteration is always
//! sorted before it can influence an outcome — which is what makes the
//! sequential, streaming, and classified replays bit-identical
//! under active migration ([`MigrationStats::digest`] pins the exact
//! `(tick, page, direction)` move sequence across engines).
//!
//! The scheduler runs on the replay's merge thread once per access, so
//! its maps use the multiplicative page hasher ([`simfabric::PageMap`]) and
//! the top-`budget_pages` pick is a selection, not a sort: the ranking
//! is a strict total order (page number last), so the selected *set*
//! is unique, and only sets reach the outcome — the moves are sorted
//! by page before they are applied or digested.

use memdev::MemDeviceSpec;
use simfabric::stats::Histogram;
use simfabric::{Duration, PageMap, PageSet, SimTime};
use std::cmp::Ordering;

/// Page granularity of the scheduler (KNL small pages).
pub const PAGE_BYTES: u64 = 4096;

/// The page a byte address falls in.
pub(crate) fn page_of(addr: u64) -> u64 {
    addr / PAGE_BYTES
}

/// Configuration of a migrating placement, small enough to ride inside
/// `knl::tracesim::TracePlacement` by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationSpec {
    /// Rebalance every this many replayed accesses; 0 disables the
    /// scheduler entirely (the placement degenerates to all-DDR).
    pub period: u64,
    /// MCDRAM capacity budget, in [`PAGE_BYTES`] pages; 0 disables.
    /// Any page with a nonzero decayed counter qualifies for
    /// promotion; the budget picks the hottest.
    pub budget_pages: u32,
}

impl MigrationSpec {
    /// A spec with the given period and budget.
    pub const fn new(period: u64, budget_pages: u32) -> Self {
        MigrationSpec {
            period,
            budget_pages,
        }
    }

    /// Whether this spec can ever migrate a page. A disabled spec is
    /// exactly the static all-DDR placement, so callers skip building
    /// a scheduler for it.
    pub(crate) fn enabled(&self) -> bool {
        self.period > 0 && self.budget_pages > 0
    }
}

/// What one migration batch costs, derived from device specs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationCost {
    /// Time to move one page: streaming the page through the slower
    /// device plus the per-page remap/bookkeeping overhead.
    pub per_page: Duration,
    /// Fixed cost per batch with at least one move: the TLB shootdown
    /// IPI round and the page-table update fence.
    pub shootdown: Duration,
}

/// Per-page kernel/remap overhead on top of the raw copy (page-table
/// walk, queueing on the migration engine).
const PER_PAGE_OVERHEAD: Duration = Duration::from_ps(100_000); // 100 ns
/// TLB-shootdown cost charged once per non-empty migration batch.
const SHOOTDOWN: Duration = Duration::from_ps(2_000_000); // 2 µs

impl MigrationCost {
    /// Cost model for a DDR↔MCDRAM pair: a page move reads one device
    /// and writes the other, so the slower sustained bandwidth bounds
    /// the copy in either direction.
    pub fn from_devices(a: &MemDeviceSpec, b: &MemDeviceSpec) -> Self {
        let slow = if a.sustained_bw_gbs <= b.sustained_bw_gbs {
            a
        } else {
            b
        };
        MigrationCost {
            per_page: slow.stream_time(PAGE_BYTES) + PER_PAGE_OVERHEAD,
            shootdown: SHOOTDOWN,
        }
    }
}

/// Observability counters for one scheduler's lifetime. Every field is
/// a deterministic function of the tick sequence, so the equivalence
/// suite asserts whole-struct equality across replay engines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Rebalance points reached (period boundaries, moves or not).
    pub rebalances: u64,
    /// Pages promoted DDR→MCDRAM.
    pub promoted_pages: u64,
    /// Pages demoted MCDRAM→DDR.
    pub demoted_pages: u64,
    /// Bytes moved in either direction.
    pub bytes_moved: u64,
    /// Total charged migration time (per-page copies + shootdowns).
    pub migration_time: Duration,
    /// Memory-level accesses observed by the sampler.
    pub sampled_accesses: u64,
    /// Memory-level accesses routed to MCDRAM under the dynamic map.
    pub hbm_routed: u64,
    /// Most pages simultaneously resident in MCDRAM.
    pub peak_resident_pages: u64,
    /// FNV-1a fold of every `(tick, page, direction)` move, in move
    /// order: two engines with equal digests performed identical
    /// remaps at identical trace offsets.
    pub digest: u64,
}

/// The rebalance ranking over `(hotness, resident, page)` candidates:
/// hottest first, resident before non-resident on equal hotness, then
/// ascending page. Strict and total, because pages are distinct.
fn rank(a: &(u32, bool, u64), b: &(u32, bool, u64)) -> Ordering {
    b.0.cmp(&a.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2))
}

fn fnv1a(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The periodic hot-page scheduler. See the module docs for the
/// sampling/decay/cost model and the determinism argument.
#[derive(Debug, Clone)]
pub struct PageScheduler {
    spec: MigrationSpec,
    cost: MigrationCost,
    /// Decayed per-page hotness counters (absent = zero).
    hot: PageMap<u32>,
    /// Pages currently resident in MCDRAM (size ≤ budget).
    resident: PageSet,
    /// Pages still in transit: page → completion floor for accesses.
    transit: PageMap<SimTime>,
    /// Accesses consumed so far.
    ticks: u64,
    /// Ticks left until the next rebalance (counts down from the
    /// period, so no tick pays for a division).
    until_rebalance: u64,
    /// Memory-level accesses in the current sampling window.
    window_mem: u64,
    /// ... of which routed to MCDRAM.
    window_hbm: u64,
    /// Per-window MCDRAM-routed permille, one sample per closed
    /// window: the "hit-rate delta per window" telemetry series.
    window_hist: Histogram,
    stats: MigrationStats,
}

impl PageScheduler {
    /// Build a scheduler; `None` when the spec is disabled (callers
    /// then route statically, paying nothing per access).
    pub fn new(spec: MigrationSpec, cost: MigrationCost) -> Option<Self> {
        spec.enabled().then(|| PageScheduler {
            spec,
            cost,
            hot: PageMap::default(),
            resident: PageSet::default(),
            transit: PageMap::default(),
            ticks: 0,
            until_rebalance: spec.period,
            window_mem: 0,
            window_hbm: 0,
            window_hist: Histogram::new(),
            stats: MigrationStats::default(),
        })
    }

    /// Whether `addr`'s page is currently mapped to MCDRAM. Every page
    /// is in exactly one tier: MCDRAM iff resident, DDR otherwise.
    pub fn is_hbm(&self, addr: u64) -> bool {
        self.resident.contains(&page_of(addr))
    }

    /// Pages currently resident in MCDRAM.
    pub fn resident_pages(&self) -> u64 {
        self.resident.len() as u64
    }

    /// Floor a device arrival time to the in-transit completion of the
    /// access's page, if it is mid-migration.
    pub fn transit_floor(&self, addr: u64, arrive: SimTime) -> SimTime {
        match self.transit.get(&page_of(addr)) {
            Some(&ready) => arrive.max(ready),
            None => arrive,
        }
    }

    /// Consume one access in replay merge order: sample hotness,
    /// rebalance if the period boundary is reached, and account the
    /// routed tier. `now` must be the access's pre-stall issue time
    /// (the consuming core's clock at sequencing time), which every
    /// replay engine computes identically.
    ///
    /// Returns the tier a memory-level access routes to — `true` for
    /// MCDRAM, i.e. [`is_hbm`](Self::is_hbm) after this tick's
    /// rebalance — so the caller needs no second lookup. Accesses that
    /// never reach memory route nowhere and return `false`.
    pub fn tick(&mut self, addr: u64, memory_level: bool, now: SimTime) -> bool {
        self.ticks += 1;
        let page = page_of(addr);
        if memory_level {
            *self.hot.entry(page).or_insert(0) += 1;
        }
        self.until_rebalance -= 1;
        if self.until_rebalance == 0 {
            self.until_rebalance = self.spec.period;
            self.rebalance(now);
        }
        if !memory_level {
            return false;
        }
        self.stats.sampled_accesses += 1;
        self.window_mem += 1;
        let hbm = self.resident.contains(&page);
        if hbm {
            self.stats.hbm_routed += 1;
            self.window_hbm += 1;
        }
        hbm
    }

    /// Promote/demote to the hottest-page target set and charge the
    /// batch. Merge order is non-decreasing in issue time, so pruning
    /// transit entries at or before `now` can never change a later
    /// access's floor.
    fn rebalance(&mut self, now: SimTime) {
        self.stats.rebalances += 1;
        if let Some(permille) = (self.window_hbm * 1000).checked_div(self.window_mem) {
            self.window_hist.record(permille);
        }
        self.window_mem = 0;
        self.window_hbm = 0;
        self.transit.retain(|_, ready| *ready > now);
        let mut cand: Vec<(u32, bool, u64)> = self
            .hot
            .iter()
            .filter(|&(_, &n)| n > 0)
            .map(|(&p, &n)| (n, self.resident.contains(&p), p))
            .collect();
        // Hottest first; resident pages win ties (hysteresis keeps the
        // budget from churning on equal counts); page index last, so
        // the order is total and the top `budget` form a unique set
        // whatever the hash-map iteration order.
        let budget = self.spec.budget_pages as usize;
        if cand.len() > budget {
            cand.select_nth_unstable_by(budget - 1, rank);
            cand.truncate(budget);
        }
        let target: PageSet = cand.iter().map(|&(_, _, p)| p).collect();
        let mut promoted: Vec<u64> = target.difference(&self.resident).copied().collect();
        let mut demoted: Vec<u64> = self.resident.difference(&target).copied().collect();
        promoted.sort_unstable();
        demoted.sort_unstable();
        let moves = (promoted.len() + demoted.len()) as u64;
        if moves > 0 {
            let batch = self.cost.shootdown + self.cost.per_page.times(moves);
            let ready = now + batch;
            self.stats.migration_time += batch;
            self.stats.bytes_moved += moves * PAGE_BYTES;
            self.stats.promoted_pages += promoted.len() as u64;
            self.stats.demoted_pages += demoted.len() as u64;
            for &p in &promoted {
                self.note_move(p, 1, ready);
                self.resident.insert(p);
            }
            for &p in &demoted {
                self.note_move(p, 0, ready);
                self.resident.remove(&p);
            }
        }
        self.stats.peak_resident_pages = self.stats.peak_resident_pages.max(target.len() as u64);
        self.hot.retain(|_, n| {
            *n /= 2;
            *n > 0
        });
    }

    fn note_move(&mut self, page: u64, dir: u64, ready: SimTime) {
        let mut d = fnv1a(self.stats.digest, self.ticks);
        d = fnv1a(d, page);
        self.stats.digest = fnv1a(d, dir);
        let floor = self.transit.entry(page).or_insert(SimTime::ZERO);
        *floor = (*floor).max(ready);
    }

    /// The lifetime counters.
    pub fn stats(&self) -> &MigrationStats {
        &self.stats
    }

    /// Per-window MCDRAM-routed permille of memory-level accesses (one
    /// sample per closed sampling window).
    pub fn window_histogram(&self) -> &Histogram {
        &self.window_hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memdev::{ddr4_knl, mcdram_knl};

    fn cost() -> MigrationCost {
        MigrationCost::from_devices(&ddr4_knl(), &mcdram_knl())
    }

    fn sched(period: u64, budget: u32) -> PageScheduler {
        PageScheduler::new(MigrationSpec::new(period, budget), cost()).expect("enabled spec")
    }

    #[test]
    fn disabled_specs_build_no_scheduler() {
        assert!(PageScheduler::new(MigrationSpec::new(0, 8), cost()).is_none());
        assert!(PageScheduler::new(MigrationSpec::new(100, 0), cost()).is_none());
        assert!(!MigrationSpec::new(0, 8).enabled());
        assert!(MigrationSpec::new(1, 1).enabled());
    }

    #[test]
    fn cost_model_is_bounded_by_the_slow_device() {
        let c = cost();
        let ddr_copy = ddr4_knl().stream_time(PAGE_BYTES);
        assert_eq!(c.per_page, ddr_copy + PER_PAGE_OVERHEAD);
        assert!(c.shootdown > Duration::ZERO);
        // Argument order must not matter.
        assert_eq!(c, MigrationCost::from_devices(&mcdram_knl(), &ddr4_knl()));
    }

    #[test]
    fn hot_pages_promote_and_budget_binds() {
        let mut s = sched(16, 2);
        // Pages 0..4 touched with decreasing frequency within one
        // period: 0 and 1 are hottest.
        for i in 0..16u64 {
            let page = match i % 8 {
                0..=3 => 0,
                4..=5 => 1,
                6 => 2,
                _ => 3,
            };
            s.tick(page * PAGE_BYTES, true, SimTime::from_ps(i * 1000));
        }
        assert_eq!(s.stats().rebalances, 1);
        assert_eq!(s.resident_pages(), 2);
        assert!(s.is_hbm(0) && s.is_hbm(PAGE_BYTES));
        assert!(!s.is_hbm(2 * PAGE_BYTES) && !s.is_hbm(3 * PAGE_BYTES));
        assert_eq!(s.stats().promoted_pages, 2);
        assert_eq!(s.stats().bytes_moved, 2 * PAGE_BYTES);
        assert!(s.stats().migration_time > Duration::ZERO);
    }

    #[test]
    fn transit_floor_applies_then_expires() {
        let mut s = sched(4, 1);
        for i in 0..4u64 {
            s.tick(0, true, SimTime::from_ps(i));
        }
        assert!(s.is_hbm(0));
        let ready = SimTime::from_ps(3) + s.cost.shootdown + s.cost.per_page;
        assert_eq!(s.transit_floor(0, SimTime::from_ps(10)), ready);
        // Other pages are unaffected.
        assert_eq!(
            s.transit_floor(PAGE_BYTES, SimTime::from_ps(10)),
            SimTime::from_ps(10)
        );
        // An arrival after the transfer is not floored.
        let late = ready + Duration::from_ps(1);
        assert_eq!(s.transit_floor(0, late), late);
        // The next rebalance (at a later now) prunes the entry.
        for i in 0..4u64 {
            s.tick(0, true, late + Duration::from_ps(i));
        }
        assert!(s.transit.is_empty());
    }

    #[test]
    fn phase_change_demotes_stale_pages() {
        let mut s = sched(8, 1);
        let t = |i: u64| SimTime::from_ps(i * 1_000_000_000);
        for i in 0..8u64 {
            s.tick(0, true, t(i));
        }
        assert!(s.is_hbm(0));
        // The hot page moves; decay ages page 0 out within two windows.
        for i in 8..24u64 {
            s.tick(PAGE_BYTES, true, t(i));
        }
        assert!(!s.is_hbm(0) && s.is_hbm(PAGE_BYTES));
        assert!(s.stats().demoted_pages >= 1);
        // Budget 1 was never exceeded.
        assert_eq!(s.stats().peak_resident_pages, 1);
    }

    #[test]
    fn digest_tracks_move_sequence() {
        let run = |n: u64| {
            let mut s = sched(4, 2);
            // Distinct pages per tick: every window promotes fresh pages and
            // demotes the previous window's, so each rebalance moves pages.
            for i in 0..n {
                s.tick(i * PAGE_BYTES, true, SimTime::from_ps(i));
            }
            s.stats().clone()
        };
        assert_eq!(run(12), run(12), "same ticks, same stats");
        assert_ne!(run(12).digest, run(8).digest);
        assert_eq!(MigrationStats::default().digest, 0);
    }

    #[test]
    fn non_memory_ticks_advance_the_period_but_not_hotness() {
        let mut s = sched(4, 4);
        for i in 0..8u64 {
            s.tick(0, false, SimTime::from_ps(i));
        }
        assert_eq!(s.stats().rebalances, 2);
        assert_eq!(s.stats().sampled_accesses, 0);
        assert_eq!(s.resident_pages(), 0, "nothing sampled, nothing promoted");
    }
}
