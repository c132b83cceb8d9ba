//! Reference-model test: the page scheduler against a naive scheduler
//! built on SipHash-keyed std collections, a full sort and a modulo
//! period check, on seeded random tick streams from the in-tree PRNG.

use memdev::{ddr4_knl, mcdram_knl};
use memkind_sim::{MigrationCost, MigrationSpec, MigrationStats, PageScheduler, PAGE_BYTES};
use simfabric::prng::Rng;
use simfabric::stats::Histogram;
use simfabric::{Duration, SimTime};
use std::collections::{HashMap, HashSet};

fn fnv1a(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The scheduler as first written: sample, rebalance when
/// `ticks % period == 0` by fully sorting the candidates, then route
/// with a separate residency lookup.
struct RefScheduler {
    spec: MigrationSpec,
    cost: MigrationCost,
    hot: HashMap<u64, u32>,
    resident: HashSet<u64>,
    transit: HashMap<u64, SimTime>,
    ticks: u64,
    window_mem: u64,
    window_hbm: u64,
    window_hist: Histogram,
    stats: MigrationStats,
    /// Rebalances whose budget cut fell between equally ranked pages
    /// by hotness, i.e. where the tie-break decided membership.
    tied_cuts: u64,
}

impl RefScheduler {
    fn new(spec: MigrationSpec, cost: MigrationCost) -> Self {
        RefScheduler {
            spec,
            cost,
            hot: HashMap::new(),
            resident: HashSet::new(),
            transit: HashMap::new(),
            ticks: 0,
            window_mem: 0,
            window_hbm: 0,
            window_hist: Histogram::new(),
            stats: MigrationStats::default(),
            tied_cuts: 0,
        }
    }

    fn is_hbm(&self, addr: u64) -> bool {
        self.resident.contains(&(addr / PAGE_BYTES))
    }

    fn transit_floor(&self, addr: u64, arrive: SimTime) -> SimTime {
        match self.transit.get(&(addr / PAGE_BYTES)) {
            Some(&ready) => arrive.max(ready),
            None => arrive,
        }
    }

    fn tick(&mut self, addr: u64, memory_level: bool, now: SimTime) {
        self.ticks += 1;
        if memory_level {
            *self.hot.entry(addr / PAGE_BYTES).or_insert(0) += 1;
        }
        if self.ticks.is_multiple_of(self.spec.period) {
            self.rebalance(now);
        }
        if memory_level {
            self.stats.sampled_accesses += 1;
            self.window_mem += 1;
            if self.is_hbm(addr) {
                self.stats.hbm_routed += 1;
                self.window_hbm += 1;
            }
        }
    }

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
        cand.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)));
        let budget = self.spec.budget_pages as usize;
        if cand.len() > budget && cand[budget - 1].0 == cand[budget].0 {
            self.tied_cuts += 1;
        }
        cand.truncate(budget);
        let target: HashSet<u64> = cand.iter().map(|&(_, _, p)| p).collect();
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
}

/// The page scheduler reproduces the naive reference exactly: the
/// routed tier of every tick, every transit floor, the resident count,
/// the whole `MigrationStats` (move digest included) and the window
/// histogram. Periods 1, 7 and 1024 and budgets 1 and 256 run over
/// page pools from a handful to several times the budget, so hotness
/// ties at the budget cut are common; the test
/// asserts that such cuts occurred.
#[test]
fn page_scheduler_matches_reference() {
    let mut rng = Rng::seed_from_u64(0x3a6e_0007);
    let cost = MigrationCost::from_devices(&ddr4_knl(), &mcdram_knl());
    let mut tied_cuts = 0;
    for period in [1u64, 7, 1024] {
        for budget in [1u32, 256] {
            for case in 0..3 {
                let spec = MigrationSpec::new(period, budget);
                let mut sched = PageScheduler::new(spec, cost).expect("enabled spec");
                let mut reference = RefScheduler::new(spec, cost);
                let pages = match case {
                    0 => 4,
                    1 => u64::from(budget) + 3,
                    _ => 4 * u64::from(budget) + 16,
                };
                let mut now = SimTime::ZERO;
                for i in 0..12_000u64 {
                    let ctx = format!("T={period} budget={budget} case {case} tick {i}");
                    // A high base puts page numbers above 32 bits.
                    let page = (1 << 40) + rng.gen_range(0..pages);
                    let addr = page * PAGE_BYTES + rng.gen_range(0..PAGE_BYTES);
                    let memory_level = rng.gen_bool(0.8);
                    now += Duration::from_ps(rng.gen_range(0..40_000));
                    let routed = sched.tick(addr, memory_level, now);
                    reference.tick(addr, memory_level, now);
                    assert_eq!(routed, memory_level && reference.is_hbm(addr), "{ctx}");
                    assert_eq!(sched.is_hbm(addr), reference.is_hbm(addr), "{ctx}");
                    let arrive = now + Duration::from_ps(rng.gen_range(0..3_000_000));
                    assert_eq!(
                        sched.transit_floor(addr, arrive),
                        reference.transit_floor(addr, arrive),
                        "{ctx}"
                    );
                    assert_eq!(
                        sched.resident_pages(),
                        reference.resident.len() as u64,
                        "{ctx}"
                    );
                }
                let ctx = format!("T={period} budget={budget} case {case}");
                assert_eq!(sched.stats(), &reference.stats, "{ctx}");
                assert_eq!(sched.window_histogram(), &reference.window_hist, "{ctx}");
                assert!(reference.stats.rebalances > 0, "{ctx}");
                tied_cuts += reference.tied_cuts;
            }
        }
    }
    assert!(
        tied_cuts > 100,
        "only {tied_cuts} rebalances cut through a tie"
    );
}
