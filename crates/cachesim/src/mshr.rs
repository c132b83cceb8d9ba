//! Miss-status holding registers (MSHRs).
//!
//! MSHRs bound how many distinct line misses a core can have in flight;
//! secondary misses to a line already being fetched merge into the
//! existing entry. The MSHR count is the per-core half of the
//! "maximum concurrent requests supported by the hardware" that §IV-B
//! of the paper identifies as the bandwidth bottleneck for regular
//! access, and it is what additional hardware threads multiply.

use simfabric::stats::{Counter, Histogram};
use simfabric::SimTime;

/// Result of registering a miss with the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated; the fetch should be issued.
    Allocated,
    /// The line is already being fetched; this miss merged into the
    /// existing entry and completes when the primary does.
    Merged {
        /// Completion time of the in-flight fetch.
        ready_at: SimTime,
    },
    /// All MSHRs are busy; the request must stall until one frees.
    Stall {
        /// Earliest time an entry frees up.
        free_at: SimTime,
    },
}

/// A fixed-size MSHR file tracking in-flight line fetches.
///
/// The file is tiny (a real core has on the order of a dozen entries),
/// and `register` sits on the trace replay's per-access hot path, so
/// entries live in a flat pre-allocated vector scanned linearly —
/// no tree walks and no allocation after construction. Lines are
/// unique in the file and every query is a lookup by line, a count or
/// a minimum, so entry order never reaches an outcome: retiring swaps
/// the last entry into the hole, and one scan per `register` retires,
/// looks for a merge and finds the earliest completion together.
#[derive(Debug, Clone)]
pub struct Mshr {
    capacity: usize,
    // (line address, completion time) of each outstanding fetch; lines
    // are unique, order is arbitrary.
    inflight: Vec<(u64, SimTime)>,
    /// Primary misses that allocated an entry.
    pub allocations: Counter,
    /// Secondary misses merged into an existing entry.
    pub merges: Counter,
    /// Requests that found the file full.
    pub stalls: Counter,
    /// Telemetry: occupancy observed at each `register` call, after
    /// retiring completed fetches. `None` (the default) keeps the hot
    /// path at a single branch; boxed so the disabled file stays
    /// pointer-sized.
    occupancy: Option<Box<Histogram>>,
}

impl Mshr {
    /// Create an MSHR file with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file needs at least one entry");
        Mshr {
            capacity,
            inflight: Vec::with_capacity(capacity),
            allocations: Counter::new(),
            merges: Counter::new(),
            stalls: Counter::new(),
            occupancy: None,
        }
    }

    /// Start recording an occupancy histogram: every subsequent
    /// [`register`](Self::register) samples the in-flight entry count
    /// (after retiring completed fetches). Purely observational — the
    /// outcome of every `register` call is unchanged.
    pub fn enable_occupancy_histogram(&mut self) {
        if self.occupancy.is_none() {
            self.occupancy = Some(Box::new(Histogram::new()));
        }
    }

    /// The occupancy histogram, if telemetry was enabled.
    pub fn occupancy_histogram(&self) -> Option<&Histogram> {
        self.occupancy.as_deref()
    }

    /// Entries currently in flight (after retiring everything complete
    /// at `now`).
    pub fn occupancy(&mut self, now: SimTime) -> usize {
        self.retire(now);
        self.inflight.len()
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drop entries whose fetches completed at or before `now`.
    pub fn retire(&mut self, now: SimTime) {
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].1 <= now {
                self.inflight.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Occupancy a [`register`](Self::register) at `now` would observe,
    /// **without** retiring anything: entries still in flight past
    /// `now`. A placeholder (`u64::MAX`, an allocation whose completion
    /// is not yet set) counts as in flight.
    ///
    /// The time-series sampler reads the in-flight gauge through this
    /// probe, always at a merge-order boundary clock — lazily
    /// retired entries have `done <= now` there and never count, so
    /// the probed value is identical no matter which replay engine (or
    /// worker count) reached the boundary.
    pub fn probe_occupancy(&self, now: SimTime) -> usize {
        self.inflight
            .iter()
            .filter(|&&(_, done)| done > now)
            .count()
    }

    /// Register a miss for `line_addr` at time `now`. If an entry is
    /// allocated, the caller must then call [`Mshr::complete_at`] with
    /// the fetch completion time.
    pub fn register(&mut self, line_addr: u64, now: SimTime) -> MshrOutcome {
        // One scan: retire completed fetches, and among the survivors
        // find this line's entry and the earliest completion.
        let mut merge = None;
        let mut free_at = SimTime::from_ps(u64::MAX);
        let mut i = 0;
        while i < self.inflight.len() {
            let (line, done) = self.inflight[i];
            if done <= now {
                self.inflight.swap_remove(i);
                continue;
            }
            if line == line_addr {
                merge = Some(done);
            }
            free_at = free_at.min(done);
            i += 1;
        }
        if let Some(h) = &mut self.occupancy {
            h.record(self.inflight.len() as u64);
        }
        if let Some(ready_at) = merge {
            self.merges.incr();
            return MshrOutcome::Merged { ready_at };
        }
        if self.inflight.len() >= self.capacity {
            self.stalls.incr();
            return MshrOutcome::Stall { free_at };
        }
        self.allocations.incr();
        // Placeholder completion; the caller sets the real one.
        self.inflight.push((line_addr, SimTime::from_ps(u64::MAX)));
        MshrOutcome::Allocated
    }

    /// Record the completion time of the fetch for `line_addr`
    /// (must follow an `Allocated` outcome). The search starts at the
    /// tail, where `register` just pushed the entry.
    pub fn complete_at(&mut self, line_addr: u64, done: SimTime) {
        let entry = self
            .inflight
            .iter_mut()
            .rev()
            .find(|&&mut (l, _)| l == line_addr)
            .expect("complete_at without allocation");
        entry.1 = done;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simfabric::Duration;

    #[test]
    fn allocate_then_merge() {
        let mut m = Mshr::new(4);
        let t0 = SimTime::ZERO;
        assert_eq!(m.register(0x40, t0), MshrOutcome::Allocated);
        let done = t0 + Duration::from_ns(100.0);
        m.complete_at(0x40, done);
        match m.register(0x40, t0) {
            MshrOutcome::Merged { ready_at } => assert_eq!(ready_at, done),
            other => panic!("expected merge, got {other:?}"),
        }
        assert_eq!(m.allocations.get(), 1);
        assert_eq!(m.merges.get(), 1);
    }

    #[test]
    fn full_file_stalls_until_earliest_completion() {
        let mut m = Mshr::new(2);
        let t0 = SimTime::ZERO;
        m.register(0x40, t0);
        m.complete_at(0x40, t0 + Duration::from_ns(50.0));
        m.register(0x80, t0);
        m.complete_at(0x80, t0 + Duration::from_ns(150.0));
        match m.register(0xC0, t0) {
            MshrOutcome::Stall { free_at } => {
                assert_eq!(free_at.as_ns(), 50.0);
            }
            other => panic!("expected stall, got {other:?}"),
        }
        assert_eq!(m.stalls.get(), 1);
    }

    #[test]
    fn retire_frees_entries() {
        let mut m = Mshr::new(1);
        let t0 = SimTime::ZERO;
        m.register(0x40, t0);
        m.complete_at(0x40, t0 + Duration::from_ns(10.0));
        // After the fetch completes, the entry is reusable.
        let later = t0 + Duration::from_ns(11.0);
        assert_eq!(m.register(0x80, later), MshrOutcome::Allocated);
        assert_eq!(m.occupancy(later), 1);
    }

    #[test]
    fn distinct_lines_use_distinct_entries() {
        let mut m = Mshr::new(8);
        let t0 = SimTime::ZERO;
        for i in 0..8u64 {
            assert_eq!(m.register(i * 64, t0), MshrOutcome::Allocated);
            m.complete_at(i * 64, t0 + Duration::from_ns(100.0));
        }
        assert_eq!(m.occupancy(t0), 8);
        assert!(matches!(m.register(9 * 64, t0), MshrOutcome::Stall { .. }));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = Mshr::new(0);
    }

    #[test]
    fn probe_matches_register_view_and_mutates_nothing() {
        let mut m = Mshr::new(2);
        let t0 = SimTime::ZERO;
        m.register(0x40, t0);
        m.complete_at(0x40, t0 + Duration::from_ns(50.0));
        m.register(0x80, t0); // placeholder completion (u64::MAX)
        let mid = t0 + Duration::from_ns(60.0);
        // 0x40 is retired at `mid`; the placeholder still counts.
        assert_eq!(m.probe_occupancy(t0), 2);
        assert_eq!(m.probe_occupancy(mid), 1);
        // Probing retired nothing and bumped no counters.
        assert_eq!(m.allocations.get(), 2);
        assert_eq!(m.occupancy(mid), 1);
        assert_eq!(m.register(0xC0, mid), MshrOutcome::Allocated);
    }
}
