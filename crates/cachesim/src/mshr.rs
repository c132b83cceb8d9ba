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
/// entries live in one flat vector — no tree walks. Construction
/// allocates nothing: a replay builds one file per simulated core, and
/// 64 up-front allocations per simulator measured as the bulk of the
/// benchmark's set-up time. The vector grows over the first few misses
/// and is not reallocated once it reaches its bound. It holds the entries in
/// ascending completion order behind a start index: everything before
/// `head` has retired, everything from `head` on is in flight. Because
/// the order is by completion time, the entries complete at `now` are
/// always a prefix of the live ones, so retiring advances `head` past
/// them, and the earliest completion a stalled miss waits for is the
/// entry at `head`; only the merge check scans the live lines. An
/// allocation pushes a placeholder (`u64::MAX`, the largest key) at the
/// tail, and `complete_at` moves it down to its sorted slot, which on
/// a stream is at or near the tail. The retired prefix is drained once
/// it grows past `capacity`, so the vector never holds more than
/// `2 × capacity` entries.
///
/// Order never reaches an outcome: lines are unique among the live
/// entries, and every query is a lookup by line, a count or a minimum,
/// each of which the ordered file answers exactly as an unordered scan
/// would, ties and placeholders included.
#[derive(Debug, Clone)]
pub struct Mshr {
    capacity: usize,
    // (line address, completion time) of each fetch, ascending by
    // completion; `inflight[head..]` are outstanding, the rest retired.
    inflight: Vec<(u64, SimTime)>,
    head: usize,
    /// Primary misses that allocated an entry.
    pub allocations: Counter,
    /// Secondary misses merged into an existing entry.
    pub merges: Counter,
    /// Requests that found the file full.
    pub stalls: Counter,
    /// Telemetry: how many `register` calls observed each occupancy
    /// (index `0..=capacity`), after retiring completed fetches. One
    /// increment per call, folded into a [`Histogram`] when read.
    /// `None` (the default) keeps the hot path at a single branch.
    /// A boxed `Vec` rather than a boxed slice: the thin pointer keeps
    /// the file's size, which replay allocates once per core, the same
    /// as without the table (a fat one measurably grew the migration
    /// sweep's peak RSS).
    #[allow(clippy::box_collection)]
    occupancy: Option<Box<Vec<u64>>>,
}

impl Mshr {
    /// Create an MSHR file with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file needs at least one entry");
        Mshr {
            capacity,
            inflight: Vec::new(),
            head: 0,
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
            self.occupancy = Some(Box::new(vec![0; self.capacity + 1]));
        }
    }

    /// The occupancy histogram, if telemetry was enabled: the same
    /// histogram as recording each observed occupancy in turn.
    pub fn occupancy_histogram(&self) -> Option<Histogram> {
        let counts: &[u64] = self.occupancy.as_deref()?;
        let mut h = Histogram::new();
        for (occupancy, &n) in counts.iter().enumerate() {
            h.record_n(occupancy as u64, n);
        }
        Some(h)
    }

    /// Entries currently in flight (after retiring everything complete
    /// at `now`).
    pub fn occupancy(&mut self, now: SimTime) -> usize {
        self.retire(now);
        self.live().len()
    }

    /// The outstanding entries, ascending by completion time.
    fn live(&self) -> &[(u64, SimTime)] {
        &self.inflight[self.head..]
    }

    /// Drop entries whose fetches completed at or before `now`.
    pub fn retire(&mut self, now: SimTime) {
        while self.head < self.inflight.len() && self.inflight[self.head].1 <= now {
            self.head += 1;
        }
        if self.head > self.capacity {
            self.inflight.drain(..self.head);
            self.head = 0;
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
        let live = self.live();
        live.len() - live.partition_point(|&(_, done)| done <= now)
    }

    /// Register a miss for `line_addr` at time `now`. If an entry is
    /// allocated, the caller must then call [`Mshr::complete_at`] with
    /// the fetch completion time.
    pub fn register(&mut self, line_addr: u64, now: SimTime) -> MshrOutcome {
        self.retire(now);
        let live = &self.inflight[self.head..];
        if let Some(counts) = &mut self.occupancy {
            counts[live.len()] += 1;
        }
        if let Some(&(_, ready_at)) = live.iter().find(|&&(line, _)| line == line_addr) {
            self.merges.incr();
            return MshrOutcome::Merged { ready_at };
        }
        if live.len() >= self.capacity {
            self.stalls.incr();
            return MshrOutcome::Stall { free_at: live[0].1 };
        }
        self.allocations.incr();
        // Placeholder completion; the caller sets the real one.
        self.inflight.push((line_addr, SimTime::from_ps(u64::MAX)));
        MshrOutcome::Allocated
    }

    /// Record the completion time of the fetch for `line_addr`
    /// (must follow an `Allocated` outcome). The search starts at the
    /// tail, where `register` just pushed the entry, and the entry then
    /// moves to its slot in completion order.
    pub fn complete_at(&mut self, line_addr: u64, done: SimTime) {
        let head = self.head;
        let mut i = head
            + self.inflight[head..]
                .iter()
                .rposition(|&(l, _)| l == line_addr)
                .expect("complete_at without allocation");
        debug_assert_eq!(self.inflight[i].1, SimTime::from_ps(u64::MAX));
        while i > head && self.inflight[i - 1].1 > done {
            self.inflight[i] = self.inflight[i - 1];
            i -= 1;
        }
        self.inflight[i] = (line_addr, done);
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
