//! Channel/bank/row-buffer DRAM timing model.
//!
//! This is the detailed model behind the analytic numbers: each access
//! is mapped to a (channel, bank, row), pays row-hit or row-miss
//! timing, and queues behind earlier requests to the same bank. The
//! unit tests validate that the detailed model's streaming behaviour
//! is consistent with the sustained-bandwidth constants used by the
//! analytic path, and that random access degenerates to latency-bound
//! behaviour.

use simfabric::stats::{Counter, Histogram};
use simfabric::{Duration, SimTime};

/// Core DRAM timing parameters (per bank), in nanoseconds at the
/// module's I/O clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramTiming {
    /// Row activate → column access (tRCD).
    pub t_rcd: Duration,
    /// Column access strobe latency (tCAS / tCL).
    pub t_cas: Duration,
    /// Precharge time (tRP).
    pub t_rp: Duration,
    /// Data burst time for one cache line on the channel.
    pub t_burst: Duration,
    /// Controller/package path latency per access (queues, PHY, and —
    /// for MCDRAM — the 3D-stack traversal). Pipelined: it adds to
    /// every access's latency but not to bank or bus occupancy. Chosen
    /// so the end-to-end idle chase latency matches the paper's
    /// 130.4 ns (DDR) / 154.0 ns (MCDRAM) after the L1/L2 and mesh
    /// contributions.
    pub t_ctrl: Duration,
}

impl DramTiming {
    /// DDR4-2133-ish timings (14-14-14, 64-byte burst ≈ 3.0 ns at
    /// 21.3 GB/s per two-channel pair → ~4 ns per line per channel).
    pub fn ddr4_2133() -> Self {
        DramTiming {
            t_rcd: Duration::from_ns(14.06),
            t_cas: Duration::from_ns(14.06),
            t_rp: Duration::from_ns(14.06),
            t_burst: Duration::from_ns(3.75),
            t_ctrl: Duration::from_ns(69.0),
        }
    }

    /// MCDRAM-ish timings: similar core timing to DRAM (3D stacking
    /// does not shorten the array access — Chang et al. \[25\]), much
    /// faster burst because of the wide on-package interface.
    pub fn mcdram() -> Self {
        DramTiming {
            t_rcd: Duration::from_ns(16.0),
            t_cas: Duration::from_ns(16.0),
            t_rp: Duration::from_ns(16.0),
            t_burst: Duration::from_ns(1.2),
            t_ctrl: Duration::from_ns(91.0),
        }
    }

    /// Latency of a row-buffer hit (column access + burst).
    pub fn row_hit(&self) -> Duration {
        self.t_cas + self.t_burst
    }

    /// Latency of a row-buffer miss with an open row to close
    /// (precharge + activate + column + burst).
    pub fn row_miss(&self) -> Duration {
        self.t_rp + self.t_rcd + self.t_cas + self.t_burst
    }

    /// Latency when the bank is idle with no row open
    /// (activate + column + burst).
    pub fn row_closed(&self) -> Duration {
        self.t_rcd + self.t_cas + self.t_burst
    }
}

/// Geometry of the device: how a physical line address is split into
/// channel, bank and row indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramGeometry {
    /// Number of channels.
    pub channels: u32,
    /// Banks per channel.
    pub banks_per_channel: u32,
    /// Bytes per row (row-buffer size).
    pub row_bytes: u32,
    /// Cache line size.
    pub line_bytes: u32,
}

impl DramGeometry {
    /// KNL DDR4: 6 channels × 16 banks, 8-KB rows.
    pub fn ddr4_knl() -> Self {
        DramGeometry {
            channels: 6,
            banks_per_channel: 16,
            row_bytes: 8192,
            line_bytes: 64,
        }
    }

    /// MCDRAM: 8 modules × 32 banks, 2-KB rows.
    pub fn mcdram_knl() -> Self {
        DramGeometry {
            channels: 8,
            banks_per_channel: 32,
            row_bytes: 2048,
            line_bytes: 64,
        }
    }

    /// Check that the geometry describes a device [`DramModel`] can
    /// map with shifts: at least one channel, and power-of-two line,
    /// row and bank counts with rows no smaller than lines. Channel
    /// counts need not be powers of two (KNL DDR has 6).
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0 {
            return Err("channel count must be positive".into());
        }
        for (name, v) in [
            ("line size", self.line_bytes),
            ("row size", self.row_bytes),
            ("banks per channel", self.banks_per_channel),
        ] {
            if !v.is_power_of_two() {
                return Err(format!("{name} {v} must be a power of two"));
            }
        }
        if self.row_bytes < self.line_bytes {
            return Err(format!(
                "row size {} is smaller than line size {}",
                self.row_bytes, self.line_bytes
            ));
        }
        Ok(())
    }

    /// Map a byte address to `(channel, bank, row)`.
    ///
    /// Lines are interleaved across channels first (so streams spread
    /// over all channels), then across banks by row index. This is
    /// the reference mapping; [`DramModel::access`] computes the same
    /// split with shifts precomputed from a validated geometry.
    pub fn map(&self, addr: u64) -> (u32, u32, u64) {
        let line = addr / self.line_bytes as u64;
        let channel = (line % self.channels as u64) as u32;
        let chan_line = line / self.channels as u64;
        let lines_per_row = (self.row_bytes / self.line_bytes) as u64;
        let row_global = chan_line / lines_per_row;
        let bank = (row_global % self.banks_per_channel as u64) as u32;
        let row = row_global / self.banks_per_channel as u64;
        (channel, bank, row)
    }
}

/// Per-bank state.
#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    /// When the bank can accept its next command. Row hits pipeline at
    /// burst cadence (tCCD); misses block the bank until data is out.
    ready: SimTime,
}

/// Aggregated access statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Row-buffer hits.
    pub row_hits: Counter,
    /// Row-buffer misses (row open to a different row).
    pub row_misses: Counter,
    /// Accesses to an idle bank (no row open).
    pub row_closed: Counter,
    /// Accesses that had to wait for the bank to free up.
    pub bank_conflicts: Counter,
}

impl DramStats {
    /// Total accesses recorded.
    pub fn total(&self) -> u64 {
        self.row_hits.get() + self.row_misses.get() + self.row_closed.get()
    }

    /// Row-buffer hit rate over all accesses.
    pub fn hit_rate(&self) -> f64 {
        self.row_hits.ratio_of(self.total())
    }

    /// Combine two stat sets. Every field is a sum, so the reduction is
    /// commutative and associative: shard or per-device stats merge to
    /// the same totals in any order.
    pub fn merge(self, other: DramStats) -> DramStats {
        DramStats {
            row_hits: self.row_hits.merge(other.row_hits),
            row_misses: self.row_misses.merge(other.row_misses),
            row_closed: self.row_closed.merge(other.row_closed),
            bank_conflicts: self.bank_conflicts.merge(other.bank_conflicts),
        }
    }
}

/// The event-level DRAM model.
///
/// Two resources constrain every access: the **bank** (row-buffer
/// state machine; serializes activates/precharges) and the **channel
/// data bus** (serializes the burst phase of every line on that
/// channel). Banks give random access its latency; the bus gives
/// streaming its bandwidth ceiling.
#[derive(Debug, Clone)]
pub struct DramModel {
    timing: DramTiming,
    geometry: DramGeometry,
    /// `log2(line_bytes)`: byte address → line index.
    line_shift: u32,
    /// `log2(row_bytes / line_bytes)`: channel line → global row.
    row_shift: u32,
    /// `log2(banks_per_channel)`: global row → row within the bank,
    /// and channel → first bank index.
    bank_shift: u32,
    /// Banks, `banks_per_channel` per channel, channel-major.
    banks: Vec<Bank>,
    /// Per-channel data-bus "busy until" times.
    bus_busy_until: Vec<SimTime>,
    stats: DramStats,
    /// Telemetry: picoseconds each access waited for its bank to free
    /// up (0 for uncontended accesses). A per-access wait sample is
    /// O(1) on the hot path, unlike a literal queue-depth scan over all
    /// banks, and carries the same diagnostic signal: a fat tail here
    /// *is* bank queuing. `None` (the default) costs one branch.
    queue_wait: Option<Box<Histogram>>,
}

impl DramModel {
    /// Build a model from timing and geometry; panics on an invalid
    /// geometry (see [`DramGeometry::validate`]; geometries are
    /// developer input, not user input).
    pub fn new(timing: DramTiming, geometry: DramGeometry) -> Self {
        geometry
            .validate()
            .unwrap_or_else(|e| panic!("bad DRAM geometry: {e}"));
        let n = geometry.channels as usize * geometry.banks_per_channel as usize;
        let line_shift = geometry.line_bytes.trailing_zeros();
        DramModel {
            timing,
            geometry,
            line_shift,
            row_shift: geometry.row_bytes.trailing_zeros() - line_shift,
            bank_shift: geometry.banks_per_channel.trailing_zeros(),
            banks: vec![Bank::default(); n],
            bus_busy_until: vec![SimTime::ZERO; geometry.channels as usize],
            stats: DramStats::default(),
            queue_wait: None,
        }
    }

    /// Start recording a bank queue-wait histogram: every subsequent
    /// [`access`](Self::access) samples how long (in picoseconds) the
    /// request waited for its target bank. Purely observational.
    pub fn enable_queue_wait_histogram(&mut self) {
        if self.queue_wait.is_none() {
            self.queue_wait = Some(Box::new(Histogram::new()));
        }
    }

    /// The bank queue-wait histogram (ps), if telemetry was enabled.
    pub fn queue_wait_histogram(&self) -> Option<&Histogram> {
        self.queue_wait.as_deref()
    }

    /// The KNL DDR4 subsystem.
    pub fn ddr4_knl() -> Self {
        Self::new(DramTiming::ddr4_2133(), DramGeometry::ddr4_knl())
    }

    /// The KNL MCDRAM subsystem.
    pub fn mcdram_knl() -> Self {
        Self::new(DramTiming::mcdram(), DramGeometry::mcdram_knl())
    }

    /// Geometry in use.
    pub fn geometry(&self) -> DramGeometry {
        self.geometry
    }

    /// Access statistics so far.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// A lower bound on the service time of *any* access: an access
    /// arriving at `at` never completes before `at + min_service()`.
    /// In [`access`](Self::access) the burst end is at least
    /// `start + array + t_burst ≥ at + t_cas + t_burst` (a row hit on
    /// an idle bank is the fastest case) and the controller path adds
    /// `t_ctrl` on top. Trace replay's queue-wait time series measures
    /// each access's overshoot past this bound.
    pub fn min_service(&self) -> Duration {
        self.timing.row_hit() + self.timing.t_ctrl
    }

    /// Perform a line access to byte address `addr` arriving at `at`.
    /// Returns the completion time.
    pub fn access(&mut self, addr: u64, at: SimTime) -> SimTime {
        // `DramGeometry::map` with shifts: the channel split is the
        // only division left.
        let line = addr >> self.line_shift;
        let channels = u64::from(self.geometry.channels);
        let chan_line = line / channels;
        let channel = (line - chan_line * channels) as usize;
        let row_global = chan_line >> self.row_shift;
        let bank = (row_global & ((1 << self.bank_shift) - 1)) as usize;
        let row = row_global >> self.bank_shift;
        let timing = &self.timing;
        let b = &mut self.banks[(channel << self.bank_shift) | bank];
        let wm = &mut self.bus_busy_until[channel];
        let stats = &mut self.stats;
        if let Some(h) = self.queue_wait.as_deref_mut() {
            h.record(b.ready.saturating_since(at).as_ps());
        }
        if b.ready > at {
            stats.bank_conflicts.incr();
        }
        let start = at.max(b.ready);
        // Array-access phase (everything before the data burst), and
        // whether this access pipelines in the bank (row hit: the next
        // CAS can issue one burst later) or blocks it (miss/closed: the
        // row must settle before the next command).
        let (array, pipelines) = match b.open_row {
            Some(open) if open == row => {
                stats.row_hits.incr();
                (timing.row_hit() - timing.t_burst, true)
            }
            Some(_) => {
                stats.row_misses.incr();
                (timing.row_miss() - timing.t_burst, false)
            }
            None => {
                stats.row_closed.incr();
                (timing.row_closed() - timing.t_burst, false)
            }
        };
        b.open_row = Some(row);
        // The burst phase consumes channel data-bus bandwidth. The bus
        // is modelled as a rate watermark (one burst slot per line,
        // floored at the arrival time) rather than a strict FIFO: real
        // controllers reorder across banks, so a slow row cycle in one
        // bank must not stall bursts from the others.
        *wm = (*wm).max(at) + timing.t_burst;
        let bank_done = (start + array + timing.t_burst).max(*wm);
        b.ready = if pipelines {
            start + timing.t_burst
        } else {
            bank_done
        };
        // The controller/package path is pipelined latency on top.
        bank_done + timing.t_ctrl
    }

    /// Stream `lines` consecutive cache lines starting at `base`; all
    /// requests are issued at `at` (a fully pipelined prefetch stream).
    /// Returns the completion time of the last line.
    pub fn stream(&mut self, base: u64, lines: u64, at: SimTime) -> SimTime {
        let mut done = at;
        for i in 0..lines {
            let addr = base + i * self.geometry.line_bytes as u64;
            done = done.max(self.access(addr, at));
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_interleaves_channels() {
        let g = DramGeometry::ddr4_knl();
        let (c0, _, _) = g.map(0);
        let (c1, _, _) = g.map(64);
        let (c6, _, _) = g.map(6 * 64);
        assert_ne!(c0, c1);
        assert_eq!(c0, c6); // wraps after `channels` lines
    }

    #[test]
    fn mapping_same_row_for_adjacent_lines_in_channel() {
        let g = DramGeometry::ddr4_knl();
        // Lines 0 and 6 are on channel 0; within one row (8 KB = 128
        // lines/row, 6-way interleave → the first ~768 lines of the
        // address space share channel-0 row 0).
        let (_, b0, r0) = g.map(0);
        let (_, b6, r6) = g.map(6 * 64);
        assert_eq!((b0, r0), (b6, r6));
    }

    #[test]
    fn validate_rejects_geometries_the_shift_map_cannot_serve() {
        for g in [DramGeometry::ddr4_knl(), DramGeometry::mcdram_knl()] {
            g.validate().unwrap();
        }
        let base = DramGeometry::ddr4_knl();
        let bad = [
            (
                "channel",
                DramGeometry {
                    channels: 0,
                    ..base
                },
            ),
            (
                "banks per channel",
                DramGeometry {
                    banks_per_channel: 0,
                    ..base
                },
            ),
            (
                "banks per channel",
                DramGeometry {
                    banks_per_channel: 12,
                    ..base
                },
            ),
            (
                "line size",
                DramGeometry {
                    line_bytes: 0,
                    ..base
                },
            ),
            (
                "line size",
                DramGeometry {
                    line_bytes: 48,
                    ..base
                },
            ),
            (
                "row size",
                DramGeometry {
                    row_bytes: 0,
                    ..base
                },
            ),
            (
                "row size",
                DramGeometry {
                    row_bytes: 6144,
                    ..base
                },
            ),
            (
                "smaller than line",
                DramGeometry {
                    row_bytes: 32,
                    ..base
                },
            ),
        ];
        for (what, g) in bad {
            let err = g.validate().expect_err(what);
            assert!(err.contains(what), "{g:?}: {err}");
        }
        // Non-power-of-two channel counts are fine (KNL DDR has 6).
        DramGeometry {
            channels: 7,
            ..base
        }
        .validate()
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "bad DRAM geometry")]
    fn model_rejects_invalid_geometry() {
        let g = DramGeometry {
            row_bytes: 32,
            ..DramGeometry::ddr4_knl()
        };
        let _ = DramModel::new(DramTiming::ddr4_2133(), g);
    }

    #[test]
    fn row_hits_are_faster_than_misses() {
        let t = DramTiming::ddr4_2133();
        assert!(t.row_hit() < t.row_closed());
        assert!(t.row_closed() < t.row_miss());
    }

    #[test]
    fn sequential_stream_has_high_hit_rate() {
        let mut m = DramModel::ddr4_knl();
        m.stream(0, 10_000, SimTime::ZERO);
        let hr = m.stats().hit_rate();
        assert!(hr > 0.95, "hit rate {hr}");
    }

    #[test]
    fn random_access_has_low_hit_rate() {
        let mut m = DramModel::ddr4_knl();
        // Stride of exactly one row per channel group defeats the row
        // buffer: every access opens a new row in the same bank cycle.
        let mut t = SimTime::ZERO;
        let stride = 8192u64 * 6 * 16; // jump a full bank rotation
        for i in 0..5_000u64 {
            t = m.access(i * stride + (i % 7) * 64 * 6 * 16 * 128, t);
        }
        let hr = m.stats().hit_rate();
        assert!(hr < 0.5, "hit rate {hr}");
    }

    #[test]
    fn streaming_bandwidth_approximates_sustained_constant() {
        // The detailed model must land in the same regime as the
        // analytic constant (77 GB/s): within a factor ~1.5 either way.
        let mut m = DramModel::ddr4_knl();
        let lines = 200_000u64;
        let done = m.stream(0, lines, SimTime::ZERO);
        let gbs = lines as f64 * 64.0 / 1e9 / done.as_secs();
        assert!(
            gbs > 60.0 && gbs < 120.0,
            "detailed model streams at {gbs} GB/s"
        );
    }

    #[test]
    fn mcdram_streams_faster_than_ddr() {
        let mut ddr = DramModel::ddr4_knl();
        let mut hbm = DramModel::mcdram_knl();
        let lines = 100_000u64;
        let t_ddr = ddr.stream(0, lines, SimTime::ZERO);
        let t_hbm = hbm.stream(0, lines, SimTime::ZERO);
        let ratio = t_ddr.as_secs() / t_hbm.as_secs();
        assert!(ratio > 3.0, "MCDRAM/DDR stream ratio {ratio}");
    }

    #[test]
    fn dependent_chain_is_latency_not_bandwidth() {
        // Issue each access only after the previous completes (pointer
        // chase). Time per access ≈ row_miss latency, far above the
        // streaming rate.
        let mut m = DramModel::ddr4_knl();
        let mut t = SimTime::ZERO;
        let n = 1000u64;
        let stride = 8192 * 6 * 17; // new row every time
        for i in 0..n {
            t = m.access(i * stride, t);
        }
        let per_access = t.as_ns() / n as f64;
        assert!(per_access > 20.0, "chained access {per_access} ns");
    }

    /// A deterministic mixed address/arrival sequence that exercises
    /// row hits, misses, conflicts, and every channel.
    fn probe_sequence(g: DramGeometry) -> Vec<(u64, SimTime)> {
        let row_stride = g.row_bytes as u64 * g.channels as u64 * g.banks_per_channel as u64;
        let mut out = Vec::new();
        let mut at = SimTime::ZERO;
        for i in 0..4_000u64 {
            let addr = match i % 4 {
                0 => i * 64,                           // stream
                1 => (i / 7) * row_stride + i * 64,    // same-bank churn
                2 => i.wrapping_mul(0x9E37_79B9) * 64, // scatter
                _ => (i % g.channels as u64) * 64,     // channel hammer
            };
            out.push((addr, at));
            if i % 3 == 0 {
                at = at + Duration::from_ns(2.5);
            }
        }
        out
    }

    #[test]
    fn min_service_is_a_true_lower_bound() {
        for mk in [DramModel::ddr4_knl, DramModel::mcdram_knl] {
            let mut m = mk();
            let lb = m.min_service();
            for (addr, at) in probe_sequence(m.geometry()) {
                let done = m.access(addr, at);
                assert!(done >= at + lb, "addr {addr:#x}");
            }
        }
    }

    #[test]
    fn bank_conflicts_counted() {
        let mut m = DramModel::ddr4_knl();
        // Two simultaneous requests to the same bank and different rows.
        let g = m.geometry();
        let row_stride = g.row_bytes as u64 * g.channels as u64 * g.banks_per_channel as u64;
        m.access(0, SimTime::ZERO);
        m.access(row_stride, SimTime::ZERO);
        assert_eq!(m.stats().bank_conflicts.get(), 1);
        assert_eq!(m.stats().row_misses.get(), 1);
    }
}
