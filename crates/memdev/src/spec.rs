//! Analytic device specification.
//!
//! A [`MemDeviceSpec`] captures everything the Little's-law machine
//! model needs to know about a memory technology. Where a number is
//! taken from the paper or from Intel's published figures, the field
//! documentation says so.

use simfabric::{ByteSize, Duration};

/// Which technology a device models. Determines defaults and how the
/// KNL machine model wires it up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Conventional off-package DDR4.
    Ddr4,
    /// On-package 3D-stacked multi-channel DRAM (the KNL HBM).
    Mcdram,
}

/// Calibrated analytic description of a memory device.
#[derive(Debug, Clone, PartialEq)]
pub struct MemDeviceSpec {
    /// Human-readable name used in reports (e.g. `"DDR4-2133 x6"`).
    pub name: String,
    /// Technology class.
    pub kind: DeviceKind,
    /// Total capacity.
    pub capacity: ByteSize,
    /// Number of independent channels (DDR4: 6; MCDRAM: 8 modules).
    pub channels: u32,
    /// Theoretical peak bandwidth in GB/s across all channels.
    pub peak_bw_gbs: f64,
    /// Sustained streaming bandwidth in GB/s that a well-tuned
    /// STREAM-triad actually achieves (always below peak).
    pub sustained_bw_gbs: f64,
    /// Idle (unloaded) read latency for a dependent pointer chase.
    pub idle_latency: Duration,
    /// Maximum number of in-flight line requests the device can service
    /// concurrently before queueing dominates (channels × banks ×
    /// scheduler depth, collapsed into one number).
    pub max_concurrency: u32,
    /// Cache-line transfer size in bytes (64 on x86).
    pub line_bytes: u32,
}

impl MemDeviceSpec {
    /// Sustained bandwidth in bytes per picosecond (internal unit of
    /// the simulator). 1 GB/s = 1e9 B/s = 1e-3 B/ps.
    pub(crate) fn sustained_bytes_per_ps(&self) -> f64 {
        self.sustained_bw_gbs * 1e-3
    }

    /// Time to stream `bytes` at sustained bandwidth, ignoring latency.
    pub fn stream_time(&self, bytes: u64) -> Duration {
        Duration::from_ps((bytes as f64 / self.sustained_bytes_per_ps()).round() as u64)
    }

    /// Bandwidth achievable by `outstanding` concurrent requests at the
    /// idle latency, per Little's law: `BW = N × line / L`, capped at
    /// the sustained bandwidth. Returned in GB/s.
    ///
    /// This is the paper's §IV-B argument in code form: random-access
    /// workloads with few outstanding requests are latency-bound and
    /// cannot reach the device's bandwidth, no matter how high it is.
    pub fn littles_law_bw_gbs(&self, outstanding: f64) -> f64 {
        let lat_s = self.idle_latency.as_secs();
        if lat_s <= 0.0 {
            return self.sustained_bw_gbs;
        }
        let bw = outstanding * self.line_bytes as f64 / lat_s / 1e9;
        bw.min(self.sustained_bw_gbs)
    }

    /// Validate internal consistency; returns an error message when a
    /// field combination is physically meaningless.
    pub fn validate(&self) -> Result<(), String> {
        if self.capacity == ByteSize::ZERO {
            return Err(format!("{}: zero capacity", self.name));
        }
        if self.channels == 0 {
            return Err(format!("{}: zero channels", self.name));
        }
        if self.peak_bw_gbs <= 0.0 || self.sustained_bw_gbs <= 0.0 {
            return Err(format!("{}: non-positive bandwidth", self.name));
        }
        if self.sustained_bw_gbs > self.peak_bw_gbs {
            return Err(format!(
                "{}: sustained bandwidth {} exceeds peak {}",
                self.name, self.sustained_bw_gbs, self.peak_bw_gbs
            ));
        }
        if self.idle_latency.is_zero() {
            return Err(format!("{}: zero idle latency", self.name));
        }
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return Err(format!("{}: line size must be a power of two", self.name));
        }
        if self.max_concurrency == 0 {
            return Err(format!("{}: zero concurrency", self.name));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{ddr4_knl, mcdram_knl};

    #[test]
    fn presets_validate() {
        ddr4_knl().validate().unwrap();
        mcdram_knl().validate().unwrap();
    }

    #[test]
    fn littles_law_is_latency_bound_at_low_concurrency() {
        let hbm = mcdram_knl();
        let ddr = ddr4_knl();
        // One dependent chain: DDR's lower latency wins despite HBM's
        // 4x bandwidth — the crux of the paper's random-access result.
        assert!(hbm.littles_law_bw_gbs(1.0) < ddr.littles_law_bw_gbs(1.0) * 1.01);
        // At saturating concurrency HBM wins big.
        assert!(hbm.littles_law_bw_gbs(2000.0) > 3.0 * ddr.littles_law_bw_gbs(2000.0));
    }

    #[test]
    fn stream_time_matches_bandwidth() {
        let ddr = ddr4_knl();
        // 77 GB in one second at 77 GB/s.
        let t = ddr.stream_time(77_000_000_000);
        assert!((t.as_secs() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn validation_catches_bad_specs() {
        let mut s = ddr4_knl();
        s.sustained_bw_gbs = s.peak_bw_gbs + 1.0;
        assert!(s.validate().is_err());
        let mut s = ddr4_knl();
        s.line_bytes = 48;
        assert!(s.validate().is_err());
        let mut s = ddr4_knl();
        s.capacity = ByteSize::ZERO;
        assert!(s.validate().is_err());
        let mut s = ddr4_knl();
        s.channels = 0;
        assert!(s.validate().is_err());
        let mut s = ddr4_knl();
        s.max_concurrency = 0;
        assert!(s.validate().is_err());
        let mut s = ddr4_knl();
        s.idle_latency = Duration::ZERO;
        assert!(s.validate().is_err());
    }
}
