//! Calibrated device presets for the ARCHER KNL testbed (Xeon Phi
//! 7210, §III-A of the paper).
//!
//! Provenance of each constant:
//!
//! | Constant | Value | Source |
//! |---|---|---|
//! | DDR capacity | 96 GB | §III-A testbed description |
//! | DDR channels | 6 (DDR4-2133) | §II / §III-A |
//! | DDR peak BW | 90 GB/s | §II ("DDR can deliver ~90 GB/s") |
//! | DDR sustained BW | 77 GB/s | Fig. 2 STREAM triad plateau |
//! | DDR idle latency | 130.4 ns | §IV-A |
//! | MCDRAM capacity | 16 GB (8 × 2 GB) | §III-A |
//! | MCDRAM peak BW | 400 GB/s | §II ("peak bandwidth of ~400 GB/s") |
//! | MCDRAM sustained BW | 330 GB/s @1 HT (420 max) | Fig. 2 / §IV-A |
//! | MCDRAM idle latency | 154.0 ns | §IV-A |

use crate::spec::{DeviceKind, MemDeviceSpec};
use simfabric::{ByteSize, Duration};

/// Idle DDR4 pointer-chase latency measured by the paper (ns).
pub const DDR_IDLE_LATENCY_NS: f64 = 130.4;
/// Idle MCDRAM pointer-chase latency measured by the paper (ns).
pub const MCDRAM_IDLE_LATENCY_NS: f64 = 154.0;
/// STREAM-triad sustained DDR bandwidth from Fig. 2 (GB/s).
pub const DDR_SUSTAINED_GBS: f64 = 77.0;
/// STREAM-triad sustained MCDRAM bandwidth at 1 HW thread/core (GB/s).
pub const MCDRAM_SUSTAINED_1T_GBS: f64 = 330.0;
/// Maximum MCDRAM bandwidth with ≥2 HW threads/core (GB/s, §IV-A).
pub const MCDRAM_SUSTAINED_MAX_GBS: f64 = 420.0;

/// The 96-GB, six-channel DDR4-2133 system of the ARCHER KNL nodes.
pub fn ddr4_knl() -> MemDeviceSpec {
    MemDeviceSpec {
        name: "DDR4-2133 x6 (96GB)".to_string(),
        kind: DeviceKind::Ddr4,
        capacity: ByteSize::gib(96),
        channels: 6,
        peak_bw_gbs: 90.0,
        sustained_bw_gbs: DDR_SUSTAINED_GBS,
        idle_latency: Duration::from_ns(DDR_IDLE_LATENCY_NS),
        // 6 channels × 16 banks × ~2 scheduler slots.
        max_concurrency: 192,
        line_bytes: 64,
    }
}

/// The 16-GB, eight-module MCDRAM of the Xeon Phi 7210.
///
/// `sustained_bw_gbs` holds the *maximum* sustainable bandwidth
/// (420 GB/s); the machine model derates it by the achievable
/// concurrency of the core configuration, which reproduces the
/// 330 GB/s plateau at one hardware thread per core.
pub fn mcdram_knl() -> MemDeviceSpec {
    MemDeviceSpec {
        name: "MCDRAM 8x2GB".to_string(),
        kind: DeviceKind::Mcdram,
        capacity: ByteSize::gib(16),
        channels: 8,
        peak_bw_gbs: 450.0,
        sustained_bw_gbs: MCDRAM_SUSTAINED_MAX_GBS,
        idle_latency: Duration::from_ns(MCDRAM_IDLE_LATENCY_NS),
        // 8 modules × 16 pseudo-channels × ~8 deep.
        max_concurrency: 1024,
        line_bytes: 64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ratio_holds() {
        // §II: "This 4x difference in bandwidth": 330/77 ≈ 4.3 at one
        // thread, peak 400 vs 90 ≈ 4.4.
        let r = MCDRAM_SUSTAINED_1T_GBS / DDR_SUSTAINED_GBS;
        assert!(r > 4.0 && r < 4.6, "bandwidth ratio {r}");
    }

    #[test]
    fn latency_penalty_is_18_percent() {
        // §IV-A: "accessing HBM could be ~18% slower".
        let penalty = MCDRAM_IDLE_LATENCY_NS / DDR_IDLE_LATENCY_NS - 1.0;
        assert!((penalty - 0.18).abs() < 0.01, "penalty {penalty}");
    }

    #[test]
    fn capacities_match_testbed() {
        assert_eq!(ddr4_knl().capacity, ByteSize::gib(96));
        assert_eq!(mcdram_knl().capacity, ByteSize::gib(16));
        assert_eq!(mcdram_knl().channels, 8);
        assert_eq!(ddr4_knl().channels, 6);
    }
}
