//! Loaded-latency model.
//!
//! Memory latency rises with utilization as controller queues fill. We
//! model the loaded latency with the standard M/D/1-flavoured shape
//!
//! ```text
//! L(u) = L_idle × (1 + k × u / (1 − u))        for u < u_max
//! ```
//!
//! clamped at `u_max` (queues never grow unbounded in a closed system —
//! the cores stall instead). The curve parameters were chosen so the
//! model reproduces the measured behaviour cited by the paper
//! (McCalpin's KNL latency study \[18\] and Chang et al. \[25\]): latency
//! roughly doubles near saturation.

use simfabric::Duration;

/// Parameters of the loaded-latency curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadedLatencyCurve {
    /// Queueing sensitivity `k`; larger means latency climbs earlier.
    pub queue_factor: f64,
    /// Utilization at which the curve is clamped (closed-system limit).
    pub max_utilization: f64,
}

impl LoadedLatencyCurve {
    /// A curve calibrated for conventional DDR4: latency stays fairly
    /// flat until ~70 % utilization.
    pub fn ddr_like() -> Self {
        LoadedLatencyCurve {
            queue_factor: 0.12,
            max_utilization: 0.95,
        }
    }

    /// A curve calibrated for MCDRAM: many more banks, so queueing
    /// kicks in later but the idle latency is higher to start with.
    pub fn mcdram_like() -> Self {
        LoadedLatencyCurve {
            queue_factor: 0.08,
            max_utilization: 0.97,
        }
    }

    /// Loaded latency at `utilization` (fraction of sustained
    /// bandwidth, clamped to the curve's valid range).
    pub fn latency(&self, idle: Duration, utilization: f64) -> Duration {
        let u = utilization.clamp(0.0, self.max_utilization);
        let factor = 1.0 + self.queue_factor * u / (1.0 - u);
        idle.scale(factor)
    }
}

impl Default for LoadedLatencyCurve {
    fn default() -> Self {
        Self::ddr_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_at_zero_utilization() {
        let c = LoadedLatencyCurve::ddr_like();
        let idle = Duration::from_ns(130.4);
        assert_eq!(c.latency(idle, 0.0), idle);
    }

    #[test]
    fn monotonically_increasing() {
        let c = LoadedLatencyCurve::mcdram_like();
        let idle = Duration::from_ns(154.0);
        let mut prev = Duration::ZERO;
        for i in 0..=20 {
            let u = i as f64 / 20.0;
            let l = c.latency(idle, u);
            assert!(l >= prev, "latency decreased at u={u}");
            prev = l;
        }
    }

    #[test]
    fn clamps_above_max_utilization() {
        let c = LoadedLatencyCurve::ddr_like();
        let idle = Duration::from_ns(100.0);
        assert_eq!(c.latency(idle, 2.0), c.latency(idle, c.max_utilization));
        // And never infinite.
        assert!(c.latency(idle, 1.0).as_ns() < 10_000.0);
    }

    #[test]
    fn negative_utilization_clamps_to_idle() {
        let c = LoadedLatencyCurve::default();
        let idle = Duration::from_ns(100.0);
        assert_eq!(c.latency(idle, -0.5), idle);
    }
}
