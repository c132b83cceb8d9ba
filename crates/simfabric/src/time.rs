//! Simulated time.
//!
//! Time is tracked in integer **picoseconds** so that device latencies
//! (fractions of a nanosecond per cache-line beat) accumulate without
//! floating-point drift. At 1 ps resolution a `u64` covers ~213 days of
//! simulated time, far beyond any experiment in this workspace.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute point on the simulated clock, in picoseconds since the
/// start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl SimTime {
    /// The beginning of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Value in nanoseconds (lossy; for reporting only).
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Value in seconds (lossy; for reporting only).
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`; simulated time never
    /// runs backwards, so this indicates a model bug.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: earlier timestamp is in the future"),
        )
    }

    /// Saturating difference; zero if `earlier` is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Construct from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Duration(ps)
    }

    /// Construct from (possibly fractional) nanoseconds, rounding to the
    /// nearest picosecond.
    #[inline]
    pub fn from_ns(ns: f64) -> Self {
        debug_assert!(ns >= 0.0, "negative duration");
        Duration((ns * 1_000.0).round() as u64)
    }

    /// Construct from seconds.
    #[inline]
    pub fn from_secs(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative duration");
        Duration((s * 1e12).round() as u64)
    }

    /// Construct from a cycle count at a clock frequency in GHz.
    #[inline]
    pub fn from_cycles(cycles: u64, ghz: f64) -> Self {
        Self::from_ns(cycles as f64 / ghz)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Value in nanoseconds.
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Value in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// True if the span is zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiply by an integer count (e.g. per-element cost × elements).
    #[inline]
    pub fn times(self, n: u64) -> Duration {
        Duration(self.0.checked_mul(n).expect("Duration overflow"))
    }

    /// Scale by a float factor, rounding to the nearest picosecond.
    #[inline]
    pub fn scale(self, f: f64) -> Duration {
        debug_assert!(f >= 0.0, "negative scale factor");
        Duration((self.0 as f64 * f).round() as u64)
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.checked_add(rhs.0).expect("Duration overflow"))
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.checked_sub(rhs.0).expect("Duration underflow"))
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        self.times(rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.as_ns())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.as_ns();
        if ns < 1_000.0 {
            write!(f, "{ns:.3} ns")
        } else if ns < 1e6 {
            write!(f, "{:.3} us", ns / 1e3)
        } else if ns < 1e9 {
            write!(f, "{:.3} ms", ns / 1e6)
        } else {
            write!(f, "{:.3} s", ns / 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_roundtrip_ns() {
        let d = Duration::from_ns(130.4);
        assert_eq!(d.as_ps(), 130_400);
        assert!((d.as_ns() - 130.4).abs() < 1e-9);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + Duration::from_ns(10.0);
        let t2 = t + Duration::from_ns(5.0);
        assert_eq!(t2.since(t).as_ns(), 5.0);
        assert_eq!((t2 - Duration::from_ns(15.0)), SimTime::ZERO);
    }

    #[test]
    fn duration_scale_rounds() {
        let d = Duration::from_ps(3);
        assert_eq!(d.scale(0.5).as_ps(), 2); // 1.5 rounds to 2
        assert_eq!(d.times(4).as_ps(), 12);
    }

    #[test]
    fn duration_from_cycles() {
        // 13 cycles at 1.3 GHz = 10 ns.
        let d = Duration::from_cycles(13, 1.3);
        assert_eq!(d.as_ps(), 10_000);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_ps(10);
        let b = SimTime::from_ps(20);
        assert_eq!(a.saturating_since(b), Duration::ZERO);
        assert_eq!(b.saturating_since(a).as_ps(), 10);
    }

    #[test]
    #[should_panic(expected = "in the future")]
    fn since_panics_on_backwards_time() {
        let a = SimTime::from_ps(10);
        let b = SimTime::from_ps(20);
        let _ = a.since(b);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", Duration::from_ns(1.5)), "1.500 ns");
        assert_eq!(format!("{}", Duration::from_ns(2_000.0)), "2.000 us");
        assert_eq!(format!("{}", Duration::from_secs(3.0)), "3.000 s");
    }

    #[test]
    fn sum_of_durations() {
        let total: Duration = (1..=4).map(Duration::from_ps).sum();
        assert_eq!(total.as_ps(), 10);
    }
}
