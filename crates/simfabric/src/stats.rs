//! Measurement primitives: counters and log-scale histograms.
//!
//! These are the building blocks from which the cache simulator, device
//! models and the experiment harness assemble their reports.

/// A simple monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// New counter at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Add one.
    #[inline]
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Add `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }

    /// This counter as a fraction of `total` (0.0 if `total` is zero).
    pub fn ratio_of(&self, total: u64) -> f64 {
        if total == 0 {
            0.0
        } else {
            self.0 as f64 / total as f64
        }
    }
}

/// A power-of-two bucketed histogram for positive integer samples
/// (latencies in picoseconds, sizes in bytes, queue depths…).
///
/// Bucket `i` holds samples in `[2^i, 2^(i+1))`; bucket 0 also holds 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    ///
    /// `#[inline]`: called per memory access on telemetry-enabled
    /// replay hot paths in downstream crates; without the hint the
    /// cross-crate call alone threatens the <=2 % overhead budget.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` samples of `value` at once: the same state as `n`
    /// calls to [`record`](Self::record). Recorders that can count a
    /// common value without sampling it add those samples here when
    /// read.
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let bucket = if value <= 1 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        self.buckets[bucket] += n;
        self.count += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Approximate quantile (`q` in `[0,1]`) from bucket boundaries.
    /// Returns the *upper* bound of the bucket containing the quantile,
    /// i.e. an over-estimate by at most 2×. A NaN `q` is treated as 0
    /// (the minimum) rather than poisoning the clamp.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                });
            }
        }
        Some(self.max)
    }

    /// [`quantile`](Self::quantile) with a defined value on an empty
    /// histogram (0), for exporters that must emit a number for every
    /// metric rather than thread `Option`s through a report.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        self.quantile(q).unwrap_or(0)
    }

    /// Merge another histogram into this one.
    pub(crate) fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.ratio_of(10), 0.5);
        assert_eq!(c.ratio_of(0), 0.0);
    }

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1024));
        assert!((h.mean() - (0.0 + 1.0 + 2.0 + 3.0 + 1024.0) / 5.0).abs() < 1e-12);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut one_by_one = Histogram::new();
        let mut batched = Histogram::new();
        for (value, n) in [(0, 3), (1, 0), (7, 2), (u64::MAX, 2), (1, 1)] {
            for _ in 0..n {
                one_by_one.record(value);
            }
            batched.record_n(value, n);
        }
        assert_eq!(batched, one_by_one);
        let mut empty = Histogram::new();
        empty.record_n(5, 0);
        assert_eq!(empty, Histogram::new());
    }

    #[test]
    fn histogram_quantile_bounds() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40, 1000] {
            h.record(v);
        }
        // Median is 30 → bucket [16,32) → upper bound 31.
        assert_eq!(h.quantile(0.5), Some(31));
        // p100 lands in 1000's bucket [512,1024) → 1023.
        assert_eq!(h.quantile(1.0), Some(1023));
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn histogram_quantile_edge_cases_are_defined() {
        // Empty histogram: Option form is None, bound form is 0 — an
        // exported metric never sees a missing value.
        let empty = Histogram::new();
        assert_eq!(empty.quantile_bound(0.5), 0);
        assert_eq!(empty.quantile_bound(f64::NAN), 0);
        let mut h = Histogram::new();
        h.record(100);
        // Out-of-range and NaN quantiles clamp to the bucket bounds
        // instead of producing a surprise.
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(7.0), h.quantile(1.0));
        assert_eq!(h.quantile(f64::NAN), h.quantile(0.0));
        assert_eq!(h.quantile_bound(0.5), 127);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(4);
        b.record(8);
        b.record(16);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(4));
        assert_eq!(a.max(), Some(16));
    }
}
