//! Measurement primitives: counters, log-scale histograms and online
//! mean/variance accumulators.
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

    /// Reset to zero.
    pub fn reset(&mut self) {
        self.0 = 0;
    }

    /// Combine two counters (commutative and associative, so shard
    /// counters can be reduced in any order).
    pub fn merge(self, other: Counter) -> Counter {
        Counter(self.0 + other.0)
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
        let bucket = if value <= 1 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += value as u128;
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

    /// Non-empty `(bucket_low_bound, count)` pairs, for reporting.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << i }, c))
            .collect()
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
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

/// Online mean / variance via Welford's algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// New accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance with Bessel's correction (0.0 for n < 2).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Maximum observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Relative standard deviation (stddev / mean); 0.0 when mean is 0.
    pub fn rel_stddev(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.stddev() / m.abs()
        }
    }
}

/// Harmonic mean of a set of positive rates, as used by Graph500 for
/// aggregating TEPS over BFS roots. Returns 0.0 on an empty slice and
/// ignores non-positive entries the way the reference code drops
/// invalid runs.
pub fn harmonic_mean(xs: &[f64]) -> f64 {
    let mut n = 0u64;
    let mut recip_sum = 0.0;
    for &x in xs {
        if x > 0.0 {
            n += 1;
            recip_sum += 1.0 / x;
        }
    }
    if n == 0 {
        0.0
    } else {
        n as f64 / recip_sum
    }
}

/// Geometric mean of positive values; 0.0 on empty input.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    let mut n = 0u64;
    let mut log_sum = 0.0;
    for &x in xs {
        if x > 0.0 {
            n += 1;
            log_sum += x.ln();
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
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
        c.reset();
        assert_eq!(c.get(), 0);
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
        let buckets = h.nonzero_buckets();
        // 0 and 1 in bucket 0; 2 and 3 in bucket [2,4); 1024 in [1024,2048).
        assert_eq!(buckets, vec![(0, 2), (2, 2), (1024, 1)]);
        assert!((h.mean() - (0.0 + 1.0 + 2.0 + 3.0 + 1024.0) / 5.0).abs() < 1e-12);
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

    #[test]
    fn online_stats_mean_variance() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4.0; sample variance = 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn harmonic_mean_matches_graph500_convention() {
        // Harmonic mean of 1, 2, 4 = 3 / (1 + 0.5 + 0.25) = 12/7.
        assert!((harmonic_mean(&[1.0, 2.0, 4.0]) - 12.0 / 7.0).abs() < 1e-12);
        // Zero/negative entries are skipped.
        assert!((harmonic_mean(&[2.0, 0.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(harmonic_mean(&[]), 0.0);
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 0.0);
    }
}
