//! Order statistics over timing samples. Every summary carries the
//! number of samples it was taken from, so a reported percentile can
//! be judged by how many samples lie beyond it.

/// A percentile of a sample, with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The interpolated value (0 for an empty sample).
    pub value: f64,
    /// Samples the value was computed from.
    pub n: usize,
}

/// The `q`-quantile (0..=1) of `samples`, linearly interpolated
/// between closest ranks.
pub fn quantile(samples: &[f64], q: f64) -> Quantile {
    let n = samples.len();
    if n == 0 {
        return Quantile { value: 0.0, n };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let value = sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64);
    Quantile { value, n }
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> Quantile {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_report_their_sample_count() {
        assert_eq!(median(&[]), Quantile { value: 0.0, n: 0 });
        assert_eq!(median(&[3.0, 1.0, 2.0]), Quantile { value: 2.0, n: 3 });
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]).value, 2.5);
        let xs: Vec<f64> = (1..=201).map(f64::from).collect();
        let p95 = quantile(&xs, 0.95);
        assert_eq!(p95.n, 201);
        assert_eq!(p95.value, 191.0);
        // Ten samples lie beyond the p95 of 201.
        assert_eq!(xs.iter().filter(|&&x| x > p95.value).count(), 10);
    }
}
