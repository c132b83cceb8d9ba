//! Property tests for the simulation substrate, driven by seeded
//! randomized cases from the in-tree PRNG (deterministic across runs).

use simfabric::prng::Rng;
use simfabric::{ByteSize, Duration, Histogram};

/// ByteSize display → parse round-trips within formatting precision.
#[test]
fn bytesize_display_parse_roundtrip() {
    let mut rng = Rng::seed_from_u64(0x51f0_0002);
    for case in 0..256 {
        let bytes = rng.gen_range(0u64..(1u64 << 45));
        let b = ByteSize::bytes(bytes);
        let parsed: ByteSize = b.to_string().parse().unwrap();
        // Display may round to 2 decimals of the chosen unit: allow
        // 1% relative error (exact below 1 KiB).
        if bytes < 1024 {
            assert_eq!(parsed, b, "case {case}");
        } else {
            let rel = (parsed.as_u64() as f64 - bytes as f64).abs() / bytes as f64;
            assert!(
                rel < 0.01,
                "case {case}: {} -> {} -> {}",
                bytes,
                b,
                parsed.as_u64()
            );
        }
    }
    // Edge values the random sweep may miss.
    for bytes in [0u64, 1, 1023, 1024, 1025, (1u64 << 45) - 1] {
        let b = ByteSize::bytes(bytes);
        let parsed: ByteSize = b.to_string().parse().unwrap();
        let rel = (parsed.as_u64() as f64 - bytes as f64).abs() / (bytes.max(1)) as f64;
        assert!(rel < 0.01, "edge {bytes}");
    }
}

/// Histogram invariants: count, mean, min/max, and the quantile
/// upper bound is ≥ the true quantile and ≤ 2x (power-of-two
/// buckets).
#[test]
fn histogram_quantile_bounds() {
    let mut rng = Rng::seed_from_u64(0x51f0_0003);
    for case in 0..128 {
        let len = rng.gen_range(1usize..300);
        let mut samples: Vec<u64> = (0..len).map(|_| rng.gen_range(1u64..1_000_000)).collect();
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        assert_eq!(h.count(), samples.len() as u64, "case {case}");
        assert_eq!(h.min(), samples.first().copied());
        assert_eq!(h.max(), samples.last().copied());
        let true_mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!((h.mean() - true_mean).abs() < 1e-6);
        for q in [0.25, 0.5, 0.9, 1.0] {
            let idx = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1;
            let truth = samples[idx];
            let est = h.quantile(q).unwrap();
            assert!(est >= truth, "case {case} q{q}: est {est} < true {truth}");
            assert!(
                est < truth.saturating_mul(2).max(2),
                "case {case} q{q}: est {est} vs true {truth}"
            );
        }
    }
}

/// Duration arithmetic is consistent: sum of parts equals scaled
/// whole.
#[test]
fn duration_arithmetic_consistency() {
    let mut rng = Rng::seed_from_u64(0x51f0_0005);
    for case in 0..256 {
        let ps = rng.gen_range(1u64..1_000_000_000);
        let parts = rng.gen_range(1u64..64);
        let d = Duration::from_ps(ps * parts);
        assert_eq!(d / parts, Duration::from_ps(ps), "case {case}");
        assert_eq!(Duration::from_ps(ps).times(parts), d, "case {case}");
        assert_eq!(d.scale(1.0), d, "case {case}");
    }
}
