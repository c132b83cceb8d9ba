//! Property tests for the memory device models, driven by seeded
//! random cases from the in-tree PRNG.

use memdev::bank::{DramGeometry, DramModel};
use memdev::{ddr4_knl, mcdram_knl, LoadedLatencyCurve};
use simfabric::prng::Rng;
use simfabric::{Duration, SimTime};
use std::collections::HashSet;

/// Address mapping is a bijection at line granularity: distinct
/// lines map to distinct (channel, bank, row, line-within-row)
/// coordinates, and every coordinate is within bounds.
#[test]
fn geometry_mapping_is_injective() {
    let mut rng = Rng::seed_from_u64(0xd1a9_0001);
    for case in 0..64 {
        let target = rng.gen_range(2usize..100);
        let mut lines = HashSet::new();
        while lines.len() < target {
            lines.insert(rng.gen_range(0u64..(1 << 24)));
        }
        for geom in [DramGeometry::ddr4_knl(), DramGeometry::mcdram_knl()] {
            let mut seen = HashSet::new();
            for &line in &lines {
                let addr = line * geom.line_bytes as u64;
                let (c, b, r) = geom.map(addr);
                assert!(c < geom.channels, "case {case}");
                assert!(b < geom.banks_per_channel, "case {case}");
                // Within a (channel, bank, row) there are
                // row_bytes/line_bytes distinct lines; include the
                // offset to get full coordinates.
                let lines_per_row = (geom.row_bytes / geom.line_bytes) as u64;
                let offset = (line / geom.channels as u64) % lines_per_row;
                assert!(
                    seen.insert((c, b, r, offset)),
                    "case {case}: collision for line {line}"
                );
            }
        }
    }
}

/// Device completions never precede arrivals, and a bank's
/// completions are non-decreasing for monotone arrivals.
#[test]
fn completions_follow_arrivals() {
    let mut rng = Rng::seed_from_u64(0xd1a9_0002);
    for case in 0..64 {
        let len = rng.gen_range(1usize..200);
        let addrs: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..(1 << 26))).collect();
        let mut m = DramModel::ddr4_knl();
        let mut t = SimTime::ZERO;
        for (i, &a) in addrs.iter().enumerate() {
            let at = t + Duration::from_ns(i as f64);
            let done = m.access(a & !63, at);
            assert!(done > at, "case {case}");
            t = t.max(done - Duration::from_ns(1.0));
        }
        assert_eq!(m.stats().total(), addrs.len() as u64, "case {case}");
    }
}

/// Loaded latency is monotone in utilization and bounded.
#[test]
fn loaded_latency_monotone() {
    let mut rng = Rng::seed_from_u64(0xd1a9_0004);
    for case in 0..64 {
        let k = rng.gen_range(0.01f64..0.5);
        let steps = rng.gen_range(2usize..40);
        let curve = LoadedLatencyCurve {
            queue_factor: k,
            max_utilization: 0.95,
        };
        let idle = Duration::from_ns(130.4);
        let mut prev = Duration::ZERO;
        for i in 0..=steps {
            let u = i as f64 / steps as f64;
            let l = curve.latency(idle, u);
            assert!(l >= prev, "case {case}");
            assert!(l >= idle, "case {case}");
            assert!(
                l.as_ns() < idle.as_ns() * (1.0 + k * 20.0) + 1.0,
                "case {case}"
            );
            prev = l;
        }
    }
}

/// Little's law helper is monotone in concurrency and capped at the
/// sustained bandwidth.
#[test]
fn littles_law_monotone_and_capped() {
    let mut rng = Rng::seed_from_u64(0xd1a9_0005);
    for case in 0..64 {
        let outstanding = rng.gen_range(0.0f64..5000.0);
        for spec in [ddr4_knl(), mcdram_knl()] {
            let bw = spec.littles_law_bw_gbs(outstanding);
            assert!(bw >= 0.0, "case {case}");
            assert!(bw <= spec.sustained_bw_gbs + 1e-9, "case {case}");
            let more = spec.littles_law_bw_gbs(outstanding + 1.0);
            assert!(more >= bw - 1e-9, "case {case}");
        }
    }
}
