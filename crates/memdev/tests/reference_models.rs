//! Reference-model tests: the shift-mapped bank model against a naive
//! model that maps every address through `DramGeometry::map`, on
//! seeded random traces from the in-tree PRNG.

use memdev::bank::{DramGeometry, DramModel, DramStats, DramTiming};
use simfabric::prng::Rng;
use simfabric::{Duration, SimTime};

/// Naive bank model: the timing rules of `DramModel::access`, with the
/// address split done by the reference `DramGeometry::map` (divisions
/// and remainders) and banks looked up by `(channel, bank)`.
struct RefDram {
    timing: DramTiming,
    geometry: DramGeometry,
    /// `(open row, ready)` per `channel * banks_per_channel + bank`.
    banks: Vec<(Option<u64>, SimTime)>,
    bus: Vec<SimTime>,
    stats: DramStats,
}

impl RefDram {
    fn new(timing: DramTiming, geometry: DramGeometry) -> Self {
        let n = (geometry.channels * geometry.banks_per_channel) as usize;
        RefDram {
            timing,
            geometry,
            banks: vec![(None, SimTime::ZERO); n],
            bus: vec![SimTime::ZERO; geometry.channels as usize],
            stats: DramStats::default(),
        }
    }

    fn access(&mut self, addr: u64, at: SimTime) -> SimTime {
        let (channel, bank, row) = self.geometry.map(addr);
        let t = self.timing;
        let (open_row, ready) =
            &mut self.banks[(channel * self.geometry.banks_per_channel + bank) as usize];
        if *ready > at {
            self.stats.bank_conflicts.incr();
        }
        let start = at.max(*ready);
        let (array, pipelines) = match *open_row {
            Some(open) if open == row => {
                self.stats.row_hits.incr();
                (t.t_cas, true)
            }
            Some(_) => {
                self.stats.row_misses.incr();
                (t.t_rp + t.t_rcd + t.t_cas, false)
            }
            None => {
                self.stats.row_closed.incr();
                (t.t_rcd + t.t_cas, false)
            }
        };
        *open_row = Some(row);
        let bus = &mut self.bus[channel as usize];
        *bus = (*bus).max(at) + t.t_burst;
        let bank_done = (start + array + t.t_burst).max(*bus);
        *ready = if pipelines {
            start + t.t_burst
        } else {
            bank_done
        };
        bank_done + t.t_ctrl
    }
}

/// A mixed trace over `geometry`: sequential runs, same-bank row churn,
/// uniform scatter over the whole `u64` space, and a channel hammer,
/// with arrivals that stand still, advance, or jump.
fn trace(rng: &mut Rng, g: DramGeometry, len: usize) -> Vec<(u64, SimTime)> {
    let line = u64::from(g.line_bytes);
    let bank_rotation = u64::from(g.row_bytes) * u64::from(g.channels * g.banks_per_channel);
    let mut at = SimTime::ZERO;
    let mut cursor = 0u64;
    (0..len)
        .map(|_| {
            let addr = match rng.gen_range(0..4u32) {
                0 => {
                    cursor = cursor.wrapping_add(line);
                    cursor
                }
                1 => rng.gen_range(0..64u64) * bank_rotation + rng.gen_range(0..line),
                2 => rng.next_u64(),
                _ => rng.gen_range(0..u64::from(g.channels)) * line,
            };
            if rng.gen_bool(0.5) {
                at += Duration::from_ps(rng.gen_range(0..8_000));
            }
            if rng.gen_bool(0.01) {
                at += Duration::from_ps(1_000_000);
            }
            (addr, at)
        })
        .collect()
}

/// `DramModel::access` reproduces the reference completion time of
/// every access and the reference `DramStats`, on both KNL presets
/// and on smaller geometries whose shifts differ from theirs.
#[test]
fn dram_access_matches_reference_mapping() {
    let mut rng = Rng::seed_from_u64(0xd1a9_0005);
    let small = DramGeometry {
        channels: 3,
        banks_per_channel: 4,
        row_bytes: 256,
        line_bytes: 32,
    };
    let single = DramGeometry {
        channels: 1,
        banks_per_channel: 1,
        row_bytes: 64,
        line_bytes: 64,
    };
    let cases = [
        (DramTiming::ddr4_2133(), DramGeometry::ddr4_knl()),
        (DramTiming::mcdram(), DramGeometry::mcdram_knl()),
        (DramTiming::ddr4_2133(), small),
        (DramTiming::mcdram(), single),
    ];
    for (timing, geometry) in cases {
        for case in 0..8 {
            let mut model = DramModel::new(timing, geometry);
            let mut reference = RefDram::new(timing, geometry);
            for (i, (addr, at)) in trace(&mut rng, geometry, 5_000).into_iter().enumerate() {
                assert_eq!(
                    model.access(addr, at),
                    reference.access(addr, at),
                    "{geometry:?} case {case} access {i} addr {addr:#x}"
                );
            }
            assert_eq!(model.stats(), reference.stats, "{geometry:?} case {case}");
        }
    }
}
