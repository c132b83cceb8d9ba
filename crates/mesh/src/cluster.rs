//! Cluster modes.
//!
//! KNL's cluster mode controls the affinity between a request's CHA
//! (tag-directory slice) and the memory port that serves it:
//!
//! * **All-to-all** — no affinity: any address may be homed by any CHA
//!   and served by any port; worst-case hop counts.
//! * **Quadrant** — the die is split into four virtual quadrants; an
//!   address is homed by a CHA in the *same quadrant* as its memory
//!   port, halving the CHA→port distance. The paper's testbed uses
//!   this mode (§III-A). Software still sees one NUMA node per memory.
//! * **Hemisphere** — same idea with two halves.
//! * **SNC-4** — quadrants are additionally exposed to software as NUMA
//!   nodes (not used by the paper; included for ablations).

use crate::topology::{Coord, MemPort, Topology};

/// The KNL cluster mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ClusterMode {
    /// No CHA/port affinity.
    AllToAll,
    /// Four-way affinity (the testbed's configuration).
    #[default]
    Quadrant,
    /// Two-way affinity.
    Hemisphere,
    /// Quadrant affinity exposed as NUMA subdomains.
    Snc4,
}

/// Stable address hash used for CHA and port selection.
fn mix(addr: u64, salt: u64) -> u64 {
    let mut z = (addr / 64).wrapping_add(salt.wrapping_mul(0x9e3779b97f4a7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl ClusterMode {
    /// The memory port that serves `addr` on `topo`, for MCDRAM
    /// (`is_mcdram = true`, hashed over the eight EDCs) or DDR
    /// (hashed over the two MCs — each MC drives three channels).
    pub fn port_for(self, topo: &Topology, addr: u64, is_mcdram: bool) -> MemPort {
        if is_mcdram {
            MemPort::Edc((mix(addr, 0xEDC) % topo.edcs.len() as u64) as u8)
        } else {
            MemPort::DdrMc((mix(addr, 0xDD4) % topo.ddr_mcs.len() as u64) as u8)
        }
    }

    /// The CHA (directory home) tile for `addr`, given the port that
    /// will serve it. In quadrant/hemisphere/SNC modes the CHA is
    /// constrained to the port's die region.
    pub fn cha_for(self, topo: &Topology, addr: u64, port: MemPort) -> Coord {
        let h = mix(addr, 0xC4A);
        let port_pos = topo.port(port);
        let candidates: Vec<Coord> = match self {
            ClusterMode::AllToAll => topo.tiles.clone(),
            ClusterMode::Quadrant | ClusterMode::Snc4 => {
                let q = topo.quadrant_of(port_pos);
                topo.tiles
                    .iter()
                    .copied()
                    .filter(|&c| topo.quadrant_of(c) == q)
                    .collect()
            }
            ClusterMode::Hemisphere => {
                let hm = topo.hemisphere_of(port_pos);
                topo.tiles
                    .iter()
                    .copied()
                    .filter(|&c| topo.hemisphere_of(c) == hm)
                    .collect()
            }
        };
        candidates[(h % candidates.len() as u64) as usize]
    }

    /// Average CHA→port hop count over a sample of addresses — the
    /// quantity the cluster mode actually improves.
    pub(crate) fn avg_cha_to_port_hops(
        self,
        topo: &Topology,
        is_mcdram: bool,
        samples: u64,
    ) -> f64 {
        let mut total = 0u64;
        for i in 0..samples {
            let addr = i.wrapping_mul(0x9e3779b97f4a7c15) & !63;
            let port = self.port_for(topo, addr, is_mcdram);
            let cha = self.cha_for(topo, addr, port);
            total += cha.hops_to(topo.port(port)) as u64;
        }
        total as f64 / samples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ports_cover_all_edcs_and_mcs() {
        let topo = Topology::knl7210();
        let mode = ClusterMode::Quadrant;
        let mut edcs = std::collections::HashSet::new();
        let mut mcs = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            match mode.port_for(&topo, i * 64, true) {
                MemPort::Edc(e) => {
                    edcs.insert(e);
                }
                MemPort::DdrMc(_) => panic!("asked for MCDRAM"),
            }
            match mode.port_for(&topo, i * 64, false) {
                MemPort::DdrMc(m) => {
                    mcs.insert(m);
                }
                MemPort::Edc(_) => panic!("asked for DDR"),
            }
        }
        assert_eq!(edcs.len(), 8);
        assert_eq!(mcs.len(), 2);
    }

    #[test]
    fn quadrant_mode_keeps_cha_near_port() {
        let topo = Topology::knl7210();
        for i in 0..2_000u64 {
            let addr = i * 4096 + 64;
            let port = ClusterMode::Quadrant.port_for(&topo, addr, true);
            let cha = ClusterMode::Quadrant.cha_for(&topo, addr, port);
            assert_eq!(
                topo.quadrant_of(cha),
                topo.quadrant_of(topo.port(port)),
                "CHA left the port's quadrant"
            );
        }
    }

    #[test]
    fn quadrant_beats_all_to_all_on_cha_port_distance() {
        let topo = Topology::knl7210();
        let q = ClusterMode::Quadrant.avg_cha_to_port_hops(&topo, true, 5_000);
        let a = ClusterMode::AllToAll.avg_cha_to_port_hops(&topo, true, 5_000);
        assert!(
            q < a * 0.7,
            "quadrant {q:.2} hops should clearly beat all-to-all {a:.2}"
        );
    }

    #[test]
    fn hemisphere_is_between() {
        let topo = Topology::knl7210();
        let q = ClusterMode::Quadrant.avg_cha_to_port_hops(&topo, true, 5_000);
        let h = ClusterMode::Hemisphere.avg_cha_to_port_hops(&topo, true, 5_000);
        let a = ClusterMode::AllToAll.avg_cha_to_port_hops(&topo, true, 5_000);
        assert!(q <= h && h <= a, "q={q:.2} h={h:.2} a={a:.2}");
    }

    #[test]
    fn cha_selection_is_deterministic() {
        let topo = Topology::knl7210();
        let port = ClusterMode::Quadrant.port_for(&topo, 0xABCD00, true);
        let a = ClusterMode::Quadrant.cha_for(&topo, 0xABCD00, port);
        let b = ClusterMode::Quadrant.cha_for(&topo, 0xABCD00, port);
        assert_eq!(a, b);
    }
}
