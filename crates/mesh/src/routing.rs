//! XY routing with link occupancy, and the analytic mesh-latency
//! helpers used by the machine model.
//!
//! The event-driven path reserves every link along the XY route through
//! a per-link regulator, so concurrent traffic through shared links
//! serializes. The analytic path reduces the mesh to an average
//! per-access latency from hop counts — adequate because on KNL the
//! mesh is provisioned to be far from saturation for memory traffic.

use crate::cluster::ClusterMode;
use crate::topology::{Coord, MemPort, Topology};
use simfabric::stats::Counter;
use simfabric::{Duration, SimTime};
use std::collections::HashMap;

/// Statistics for the mesh.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeshStats {
    /// Messages routed.
    pub messages: Counter,
    /// Total hops traversed.
    pub hops: Counter,
    /// Messages delayed by link contention.
    pub contended: Counter,
}

impl MeshStats {
    /// Combine two stat sets (commutative and associative: counter
    /// sums reduce to the same totals in any merge order).
    pub fn merge(self, other: MeshStats) -> MeshStats {
        MeshStats {
            messages: self.messages.merge(other.messages),
            hops: self.hops.merge(other.hops),
            contended: self.contended.merge(other.contended),
        }
    }
}

/// The mesh model: topology + cluster mode + link state.
#[derive(Debug, Clone)]
pub struct MeshModel {
    topo: Topology,
    mode: ClusterMode,
    hop_latency: Duration,
    /// Per-link flit slot: (from, to) → busy-until.
    links: HashMap<(Coord, Coord), SimTime>,
    /// Link service time per message (flit serialization).
    link_service: Duration,
    stats: MeshStats,
    /// Telemetry: traversal count per directed link, recorded in
    /// [`send`](Self::send). `None` (the default) costs one branch per
    /// hop; the map only grows to links actually traversed.
    link_traversals: Option<Box<HashMap<(Coord, Coord), u64>>>,
}

impl MeshModel {
    /// A KNL mesh in `mode`. Hop latency ≈ 2 mesh cycles at 1.7 GHz
    /// (~1.2 ns); a 64-B line occupies a link for one flit train
    /// (~0.4 ns at 3 flits/cycle × 32 B/flit).
    pub fn knl(mode: ClusterMode) -> Self {
        MeshModel {
            topo: Topology::knl7210(),
            mode,
            hop_latency: Duration::from_ns(1.2),
            links: HashMap::new(),
            link_service: Duration::from_ns(0.4),
            stats: MeshStats::default(),
            link_traversals: None,
        }
    }

    /// Start counting per-link traversals: every hop reserved by
    /// [`send`](Self::send) increments its directed link's counter.
    /// Purely observational — routing and timing are unchanged.
    pub fn enable_link_telemetry(&mut self) {
        if self.link_traversals.is_none() {
            self.link_traversals = Some(Box::default());
        }
    }

    /// Per-link traversal counts sorted by `(from, to)` coordinate, if
    /// link telemetry was enabled. Sorted so exports are deterministic
    /// regardless of hash-map iteration order.
    pub fn link_traversals(&self) -> Option<Vec<((Coord, Coord), u64)>> {
        let map = self.link_traversals.as_deref()?;
        let mut v: Vec<_> = map.iter().map(|(&k, &n)| (k, n)).collect();
        v.sort_unstable_by_key(|&((a, b), _)| (a.x, a.y, b.x, b.y));
        Some(v)
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The cluster mode.
    pub fn mode(&self) -> ClusterMode {
        self.mode
    }

    /// Statistics so far.
    pub fn stats(&self) -> MeshStats {
        self.stats
    }

    /// The XY route from `a` to `b` (exclusive of `a`, inclusive of
    /// `b`): first along X, then along Y, as KNL routes.
    pub fn route(a: Coord, b: Coord) -> Vec<Coord> {
        let mut path = Vec::with_capacity(a.hops_to(b) as usize);
        let mut cur = a;
        while cur.x != b.x {
            cur.x = if b.x > cur.x { cur.x + 1 } else { cur.x - 1 };
            path.push(cur);
        }
        while cur.y != b.y {
            cur.y = if b.y > cur.y { cur.y + 1 } else { cur.y - 1 };
            path.push(cur);
        }
        path
    }

    /// Send one message from `a` to `b` starting at `at`, reserving
    /// each link in turn; returns arrival time.
    pub fn send(&mut self, a: Coord, b: Coord, at: SimTime) -> SimTime {
        self.stats.messages.incr();
        let mut t = at;
        let mut prev = a;
        let mut contended = false;
        for next in Self::route(a, b) {
            if let Some(map) = &mut self.link_traversals {
                *map.entry((prev, next)).or_insert(0) += 1;
            }
            let link = self.links.entry((prev, next)).or_insert(SimTime::ZERO);
            if *link > t {
                contended = true;
                t = *link;
            }
            t += self.hop_latency;
            *link = t - self.hop_latency + self.link_service;
            self.stats.hops.incr();
            prev = next;
        }
        if contended {
            self.stats.contended.incr();
        }
        t
    }

    /// Record a message whose latency the caller charges analytically
    /// (the trace simulator's memory round trips): bumps the message
    /// and hop counters without reserving links, so timing is
    /// unaffected and the counts are independent of processing order.
    #[inline]
    pub fn note_analytic_message(&mut self, hops: u64) {
        self.stats.messages.incr();
        self.stats.hops.add(hops);
    }
}

impl MeshModel {
    /// The full memory path for tile `tile` accessing `addr` in memory
    /// class `is_mcdram`, at `at`: tile → CHA → port. Returns
    /// `(arrival at port, port)`. The response path is accounted
    /// analytically by the caller (responses use the opposite-direction
    /// links, which carry the same load by symmetry).
    pub fn memory_path(
        &mut self,
        tile: u32,
        addr: u64,
        is_mcdram: bool,
        at: SimTime,
    ) -> (SimTime, MemPort) {
        let src = self.topo.tile(tile);
        let port = self.mode.port_for(&self.topo, addr, is_mcdram);
        let cha = self.mode.cha_for(&self.topo, addr, port);
        let t1 = self.send(src, cha, at);
        let t2 = self.send(cha, self.topo.port(port), t1);
        (t2, port)
    }

    /// Analytic average one-way mesh latency for an L2 miss (tile→CHA→
    /// port plus the return trip), used by the machine model.
    pub fn avg_memory_latency(&self, is_mcdram: bool) -> Duration {
        let tile_to_cha = self.topo.avg_tile_hops();
        let cha_to_port = self.mode.avg_cha_to_port_hops(&self.topo, is_mcdram, 4096);
        // Round trip: request (tile→CHA→port) + response (port→tile,
        // approximated by avg tile distance).
        let hops = tile_to_cha + cha_to_port + tile_to_cha;
        self.hop_latency.scale(hops)
    }

    /// The round-trip hop count behind [`Self::avg_memory_latency`],
    /// rounded to whole hops, for analytic message accounting.
    pub fn avg_memory_hops(&self, is_mcdram: bool) -> u64 {
        let tile_to_cha = self.topo.avg_tile_hops();
        let cha_to_port = self.mode.avg_cha_to_port_hops(&self.topo, is_mcdram, 4096);
        (tile_to_cha + cha_to_port + tile_to_cha).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_is_xy_and_correct_length() {
        let a = Coord { x: 1, y: 1 };
        let b = Coord { x: 4, y: 3 };
        let r = MeshModel::route(a, b);
        assert_eq!(r.len(), 5);
        // X first.
        assert_eq!(r[0], Coord { x: 2, y: 1 });
        assert_eq!(r[2], Coord { x: 4, y: 1 });
        assert_eq!(r[4], b);
        assert!(MeshModel::route(a, a).is_empty());
    }

    #[test]
    fn send_charges_hop_latency() {
        let mut m = MeshModel::knl(ClusterMode::Quadrant);
        let a = Coord { x: 0, y: 0 };
        let b = Coord { x: 3, y: 0 };
        let t = m.send(a, b, SimTime::ZERO);
        assert!((t.as_ns() - 3.0 * 1.2).abs() < 1e-9);
        assert_eq!(m.stats().hops.get(), 3);
    }

    #[test]
    fn contention_serializes_shared_links() {
        let mut m = MeshModel::knl(ClusterMode::Quadrant);
        let a = Coord { x: 0, y: 0 };
        let b = Coord { x: 5, y: 0 };
        let t1 = m.send(a, b, SimTime::ZERO);
        let t2 = m.send(a, b, SimTime::ZERO);
        assert!(t2 > t1, "second message should queue behind the first");
        assert_eq!(m.stats().contended.get(), 1);
        // Disjoint routes don't contend.
        let c = Coord { x: 0, y: 5 };
        let d = Coord { x: 5, y: 5 };
        let t3 = m.send(c, d, SimTime::ZERO);
        assert_eq!(t3, t1);
    }

    #[test]
    fn memory_path_reaches_a_port_deterministically() {
        let mut m1 = MeshModel::knl(ClusterMode::Quadrant);
        let mut m2 = MeshModel::knl(ClusterMode::Quadrant);
        let (t1, p1) = m1.memory_path(7, 0xDEADBEC0, true, SimTime::ZERO);
        let (t2, p2) = m2.memory_path(7, 0xDEADBEC0, true, SimTime::ZERO);
        assert_eq!(t1, t2);
        assert_eq!(p1, p2);
        assert!(matches!(p1, MemPort::Edc(_)));
        let (_, p3) = m1.memory_path(7, 0xDEADBEC0, false, SimTime::ZERO);
        assert!(matches!(p3, MemPort::DdrMc(_)));
    }

    #[test]
    fn quadrant_mode_lowers_avg_memory_latency() {
        let q = MeshModel::knl(ClusterMode::Quadrant).avg_memory_latency(true);
        let a = MeshModel::knl(ClusterMode::AllToAll).avg_memory_latency(true);
        assert!(q < a, "quadrant {q} should beat all-to-all {a}");
        // Both in the ~5–20 ns band that separates L2 (~15 ns total)
        // from memory (~130+ ns) in Fig. 3's middle tier.
        assert!(q.as_ns() > 5.0 && a.as_ns() < 25.0, "q={q} a={a}");
    }
}
