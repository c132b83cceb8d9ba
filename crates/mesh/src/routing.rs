//! The analytic mesh-latency helpers used by the machine model and
//! trace replay.
//!
//! The mesh is reduced to an average per-access latency from hop
//! counts — adequate because on KNL the mesh is provisioned to be far
//! from saturation for memory traffic. Trace replay charges that
//! latency itself and only counts messages and hops here.

use crate::cluster::ClusterMode;
use crate::topology::Topology;
use simfabric::stats::Counter;
use simfabric::Duration;

/// Statistics for the mesh.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeshStats {
    /// Messages routed.
    pub messages: Counter,
    /// Total hops traversed.
    pub hops: Counter,
    /// Messages delayed by link contention. Always 0: no link is
    /// reserved, so no message ever waits for one.
    pub contended: Counter,
}

/// The mesh model: topology + cluster mode + message counters.
#[derive(Debug, Clone)]
pub struct MeshModel {
    topo: Topology,
    mode: ClusterMode,
    hop_latency: Duration,
    stats: MeshStats,
}

impl MeshModel {
    /// A KNL mesh in `mode`. Hop latency ≈ 2 mesh cycles at 1.7 GHz
    /// (~1.2 ns).
    pub fn knl(mode: ClusterMode) -> Self {
        MeshModel {
            topo: Topology::knl7210(),
            mode,
            hop_latency: Duration::from_ns(1.2),
            stats: MeshStats::default(),
        }
    }

    /// The cluster mode.
    pub fn mode(&self) -> ClusterMode {
        self.mode
    }

    /// Statistics so far.
    pub fn stats(&self) -> MeshStats {
        self.stats
    }

    /// Record a message whose latency the caller charges analytically
    /// (the trace simulator's memory round trips): bumps the message
    /// and hop counters, so the counts are independent of processing
    /// order.
    #[inline]
    pub fn note_analytic_message(&mut self, hops: u64) {
        self.stats.messages.incr();
        self.stats.hops.add(hops);
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
    fn quadrant_mode_lowers_avg_memory_latency() {
        let q = MeshModel::knl(ClusterMode::Quadrant).avg_memory_latency(true);
        let a = MeshModel::knl(ClusterMode::AllToAll).avg_memory_latency(true);
        assert!(q < a, "quadrant {q} should beat all-to-all {a}");
        // Both in the ~5–20 ns band that separates L2 (~15 ns total)
        // from memory (~130+ ns) in Fig. 3's middle tier.
        assert!(q.as_ns() > 5.0 && a.as_ns() < 25.0, "q={q} a={a}");
    }
}
