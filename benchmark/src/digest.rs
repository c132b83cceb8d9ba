//! Digests of simulated results. Host timings never enter a digest;
//! only simulated outputs do, so two passes over the same inputs must
//! produce equal digests whatever the host did.

use knl::tracesim::{TraceSim, TraceSimReport};
use memkind_sim::migrate::MigrationStats;
use simfabric::telemetry::MetricValue;

/// An FNV-1a accumulator.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold one word.
    pub fn word(mut self, x: u64) -> Self {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    /// Fold a string (length-prefixed, so concatenations differ).
    pub fn str(self, s: &str) -> Self {
        s.bytes()
            .fold(self.word(s.len() as u64), |h, b| h.word(b as u64))
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Every field of a replay report.
pub fn report(h: Fnv, r: &TraceSimReport) -> Fnv {
    h.word(r.makespan.as_ps())
        .word(r.accesses)
        .word(r.memory_accesses)
        .word(r.mcdram_cache_hits)
        .word(r.avg_latency.as_ps())
        .word(r.bandwidth_gbs.to_bits())
}

/// The migration counters, move digest included.
pub fn migration(h: Fnv, s: &MigrationStats) -> Fnv {
    h.word(s.rebalances)
        .word(s.promoted_pages)
        .word(s.demoted_pages)
        .word(s.bytes_moved)
        .word(s.migration_time.as_ps())
        .word(s.sampled_accesses)
        .word(s.hbm_routed)
        .word(s.peak_resident_pages)
        .word(s.digest)
}

/// A finished replay: its report plus the timing-stage device
/// counters (DRAM banks, MSHR files, mesh) and migration state. The
/// private-cache counters are left out on purpose: a classified replay
/// never consults the private hierarchies, yet must match a streaming
/// replay of the same trace.
pub fn replay(r: &TraceSimReport, sim: &TraceSim) -> u64 {
    let mut h = report(Fnv::default(), r);
    for s in [sim.ddr_stats(), sim.hbm_stats()] {
        h = h
            .word(s.row_hits.get())
            .word(s.row_misses.get())
            .word(s.row_closed.get())
            .word(s.bank_conflicts.get());
    }
    let m = sim.mesh_stats();
    h = h
        .word(m.messages.get())
        .word(m.hops.get())
        .word(m.contended.get());
    let reg = sim.metrics_registry();
    for name in ["mshr.allocations", "mshr.merges", "mshr.stalls"] {
        if let Some(MetricValue::Counter(n)) = reg.get(name) {
            h = h.word(*n);
        }
    }
    if let Some(s) = sim.migration_stats() {
        h = migration(h, &s);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_distinguishes_order_and_concatenation() {
        let a = Fnv::default().word(1).word(2).finish();
        let b = Fnv::default().word(2).word(1).finish();
        assert_ne!(a, b);
        let ab = Fnv::default().str("ab").str("c").finish();
        let abc = Fnv::default().str("a").str("bc").finish();
        assert_ne!(ab, abc);
    }
}
