//! Graph500 \[15\] — breadth-first search over a scale-free graph.
//!
//! The reference benchmark generates a scale-free R-MAT graph
//! (scale s → 2^s vertices, edge factor 16), runs BFS from 64 random
//! roots, validates each parent tree, and reports the harmonic mean of
//! traversed edges per second (TEPS). The paper uses the v2.1.4
//! OpenMP/CSR reference implementation.
//!
//! The model prices BFS memory behaviour per traversed edge with the
//! calibrated constants in [`knl::calib`].

use crate::PaperWorkload;
use knl::access::RandomOp;
use knl::{calib, Machine, MachineError};
use simfabric::ByteSize;

/// A Graph500 problem instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Graph500 {
    /// Total graph footprint in bytes (Fig. 4d's x-axis).
    pub footprint_bytes: u64,
}

impl Graph500 {
    /// Problem with the given footprint.
    pub fn with_footprint(footprint: ByteSize) -> Self {
        Graph500 {
            footprint_bytes: footprint.as_u64(),
        }
    }

    /// Undirected edge count implied by the footprint.
    pub(crate) fn edges(&self) -> u64 {
        (self.footprint_bytes as f64 / calib::G500_BYTES_PER_EDGE) as u64
    }

    /// Model: harmonic-mean TEPS on `machine`.
    pub fn model_teps(&self, machine: &mut Machine) -> Result<f64, MachineError> {
        let graph = machine.alloc("graph_csr", ByteSize::bytes(self.footprint_bytes))?;
        let op = RandomOp {
            region: graph.clone(),
            count: self.edges(),
            dependent_depth: calib::G500_DEPS_PER_EDGE,
            mlp_per_thread: calib::G500_MLP_PER_THREAD,
            updates: true, // parent claims dirty the lines
            cpu_ns_per_unit: calib::G500_CPU_NS_PER_EDGE,
        };
        let base = machine.price_random(&op);
        // Load imbalance and atomic contention inflate with thread
        // count; this term places the TEPS peak at 128 threads.
        let t = machine.config().threads as f64 / 64.0;
        let inflation = 1.0 + calib::G500_IMBALANCE_COEFF * t * t * t;
        let total = base.scale(inflation);
        machine.random(&op); // account the traffic
        machine.release(&graph)?;
        Ok(self.edges() as f64 / total.as_secs())
    }
}

impl PaperWorkload for Graph500 {
    fn name(&self) -> &'static str {
        "Graph500"
    }

    fn metric(&self) -> &'static str {
        "TEPS"
    }

    fn footprint(&self) -> ByteSize {
        ByteSize::bytes(self.footprint_bytes)
    }

    fn run_model(&self, machine: &mut Machine) -> Result<f64, MachineError> {
        self.model_teps(machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl::MemSetup;

    #[test]
    fn model_matches_fig4d_scale_and_large_size_ordering() {
        let g = Graph500::with_footprint(ByteSize::gib(35));
        let run = |setup| {
            let mut m = Machine::knl7210(setup, 64).unwrap();
            g.model_teps(&mut m).unwrap()
        };
        let dram = run(MemSetup::DramOnly);
        let cache = run(MemSetup::CacheMode);
        assert!(dram > 1.0e8 && dram < 2.5e8, "DRAM TEPS {dram}");
        let ratio = dram / cache;
        assert!(
            ratio > 1.15 && ratio < 1.5,
            "DRAM/cache at 35 GB should be ~1.3x: {ratio}"
        );
        // 35 GB does not fit HBM.
        let mut hbm = Machine::knl7210(MemSetup::HbmOnly, 64).unwrap();
        assert!(g.model_teps(&mut hbm).is_err());
    }

    #[test]
    fn model_small_graphs_show_small_differences() {
        let g = Graph500::with_footprint(ByteSize::gib_f(1.1));
        let run = |setup| {
            let mut m = Machine::knl7210(setup, 64).unwrap();
            g.model_teps(&mut m).unwrap()
        };
        let dram = run(MemSetup::DramOnly);
        let hbm = run(MemSetup::HbmOnly);
        let cache = run(MemSetup::CacheMode);
        for (name, v) in [("hbm", hbm), ("cache", cache)] {
            let rel = (dram - v).abs() / dram;
            assert!(rel < 0.15, "{name} differs from dram by {rel}");
        }
    }

    #[test]
    fn model_thread_scaling_peaks_at_128() {
        let g = Graph500::with_footprint(ByteSize::gib(17));
        let run = |threads| {
            let mut m = Machine::knl7210(MemSetup::DramOnly, threads).unwrap();
            g.model_teps(&mut m).unwrap()
        };
        let t64 = run(64);
        let t128 = run(128);
        let t192 = run(192);
        let t256 = run(256);
        assert!(t128 > t64, "no gain at 128");
        assert!(
            t128 >= t192 && t128 >= t256,
            "peak not at 128: {t64} {t128} {t192} {t256}"
        );
        let gain = t128 / t64;
        assert!(gain > 1.3 && gain < 1.8, "gain at 128 threads {gain}");
    }
}
