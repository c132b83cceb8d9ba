//! # knl-hybrid-memory
//!
//! A full Rust reproduction of *"Exploring the Performance Benefit of
//! Hybrid Memory System on HPC Environments"* (Peng et al., 2017):
//! a simulated Intel Knights Landing node with its MCDRAM + DDR4
//! hybrid memory system, the paper's complete workload suite
//! implemented from scratch, and an experiment harness that
//! regenerates every table and figure in the evaluation.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`simfabric`] — simulation substrate (time, seeded PRNG,
//!   earliest-clock merge tree, stats, telemetry);
//! * [`memdev`] — DDR4 and MCDRAM device models;
//! * [`cachesim`] — L1/L2 caches, MSHRs, direct-mapped MCDRAM cache,
//!   TLB;
//! * [`mesh`] — the tile mesh and cluster modes;
//! * [`numamem`] — NUMA topology, policies, and the numactl front end;
//! * [`memkind_sim`] — the memkind-style heap manager;
//! * [`knl`] — the machine model (analytic + trace-driven);
//! * [`workloads`] — STREAM, TinyMemBench, DGEMM, MiniFE, GUPS,
//!   Graph500, XSBench;
//! * [`hybridmem`] — sweeps, the figure registry, validators, and the
//!   placement advisor.
//!
//! ## Quickstart
//!
//! ```
//! use knl_hybrid_memory::prelude::*;
//!
//! // A KNL node with MCDRAM in flat mode, everything bound to HBM.
//! let mut machine = Machine::knl7210(MemSetup::HbmOnly, 64).unwrap();
//! let bench = StreamBench::new(ByteSize::gib(6));
//! let bw = bench.triad_bandwidth(&mut machine).unwrap();
//! assert!(bw > 300.0); // the paper's 330 GB/s HBM plateau
//! ```

#![warn(missing_docs)]

pub use cachesim;
pub use hybridmem;
pub use knl;
pub use memdev;
pub use memkind_sim;
pub use mesh;
pub use numamem;
pub use simfabric;
pub use workloads;

/// The most commonly used items, for examples and quick scripts.
pub mod prelude {
    pub use hybridmem::{advise, AppProfile, AppSpec, SizeSweep, ThreadSweep};
    pub use knl::{Machine, MachineConfig, MemSetup};
    pub use memkind_sim::Kind;
    pub use simfabric::ByteSize;
    pub use workloads::stream::StreamBench;
    pub use workloads::PaperWorkload;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let mut m = Machine::knl7210(MemSetup::DramOnly, 64).unwrap();
        let bench = StreamBench::new(ByteSize::gib(3));
        let bw = bench.triad_bandwidth(&mut m).unwrap();
        assert!(bw > 70.0 && bw < 80.0);
    }
}
