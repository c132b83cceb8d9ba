//! `knl` — the simulated Knights Landing node.
//!
//! This crate assembles the substrates (`memdev`, `cachesim`, `mesh`,
//! `numamem`, `memkind-sim`) into the machine the paper measures: a
//! 64-core Xeon Phi 7210 with 16 GB MCDRAM and 96 GB DDR4, configurable
//! in **flat** and **cache** memory modes (§II), with 1–4 hardware
//! threads per core and `numactl`-style placement control (§III).
//!
//! Two execution paths are provided:
//!
//! * the **analytic machine model** ([`machine::Machine`]) — workloads
//!   describe their memory behaviour as operations (streams, random
//!   accesses, compute) against allocated regions; the model computes
//!   phase times from calibrated device characteristics, Little's-law
//!   concurrency limits, MCDRAM-cache hit ratios and TLB overheads.
//!   This is what drives the paper-scale figure reproductions.
//! * the **trace simulator** ([`tracesim::TraceSim`]) — replays
//!   line-granularity address traces through the exact L1/L2/MCDRAM-
//!   cache/DRAM-bank models for validation at small scales.
//!
//! The calibration constants and their provenance live in [`calib`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod access;
pub mod calib;
pub mod classified;
pub mod config;
pub(crate) mod energy;
pub mod latency;
pub(crate) mod machine;
pub mod tracesim;

pub use access::{RandomOp, StreamOp};
pub use classified::{
    classify_signature, global_classify_cache, with_global_classify_cache, ClassifiedTrace,
    SharedClassifyCache,
};
pub use config::{MachineConfig, MemSetup};
pub use energy::{EnergyModel, EnergyReport};
pub use latency::dual_random_read_latency;
pub use machine::{Machine, MachineError};
