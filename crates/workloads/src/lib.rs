//! `workloads` — the paper's benchmarks and proxy applications,
//! implemented from scratch (§III-B, Table I).
//!
//! | Module | Application | Type | Access pattern | Metric |
//! |---|---|---|---|---|
//! | [`stream`] | STREAM (triad) | micro | sequential | GB/s |
//! | [`tinymembench`] | TinyMemBench | micro | random chase | ns |
//! | [`dgemm`] | DGEMM | scientific | sequential | GFLOPS |
//! | [`minife`] | MiniFE (CG) | scientific | sequential | CG MFLOPS |
//! | [`gups`] | GUPS | data analytics | random | GUPS |
//! | [`graph500`] | Graph500 (BFS) | data analytics | random | TEPS |
//! | [`xsbench`] | XSBench | scientific | random | lookups/s |
//!
//! Every workload is a **machine-model driver**: the algorithm's
//! memory behaviour expressed as [`knl::StreamOp`]/[`knl::RandomOp`]
//! phases against regions allocated through the simulated KNL, used to
//! reproduce the paper's figures at full problem sizes (up to 90 GB of
//! *virtual* footprint; see DESIGN.md on the virtual-footprint
//! substitution). [`tracegen`] emits the same applications as
//! per-access address streams for trace replay.
//!
//! The [`catalog`](mod@catalog) module reproduces Table I, and [`PaperWorkload`] is
//! the common interface the experiment harness sweeps over.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod dgemm;
pub mod graph500;
pub mod gups;
pub mod minife;
pub mod stream;
pub mod tinymembench;
pub mod tracegen;
pub mod xsbench;

use knl::{Machine, MachineError};
use simfabric::ByteSize;

/// Common interface for the five applications of Table I plus the two
/// micro-benchmarks, as swept by the experiment harness.
pub trait PaperWorkload {
    /// Display name ("DGEMM", "Graph500", …).
    fn name(&self) -> &'static str;

    /// Name of the reported metric ("GFLOPS", "TEPS", …).
    fn metric(&self) -> &'static str;

    /// Total memory footprint of this problem instance.
    fn footprint(&self) -> ByteSize;

    /// Run the workload on the machine model and return the metric
    /// (higher is better). `Err(MachineError::Alloc(..))` means the
    /// problem does not fit the machine's memory binding — the paper's
    /// missing-bar case.
    fn run_model(&self, machine: &mut Machine) -> Result<f64, MachineError>;
}

pub use catalog::AccessClass;
