//! `numamem` — NUMA topology and memory-policy engine.
//!
//! In flat mode the KNL exposes MCDRAM as a second, CPU-less NUMA node
//! next to the DDR node (§II of the paper); data placement is steered
//! with `numactl` (`--membind`, `--preferred`, `--interleave`) or with
//! the memkind heap manager built on top. This crate reproduces those
//! semantics over simulated devices:
//!
//! * `topology` — nodes, capacities and the distance matrix
//!   (Table II of the paper);
//! * `policy` — allocation policies with Linux-faithful fallback
//!   behaviour (strict bind vs preferred vs interleave);
//! * [`numactl`] — a `numactl`-style command-line front end and the
//!   `--hardware` report, reproduced byte-for-byte in the Table II
//!   test;
//! * [`system`] — page-granular allocation bookkeeping shared by the
//!   policies and the memkind simulator.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod numactl;
pub(crate) mod policy;
pub mod system;
pub(crate) mod topology;

pub use policy::{MemPolicy, PolicyError};
pub use system::{Allocation, NumaSystem};
pub use topology::{NodeId, NodeKind, NumaTopology};
