//! `mesh` — the KNL network-on-chip.
//!
//! KNL tiles are connected by a 2D mesh (§II, Fig. 1 of the paper);
//! every L2 miss traverses the mesh twice before reaching memory: once
//! from the requesting tile to the distributed tag directory (CHA)
//! slice that homes the address, and once from the CHA to the memory
//! port — an MCDRAM EDC or a DDR memory controller. The *cluster mode*
//! (all-to-all, quadrant, hemisphere, SNC) constrains which CHA homes
//! an address relative to its memory port and thereby the average hop
//! count; the testbed in the paper runs quadrant mode (§III-A).
//!
//! Items:
//! * [`Topology`] — tile grid, memory-port placement, hop distances;
//! * [`ClusterMode`] — cluster modes and CHA-home selection;
//! * [`MeshModel`] — the analytic average-latency helpers the machine
//!   model and trace replay use, plus the message and hop counters
//!   ([`MeshStats`]) that replay bumps per memory round trip.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub(crate) mod cluster;
pub(crate) mod routing;
pub(crate) mod topology;

pub use cluster::ClusterMode;
pub use routing::{MeshModel, MeshStats};
pub use topology::Topology;
