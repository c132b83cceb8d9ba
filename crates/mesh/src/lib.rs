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
//! Modules:
//! * [`topology`] — tile grid, memory-port placement, hop distances;
//! * [`cluster`] — cluster modes and CHA-home selection;
//! * [`routing`] — XY routing with per-link occupancy for the
//!   event-driven path, plus the analytic average-latency helpers the
//!   machine model uses.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod routing;
pub mod topology;

pub use cluster::ClusterMode;
pub use routing::{MeshModel, MeshStats};
pub use topology::{Coord, MemPort, Topology};
