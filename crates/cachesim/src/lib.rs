//! `cachesim` — the cache hierarchy of the simulated KNL node.
//!
//! The crate provides the building blocks the trace simulator composes
//! into the KNL memory hierarchy described in §II of the paper:
//!
//! * [`cache`] — a generic set-associative cache with pluggable
//!   replacement ([`replacement`]) and write policies; used for the
//!   32-KB per-core L1 and the 1-MB per-tile L2.
//! * [`mshr`] — miss-status holding registers bounding the number of
//!   outstanding misses a core can sustain (the hardware lever behind
//!   the paper's threading results).
//! * [`mcdram_cache`] — the direct-mapped, memory-side MCDRAM cache
//!   used in *cache mode*, with both a line-accurate simulator and the
//!   analytic hit-ratio model that explains Fig. 2's bandwidth cliff.
//! * [`tlb`] — TLB and page-walk model (4-KB and 2-MB pages); random
//!   accesses to large footprints pay page walks, which is why Fig. 3's
//!   latency keeps climbing past 128 MB.
//! * [`hierarchy`] — glue composing L1 → L2 → (MCDRAM cache) → memory
//!   for trace replay.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod hierarchy;
pub mod mcdram_cache;
pub mod mshr;
pub mod replacement;
pub mod tlb;
