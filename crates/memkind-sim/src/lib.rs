//! `memkind-sim` — a kind-based heap manager over simulated NUMA
//! memory, modeled on the memkind library \[10\] the paper cites for
//! fine-grained data placement in flat mode.
//!
//! The real memkind exposes `hbw_malloc`/`memkind_malloc(kind, …)` so
//! an application can put individual data structures in MCDRAM while
//! the rest stays in DDR. This simulator reproduces that control
//! surface over [`numamem`]'s policy engine:
//!
//! * [`kind::Kind`] — the allocation kinds (default, HBW, preferred,
//!   interleaved) with the real library's fallback semantics;
//! * [`arena::Arena`] — a virtual-address allocator (first-fit free
//!   list with coalescing) so every allocation has a stable address
//!   range that traces and access streams can reference;
//! * [`heap::MemkindHeap`] — the `hbw_malloc`-style front end mapping
//!   virtual pages to NUMA nodes, queryable by the performance model
//!   (`node_of(addr)`);
//! * [`migrate::PageScheduler`] — the periodic hot-page DDR↔MCDRAM
//!   scheduler (hotness sampling, decayed counters, capacity budget,
//!   migration cost model) the trace simulator drives for dynamic
//!   placements — the Cori tuning scenario the paper could not
//!   measure.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub(crate) mod arena;
pub(crate) mod heap;
pub(crate) mod kind;
pub mod migrate;

pub use arena::Arena;
pub use heap::{Block, HeapError, MemkindHeap};
pub use kind::Kind;
pub use migrate::{MigrationCost, MigrationSpec, MigrationStats, PageScheduler, PAGE_BYTES};
