//! `simfabric` — the generic substrate shared by every other crate in
//! the KNL hybrid-memory testbed.
//!
//! The crate deliberately contains no knowledge of memory systems: it
//! provides the generic machinery a hardware model needs —
//!
//! * a simulated clock with picosecond resolution ([`SimTime`],
//!   [`Duration`]),
//! * a seeded xoshiro256++ generator ([`Rng`]) in [`prng`],
//! * the fixed-size tournament tree ([`LoserTree`](merge::LoserTree)) that trace replay
//!   uses to merge per-core clocks in earliest-clock order, in
//!   [`merge`],
//! * in-tree data parallelism over scoped threads in [`par`],
//! * measurement primitives (counters, log-scale histograms) in
//!   [`stats`],
//! * an opt-in telemetry layer (named-metric registry, phase spans,
//!   sampled time-series over simulated ticks, Chrome `trace_event`
//!   export) in [`telemetry`],
//! * warn-once diagnostics in [`env`](mod@env),
//! * a sharded, byte-bounded concurrent LRU
//!   ([`ShardedLru`](cache::ShardedLru)) in [`cache`],
//! * a multiplicative hasher for page-number keys ([`PageMap`],
//!   [`PageSet`]),
//! * byte-size units ([`ByteSize`]).
//!
//! # Determinism
//!
//! Everything in this crate is deterministic: every source of
//! randomness is an [`Rng`] seeded from a fixed `u64`, and the merge
//! tree breaks clock ties toward the lower slot. Two runs with the same
//! seeds replay the same access order bit-for-bit, which the property
//! and equivalence tests in each downstream crate rely on.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod env;
pub(crate) mod hash;
pub mod merge;
pub mod par;
pub mod prng;
pub mod stats;
pub mod telemetry;
pub(crate) mod time;
pub(crate) mod units;

pub use hash::{PageMap, PageSet};
pub use prng::Rng;
pub use stats::Histogram;
pub use telemetry::timeseries::TimeSeriesRecorder;
pub use telemetry::{MetricValue, MetricsRegistry};
pub use time::{Duration, SimTime};
pub use units::ByteSize;
