//! `simfabric` — the discrete-event simulation substrate used by every
//! other crate in the KNL hybrid-memory testbed.
//!
//! The crate deliberately contains no knowledge of memory systems: it
//! provides the generic machinery a hardware model needs —
//!
//! * a simulated clock with picosecond resolution ([`SimTime`],
//!   [`Duration`]),
//! * a deterministic event queue ([`EventQueue`], [`Simulator`]),
//! * reproducible, named random-number streams ([`RngPool`]),
//! * measurement primitives (counters, log-scale histograms, bandwidth
//!   meters, online mean/variance) in [`stats`],
//! * an opt-in telemetry layer (named-metric registry, phase spans,
//!   sampled time-series over simulated ticks, Chrome `trace_event`
//!   export) in [`telemetry`],
//! * warn-once parsing for tuning-knob environment variables in
//!   [`env`](mod@env),
//! * a sharded, byte-bounded concurrent LRU ([`ShardedLru`]) in
//!   [`cache`],
//! * a multiplicative hasher for page-number keys ([`PageMap`],
//!   [`PageSet`]) in [`hash`],
//! * shared error types ([`SimError`]).
//!
//! # Determinism
//!
//! Everything in this crate is deterministic: the event queue breaks
//! timestamp ties by insertion sequence number, and all randomness is
//! derived from named streams split off a single master seed. Two runs
//! with the same seed replay the same event order bit-for-bit, which the
//! property tests in each downstream crate rely on.
//!
//! # Example
//!
//! ```
//! use simfabric::{Simulator, Duration};
//!
//! let mut sim = Simulator::new();
//! let mut fired = Vec::new();
//! sim.schedule_in(Duration::from_ns(10.0), 1u32);
//! sim.schedule_in(Duration::from_ns(5.0), 2u32);
//! while let Some((t, ev)) = sim.pop() {
//!     fired.push((t.as_ns(), ev));
//! }
//! assert_eq!(fired, vec![(5.0, 2), (10.0, 1)]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod env;
pub mod error;
pub mod event;
pub mod hash;
pub mod merge;
pub mod par;
pub mod prng;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod units;

pub use cache::{ShardedCacheStats, ShardedLru};
pub use error::SimError;
pub use event::{EventQueue, Simulator};
pub use hash::{PageHasher, PageMap, PageSet};
pub use merge::LoserTree;
pub use prng::Rng;
pub use rng::RngPool;
pub use stats::{BandwidthMeter, Counter, Histogram, OnlineStats};
pub use telemetry::timeseries::{SeriesId, SeriesKind, TimeSeriesRecorder, TimeSeriesWindow};
pub use telemetry::{MetricValue, MetricsRegistry, SpanLog, SpanRecord};
pub use time::{Duration, SimTime};
pub use units::{ByteSize, GIB, KIB, MIB};
