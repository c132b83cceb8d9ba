//! `memdev` — models of the two memory technologies on a Knights
//! Landing node: off-package **DDR4** (six channels, two controllers)
//! and on-package **MCDRAM** (eight 2-GB modules, 3D-stacked).
//!
//! Two levels of fidelity are provided:
//!
//! * [`spec::MemDeviceSpec`] — a calibrated analytic description
//!   (capacity, peak/sustained bandwidth, idle latency, maximum
//!   useful concurrency) consumed by the Little's-law machine model in
//!   the `knl` crate. The calibration constants come straight from the
//!   paper's measurements (§IV-A): DDR sustains 77 GB/s on STREAM triad
//!   with a 130.4 ns idle latency; MCDRAM sustains 330 GB/s at one
//!   hardware thread per core (420 GB/s with more) with a 154.0 ns idle
//!   latency.
//! * [`bank::DramModel`] — a channel/bank/row-buffer model with
//!   event-level timing, used by the trace-driven simulator and by the
//!   unit tests that validate the analytic constants against the
//!   detailed model.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bank;
pub mod presets;
pub(crate) mod spec;

pub use presets::{ddr4_knl, mcdram_knl};
pub use spec::{DeviceKind, MemDeviceSpec};
