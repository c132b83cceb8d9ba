//! `hybridmem` — the paper's characterization framework.
//!
//! This crate ties the simulated KNL node and the workload suite into
//! the experiment pipeline of the paper: configuration sweeps over
//! memory setup, problem size and thread count; a registry that
//! regenerates every table and figure; reporters; shape validators
//! checking that the reproduction preserves the paper's findings; and
//! the placement-guidelines advisor the paper's conclusions amount to.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub(crate) mod advisor;
pub mod archive;
pub(crate) mod experiment;
pub mod extensions;
pub mod figures;
pub mod json;
pub(crate) mod migration;
pub mod paper;
pub(crate) mod profile;
pub mod report;
pub mod sensitivity;
pub mod service;
pub(crate) mod sweep;
pub mod validate;

pub use advisor::{advise, AppProfile, ReplayedAdvice};
pub use archive::{diff, Archive};
pub use experiment::{AppSpec, SizeSweep, ThreadSweep, TraceSweep};
pub use extensions::decompose;
pub use figures::FigureData;
pub use migration::{
    ext_migration, render_migration_sweep, run_migration_sweep, MigrationSweepConfig,
};
pub use paper::compare_with_model;
pub use profile::{
    check_chrome_trace, check_metrics, check_timeseries, metrics_to_json, render_report,
};
pub use report::render_trace_replays;
pub use sensitivity::all_scans;
pub use service::{
    advice_to_json, answer, canonicalize, check_advice, AdvisorQuery, AdvisorService, QueryKey,
};
pub use sweep::{classified_for, replay_point, TraceSpec};
