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

pub mod advisor;
pub mod archive;
pub mod experiment;
pub mod extensions;
pub mod figures;
pub mod json;
pub mod migration;
pub mod paper;
pub mod profile;
pub mod report;
pub mod sensitivity;
pub mod service;
pub mod sweep;
pub mod validate;

pub use advisor::{
    advise, advise_replayed, AppProfile, Recommendation, ReplayedAdvice, ReplayedCandidate,
};
pub use archive::{diff, Archive, Divergence};
pub use experiment::{
    AppSpec, Measurement, Series, SizeSweep, ThreadSweep, TraceReplay, TraceSweep,
};
pub use extensions::{decompose, DecompositionPlan};
pub use figures::{all_figures, FigureData};
pub use migration::{
    ext_migration, render_migration_sweep, run_migration_sweep, MigrationSweep,
    MigrationSweepConfig,
};
pub use paper::{compare_with_model, paper_reference};
pub use profile::{
    check_chrome_trace, check_metrics, check_timeseries, metrics_to_json, render_report,
    ChromeTraceSummary, MetricsSummary, TimeSeriesSummary,
};
pub use report::{render_figure, render_trace_replays, series_csv};
pub use sensitivity::{all_scans, scan_split_boundary_replayed, SensitivityScan};
pub use service::{
    advice_to_json, answer, canonicalize, check_advice, fold_threads, AdviceSummary, AdvisorQuery,
    AdvisorService, BatchStats, QueryKey, ResultCache,
};
pub use sweep::{classified_for, replay_into, replay_point, TraceSpec};
pub use validate::{validate_all, ShapeCheck};
