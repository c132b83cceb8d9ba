//! Benchmark harness crate: see `benches/` for the benches (one per
//! paper table/figure plus trace-replay and ablation benches),
//! `src/harness.rs` for the in-tree fixed-iteration harness they run
//! on, and `src/bin/repro.rs` for the binary that regenerates every
//! table and figure as text/CSV.

pub mod advisor;
pub mod gate;
pub mod harness;
pub mod replay;
pub mod serve;
pub(crate) mod sweep;

/// Define a bench group function that runs each target against a
/// default-configured [`harness::Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub(crate) fn $name() {
            let mut criterion = $crate::harness::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Define `main` running the named bench groups in order.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
