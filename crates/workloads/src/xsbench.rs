//! XSBench \[16\] — the Monte Carlo macroscopic cross-section lookup
//! kernel from OpenMC.
//!
//! Each macroscopic lookup samples a particle energy and material,
//! then for every nuclide in the material binary-searches the
//! unionized energy grid and interpolates the five cross-section
//! channels; the metric is lookups per second. The paper scales the
//! grid-point count (`-g`) to push the footprint from 5.6 to 90 GB —
//! beyond MCDRAM, almost filling DDR.
//!
//! The model prices the per-nuclide dependent chases with the
//! calibrated constants in [`knl::calib`].

use crate::PaperWorkload;
use knl::access::RandomOp;
use knl::{calib, Machine, MachineError};
use simfabric::ByteSize;

/// An XSBench problem instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XsBench {
    /// Total footprint in bytes (Fig. 4e's x-axis; scaled via `-g`).
    pub footprint_bytes: u64,
    /// Macroscopic lookups to perform (reference default 15 M).
    pub lookups: u64,
}

impl XsBench {
    /// Problem with the given footprint.
    pub fn with_footprint(footprint: ByteSize) -> Self {
        XsBench {
            footprint_bytes: footprint.as_u64(),
            lookups: 15_000_000,
        }
    }

    /// Dependent uncached accesses per nuclide micro-lookup at this
    /// problem size.
    pub(crate) fn deps_per_nuclide(&self) -> f64 {
        let doublings = (self.footprint_bytes as f64 / calib::XSBENCH_REFERENCE_BYTES)
            .log2()
            .max(0.0);
        calib::XSBENCH_DEPS_BASE + calib::XSBENCH_DEPS_PER_DOUBLING * doublings
    }

    /// Model: macroscopic lookups per second on `machine`.
    pub(crate) fn model_lookups_per_sec(&self, machine: &mut Machine) -> Result<f64, MachineError> {
        let grid = machine.alloc("xs_grid", ByteSize::bytes(self.footprint_bytes))?;
        let nuclide_units = self.lookups as f64 * calib::XSBENCH_NUCLIDES_PER_LOOKUP;
        let op = RandomOp {
            region: grid.clone(),
            count: nuclide_units as u64,
            dependent_depth: self.deps_per_nuclide().round() as u32,
            mlp_per_thread: calib::XSBENCH_MLP_PER_THREAD,
            updates: false,
            cpu_ns_per_unit: calib::XSBENCH_CPU_NS_PER_NUCLIDE,
        };
        let unit_rate = machine.random_rate(&op);
        machine.random(&op);
        machine.release(&grid)?;
        Ok(unit_rate / calib::XSBENCH_NUCLIDES_PER_LOOKUP)
    }
}

impl PaperWorkload for XsBench {
    fn name(&self) -> &'static str {
        "XSBench"
    }

    fn metric(&self) -> &'static str {
        "lookups/s"
    }

    fn footprint(&self) -> ByteSize {
        ByteSize::bytes(self.footprint_bytes)
    }

    fn run_model(&self, machine: &mut Machine) -> Result<f64, MachineError> {
        self.model_lookups_per_sec(machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl::MemSetup;

    #[test]
    fn model_matches_fig4e_scale_and_dram_preference() {
        let xs = XsBench::with_footprint(ByteSize::gib_f(5.6));
        let run = |setup| {
            let mut m = Machine::knl7210(setup, 64).unwrap();
            xs.model_lookups_per_sec(&mut m).unwrap()
        };
        let dram = run(MemSetup::DramOnly);
        let hbm = run(MemSetup::HbmOnly);
        assert!(dram > 2.0e6 && dram < 3.5e6, "DRAM lookups/s {dram}");
        assert!(dram > hbm, "DRAM should win at 1 thread/core");
        assert!(hbm / dram > 0.8);
    }

    #[test]
    fn model_90gb_runs_only_on_dram() {
        let xs = XsBench::with_footprint(ByteSize::gib(90));
        let mut dram = Machine::knl7210(MemSetup::DramOnly, 64).unwrap();
        let d = xs.model_lookups_per_sec(&mut dram).unwrap();
        assert!(d > 1.5e6, "90 GB DRAM rate {d}");
        let mut hbm = Machine::knl7210(MemSetup::HbmOnly, 64).unwrap();
        assert!(xs.model_lookups_per_sec(&mut hbm).is_err());
        // Larger problems are slower (deeper uncached search).
        let xs_small = XsBench::with_footprint(ByteSize::gib_f(5.6));
        let mut dram2 = Machine::knl7210(MemSetup::DramOnly, 64).unwrap();
        assert!(xs_small.model_lookups_per_sec(&mut dram2).unwrap() > d);
    }

    #[test]
    fn model_threads_flip_the_winner_fig6d() {
        // §IV-D: at 256 threads HBM (and cache mode) reach ~2.5x and
        // overtake DRAM, which only gains ~1.5x.
        let xs = XsBench::with_footprint(ByteSize::gib_f(5.6));
        let run = |setup, threads| {
            let mut m = Machine::knl7210(setup, threads).unwrap();
            xs.model_lookups_per_sec(&mut m).unwrap()
        };
        let d64 = run(MemSetup::DramOnly, 64);
        let d256 = run(MemSetup::DramOnly, 256);
        let h64 = run(MemSetup::HbmOnly, 64);
        let h256 = run(MemSetup::HbmOnly, 256);
        let c256 = run(MemSetup::CacheMode, 256);
        let d_gain = d256 / d64;
        let h_gain = h256 / h64;
        assert!((1.1..=1.9).contains(&d_gain), "DRAM gain {d_gain}");
        assert!((2.0..=3.2).contains(&h_gain), "HBM gain {h_gain}");
        assert!(h256 > d256, "HBM should overtake DRAM at 256 threads");
        assert!(
            c256 > d256,
            "cache mode should overtake DRAM at 256 threads"
        );
    }
}
