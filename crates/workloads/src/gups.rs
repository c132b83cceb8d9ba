//! GUPS \[14\] — the HPC Challenge RandomAccess benchmark.
//!
//! A table of 2^k 64-bit words is updated at uniformly random indices
//! (`table[idx] ^= value`); the metric is giga-updates-per-second.
//! The model prices the updates as random read-modify-writes; the
//! reported GUPS applies the [`knl::calib::GUPS_SERIALIZATION`]
//! reporting constant that matches the paper's HPCC configuration
//! scale.

use crate::PaperWorkload;
use knl::access::RandomOp;
use knl::{calib, Machine, MachineError};
use simfabric::ByteSize;

/// A GUPS problem instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gups {
    /// Table size in bytes (power of two, as HPCC requires).
    pub table_bytes: u64,
}

impl Gups {
    /// GUPS over a table of `size` (rounded down to a power of two).
    pub fn new(size: ByteSize) -> Self {
        let b = size.as_u64().max(64);
        Gups {
            table_bytes: 1u64 << (63 - b.leading_zeros()),
        }
    }

    /// Number of 8-byte table entries.
    pub(crate) fn entries(&self) -> u64 {
        self.table_bytes / 8
    }

    /// Updates performed (HPCC uses 4× the table entries).
    pub(crate) fn updates(&self) -> u64 {
        4 * self.entries()
    }

    /// Model: GUPS on `machine`.
    pub fn model_gups(&self, machine: &mut Machine) -> Result<f64, MachineError> {
        let table = machine.alloc("gups_table", ByteSize::bytes(self.table_bytes))?;
        let op = RandomOp::updates(&table, self.updates());
        let rate = machine.random_rate(&op);
        machine.random(&op);
        machine.release(&table)?;
        Ok(rate / 1e9 / calib::GUPS_SERIALIZATION)
    }
}

impl PaperWorkload for Gups {
    fn name(&self) -> &'static str {
        "GUPS"
    }

    fn metric(&self) -> &'static str {
        "GUPS"
    }

    fn footprint(&self) -> ByteSize {
        ByteSize::bytes(self.table_bytes)
    }

    fn run_model(&self, machine: &mut Machine) -> Result<f64, MachineError> {
        self.model_gups(machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl::MemSetup;

    #[test]
    fn table_size_rounds_to_power_of_two() {
        let g = Gups::new(ByteSize::gib(3));
        assert_eq!(g.table_bytes, ByteSize::gib(2).as_u64());
        assert_eq!(g.updates(), 4 * g.entries());
    }

    #[test]
    fn model_matches_fig4c_scale_and_ordering() {
        let g = Gups::new(ByteSize::gib(8));
        let run = |setup| {
            let mut m = Machine::knl7210(setup, 64).unwrap();
            g.model_gups(&mut m).unwrap()
        };
        let dram = run(MemSetup::DramOnly);
        let hbm = run(MemSetup::HbmOnly);
        // Paper scale: ~1.06–1.10 × 10⁻².
        assert!(dram > 0.008 && dram < 0.014, "DRAM GUPS {dram}");
        assert!(dram > hbm, "DRAM should beat HBM: {dram} vs {hbm}");
        assert!(hbm / dram > 0.8, "gap too wide: {}", hbm / dram);
    }

    #[test]
    fn model_is_roughly_flat_in_table_size() {
        // Fig. 4c: GUPS varies only a few percent from 1 to 32 GB.
        let mut vals = Vec::new();
        for gib in [1u64, 4, 16, 32] {
            let g = Gups::new(ByteSize::gib(gib));
            let mut m = Machine::knl7210(MemSetup::DramOnly, 64).unwrap();
            vals.push(g.model_gups(&mut m).unwrap());
        }
        let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = vals.iter().cloned().fold(0.0f64, f64::max);
        assert!(max / min < 1.35, "GUPS spread too wide: {vals:?}");
    }

    #[test]
    fn model_hbm_stops_at_capacity() {
        let g = Gups::new(ByteSize::gib(32));
        let mut hbm = Machine::knl7210(MemSetup::HbmOnly, 64).unwrap();
        assert!(g.model_gups(&mut hbm).is_err());
        let mut dram = Machine::knl7210(MemSetup::DramOnly, 64).unwrap();
        assert!(g.model_gups(&mut dram).is_ok());
    }

    #[test]
    fn model_cache_mode_between_at_moderate_sizes() {
        let g = Gups::new(ByteSize::gib(8));
        let run = |setup| {
            let mut m = Machine::knl7210(setup, 64).unwrap();
            g.model_gups(&mut m).unwrap()
        };
        let dram = run(MemSetup::DramOnly);
        let cache = run(MemSetup::CacheMode);
        let hbm = run(MemSetup::HbmOnly);
        // At 8 GB the table fits the MCDRAM cache: cache ≈ HBM < DRAM.
        assert!(
            (cache - hbm).abs() / hbm < 0.15,
            "cache {cache} vs hbm {hbm}"
        );
        assert!(dram > cache);
    }
}
