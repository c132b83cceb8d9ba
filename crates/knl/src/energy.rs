//! Data-movement energy model.
//!
//! The paper motivates high-bandwidth memory partly through the energy
//! cost of data movement (it cites Kestor et al. \[3\], who measured
//! that moving data costs more than computing on it). This extension
//! attaches per-bit access energies to the two devices and prices a
//! run's traffic:
//!
//! * off-package DDR4 pays the DIMM I/O and termination energy
//!   (~22 pJ/bit end to end);
//! * on-package MCDRAM moves data millimetres over TSVs
//!   (~8 pJ/bit) — the energy argument for HBM is even stronger than
//!   the performance argument for bandwidth-bound applications.
//!
//! Constants are representative published figures for the technology
//! generation, not calibrated to the paper (which does not measure
//! energy).

/// Per-bit access energies (pJ/bit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// DDR4 end-to-end access energy.
    pub ddr_pj_per_bit: f64,
    /// MCDRAM (on-package, TSV) access energy.
    pub mcdram_pj_per_bit: f64,
}

impl EnergyModel {
    /// Representative KNL-generation figures.
    pub fn knl() -> Self {
        EnergyModel {
            ddr_pj_per_bit: 22.0,
            mcdram_pj_per_bit: 8.0,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::knl()
    }
}

/// Energy attributed to a run's memory traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Joules spent on DDR traffic.
    pub ddr_joules: f64,
    /// Joules spent on MCDRAM traffic.
    pub mcdram_joules: f64,
    /// Joules spent copying pages between tiers (zero unless the run
    /// used dynamic migration). Each migrated byte is read from one
    /// device and written to the other, so it pays both per-bit
    /// energies.
    pub migration_joules: f64,
}

impl EnergyReport {
    /// Total memory energy.
    pub fn total_joules(&self) -> f64 {
        self.ddr_joules + self.mcdram_joules + self.migration_joules
    }

    /// Price traffic under `model`.
    pub(crate) fn from_traffic(model: &EnergyModel, ddr_bytes: f64, mcdram_bytes: f64) -> Self {
        Self::with_migration(model, ddr_bytes, mcdram_bytes, 0.0)
    }

    /// Price traffic plus `migrated_bytes` of DDR↔MCDRAM page copies
    /// (direction does not matter: a move reads one device and writes
    /// the other either way).
    pub fn with_migration(
        model: &EnergyModel,
        ddr_bytes: f64,
        mcdram_bytes: f64,
        migrated_bytes: f64,
    ) -> Self {
        EnergyReport {
            ddr_joules: ddr_bytes * 8.0 * model.ddr_pj_per_bit * 1e-12,
            mcdram_joules: mcdram_bytes * 8.0 * model.mcdram_pj_per_bit * 1e-12,
            migration_joules: migrated_bytes
                * 8.0
                * (model.ddr_pj_per_bit + model.mcdram_pj_per_bit)
                * 1e-12,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::{MemSetup, StreamOp};
    use simfabric::ByteSize;

    #[test]
    fn per_bit_constants_favor_on_package() {
        let m = EnergyModel::knl();
        assert!(m.mcdram_pj_per_bit < m.ddr_pj_per_bit / 2.0);
    }

    #[test]
    fn report_arithmetic() {
        let m = EnergyModel::knl();
        // 1 GB on each device.
        let r = EnergyReport::from_traffic(&m, 1e9, 1e9);
        assert!((r.ddr_joules - 0.176).abs() < 1e-6);
        assert!((r.mcdram_joules - 0.064).abs() < 1e-6);
        assert!((r.total_joules() - 0.24).abs() < 1e-6);
    }

    #[test]
    fn zero_migration_prices_like_plain_traffic() {
        let m = EnergyModel::knl();
        let plain = EnergyReport::from_traffic(&m, 1e9, 1e9);
        let moved = EnergyReport::with_migration(&m, 1e9, 1e9, 0.0);
        assert_eq!(plain, moved);
        assert_eq!(moved.migration_joules, 0.0);
        assert!((moved.total_joules() - 0.24).abs() < 1e-6);
    }

    #[test]
    fn migrated_bytes_pay_both_devices() {
        let m = EnergyModel::knl();
        // 1 GB of page copies: read + write across tiers.
        let r = EnergyReport::with_migration(&m, 0.0, 0.0, 1e9);
        assert!((r.migration_joules - 0.24).abs() < 1e-6);
        assert_eq!(r.total_joules(), r.migration_joules);
    }

    #[test]
    fn hbm_run_uses_less_memory_energy_than_dram_run() {
        let run = |setup| {
            let mut m = Machine::knl7210(setup, 64).unwrap();
            let r = m.alloc("x", ByteSize::gib(8)).unwrap();
            m.stream(&[StreamOp::read_all(&r)]);
            m.energy(&EnergyModel::knl()).total_joules()
        };
        let dram = run(MemSetup::DramOnly);
        let hbm = run(MemSetup::HbmOnly);
        assert!(hbm < dram * 0.5, "hbm {hbm} J vs dram {dram} J");
        assert!(dram > 0.0);
    }

    #[test]
    fn cache_mode_misses_pay_both_devices() {
        // A 30-GB stream through the cache: mostly misses → DDR energy
        // plus the MCDRAM fills.
        let mut m = Machine::knl7210(MemSetup::CacheMode, 64).unwrap();
        let r = m.alloc("x", ByteSize::gib(30)).unwrap();
        m.stream(&[StreamOp::read_all(&r)]);
        let e = m.energy(&EnergyModel::knl());
        assert!(e.ddr_joules > 0.0 && e.mcdram_joules > 0.0);
        // Cache-mode misses also fill MCDRAM, so the total exceeds a
        // plain DRAM run of the same bytes.
        let mut plain = Machine::knl7210(MemSetup::DramOnly, 64).unwrap();
        let r2 = plain.alloc("x", ByteSize::gib(30)).unwrap();
        plain.stream(&[StreamOp::read_all(&r2)]);
        let e_plain = plain.energy(&EnergyModel::knl());
        assert!(e.total_joules() > e_plain.total_joules());
    }
}
