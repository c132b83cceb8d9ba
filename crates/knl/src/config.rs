//! Machine configuration: the experiment knobs of §III.

use memdev::{ddr4_knl, mcdram_knl, MemDeviceSpec};
use mesh::ClusterMode;
use numamem::NumaTopology;
use simfabric::ByteSize;

/// The three memory configurations compared throughout the paper
/// (§III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSetup {
    /// Flat mode, `numactl --membind=0`: everything in DDR.
    DramOnly,
    /// Flat mode, `numactl --membind=1`: everything in MCDRAM; strict —
    /// allocations beyond 16 GB fail (the missing red bars in Fig. 4).
    HbmOnly,
    /// Cache mode: DDR main memory behind the direct-mapped MCDRAM
    /// cache; one NUMA node visible.
    CacheMode,
    /// Flat mode with page interleaving across both nodes (§IV-C
    /// mentions this as the way to run problems larger than either
    /// memory; evaluated as an extension).
    Interleaved,
    /// Hybrid mode (§II): part of MCDRAM is a direct-mapped cache,
    /// the rest a flat NUMA node. The partition ratio comes from
    /// [`MachineConfig::hybrid_cache_fraction`]. The paper describes
    /// this mode but could not evaluate it (changing the partition
    /// needs a BIOS reboot, §II) — evaluated here as an extension.
    Hybrid,
}

impl MemSetup {
    /// All setups in the paper's plotting order.
    pub const PAPER_SETUPS: [MemSetup; 3] =
        [MemSetup::DramOnly, MemSetup::HbmOnly, MemSetup::CacheMode];

    /// Display label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            MemSetup::DramOnly => "DRAM",
            MemSetup::HbmOnly => "HBM",
            MemSetup::CacheMode => "Cache Mode",
            MemSetup::Interleaved => "Interleaved",
            MemSetup::Hybrid => "Hybrid",
        }
    }

    /// The NUMA topology the OS exposes under this setup (Table II).
    /// Hybrid mode needs the partition ratio; use
    /// `MachineConfig::topology` for that case (this method assumes
    /// the 50/50 split).
    pub fn topology(self) -> NumaTopology {
        match self {
            MemSetup::CacheMode => NumaTopology::knl_cache(),
            MemSetup::Hybrid => hybrid_topology(0.5),
            _ => NumaTopology::knl_flat(),
        }
    }

    /// Whether (some of) the MCDRAM fronts DDR as a cache.
    pub(crate) fn has_mcdram_cache(self) -> bool {
        matches!(self, MemSetup::CacheMode | MemSetup::Hybrid)
    }
}

/// The flat-mode topology with the HBM node shrunk to the uncached
/// partition of MCDRAM: what the OS shows in hybrid mode.
fn hybrid_topology(cache_fraction: f64) -> NumaTopology {
    let mut topo = NumaTopology::knl_flat();
    let flat = (topo.nodes[1].size.as_u64() as f64 * (1.0 - cache_fraction)) as u64;
    // Round to whole pages so the allocator stays consistent.
    topo.nodes[1].size = ByteSize::bytes(flat & !4095);
    topo
}

/// Full machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Memory setup under test.
    pub setup: MemSetup,
    /// Total OpenMP threads (64 = 1 HW thread/core … 256 = 4/core).
    pub threads: u32,
    /// Number of physical cores.
    pub cores: u32,
    /// Mesh cluster mode (§III-A: quadrant on the testbed).
    pub cluster: ClusterMode,
    /// DDR device model.
    pub ddr: MemDeviceSpec,
    /// MCDRAM device model.
    pub mcdram: MemDeviceSpec,
    /// Fraction of MCDRAM given to the cache in *hybrid* mode
    /// experiments (1.0 in cache mode, 0.0 otherwise; ablations vary
    /// this).
    pub hybrid_cache_fraction: f64,
    /// Use 2-MB huge pages instead of 4-KB (ablation; the testbed used
    /// 4-KB pages).
    pub huge_pages: bool,
}

impl MachineConfig {
    /// The paper's testbed (ARCHER KNL node, Xeon Phi 7210) in `setup`
    /// with `threads` OpenMP threads.
    pub fn knl7210(setup: MemSetup, threads: u32) -> Self {
        MachineConfig {
            setup,
            threads,
            cores: 64,
            cluster: ClusterMode::Quadrant,
            ddr: ddr4_knl(),
            mcdram: mcdram_knl(),
            hybrid_cache_fraction: match setup {
                MemSetup::CacheMode => 1.0,
                MemSetup::Hybrid => 0.5,
                _ => 0.0,
            },
            huge_pages: false,
        }
    }

    /// The testbed in hybrid mode with the given MCDRAM cache fraction
    /// (the BIOS partition options are 25/50/100%; any ratio is
    /// accepted here for ablations).
    pub fn knl7210_hybrid(cache_fraction: f64, threads: u32) -> Self {
        MachineConfig {
            hybrid_cache_fraction: cache_fraction,
            ..Self::knl7210(MemSetup::Hybrid, threads)
        }
    }

    /// The NUMA topology the OS exposes under this configuration.
    pub(crate) fn topology(&self) -> NumaTopology {
        match self.setup {
            MemSetup::CacheMode => NumaTopology::knl_cache(),
            MemSetup::Hybrid => hybrid_topology(self.hybrid_cache_fraction),
            _ => NumaTopology::knl_flat(),
        }
    }

    /// Hardware threads per core in use (ceiling of threads/cores).
    pub(crate) fn threads_per_core(&self) -> u32 {
        self.threads.div_ceil(self.cores).max(1)
    }

    /// Cores actually running at least one thread.
    pub(crate) fn active_cores(&self) -> u32 {
        self.threads.min(self.cores)
    }

    /// MCDRAM capacity available for *allocation* under this setup
    /// (zero in cache mode — it is all cache).
    pub fn allocatable_mcdram(&self) -> ByteSize {
        match self.setup {
            MemSetup::CacheMode => ByteSize::ZERO,
            MemSetup::Hybrid => ByteSize::bytes(
                (self.mcdram.capacity.as_u64() as f64 * (1.0 - self.hybrid_cache_fraction)) as u64
                    & !4095,
            ),
            _ => self.mcdram.capacity,
        }
    }

    /// MCDRAM capacity acting as cache under this setup.
    pub fn mcdram_cache_capacity(&self) -> ByteSize {
        match self.setup {
            MemSetup::CacheMode => self.mcdram.capacity,
            MemSetup::Hybrid => ByteSize::bytes(
                (self.mcdram.capacity.as_u64() as f64 * self.hybrid_cache_fraction) as u64,
            ),
            _ => ByteSize::ZERO,
        }
    }

    /// Validate the configuration.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("zero cores".into());
        }
        if self.threads == 0 {
            return Err("zero threads".into());
        }
        if self.threads > self.cores * crate::calib::MAX_HT {
            return Err(format!(
                "{} threads exceeds {} hardware threads",
                self.threads,
                self.cores * crate::calib::MAX_HT
            ));
        }
        if !(0.0..=1.0).contains(&self.hybrid_cache_fraction) {
            return Err("hybrid_cache_fraction out of [0,1]".into());
        }
        self.ddr.validate()?;
        self.mcdram.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for setup in MemSetup::PAPER_SETUPS {
            for threads in [64, 128, 192, 256] {
                MachineConfig::knl7210(setup, threads).validate().unwrap();
            }
        }
    }

    #[test]
    fn threads_per_core_mapping() {
        let c = MachineConfig::knl7210(MemSetup::DramOnly, 64);
        assert_eq!(c.threads_per_core(), 1);
        assert_eq!(
            MachineConfig::knl7210(MemSetup::DramOnly, 65).threads_per_core(),
            2
        );
        assert_eq!(
            MachineConfig::knl7210(MemSetup::DramOnly, 256).threads_per_core(),
            4
        );
        assert_eq!(
            MachineConfig::knl7210(MemSetup::DramOnly, 32).active_cores(),
            32
        );
    }

    #[test]
    fn too_many_threads_rejected() {
        assert!(MachineConfig::knl7210(MemSetup::DramOnly, 257)
            .validate()
            .is_err());
        assert!(MachineConfig::knl7210(MemSetup::DramOnly, 0)
            .validate()
            .is_err());
    }

    #[test]
    fn cache_mode_has_no_allocatable_mcdram() {
        let c = MachineConfig::knl7210(MemSetup::CacheMode, 64);
        assert_eq!(c.allocatable_mcdram(), ByteSize::ZERO);
        assert_eq!(c.mcdram_cache_capacity(), ByteSize::gib(16));
        let f = MachineConfig::knl7210(MemSetup::HbmOnly, 64);
        assert_eq!(f.allocatable_mcdram(), ByteSize::gib(16));
        assert_eq!(f.mcdram_cache_capacity(), ByteSize::ZERO);
    }

    #[test]
    fn setup_labels_match_figures() {
        assert_eq!(MemSetup::DramOnly.label(), "DRAM");
        assert_eq!(MemSetup::HbmOnly.label(), "HBM");
        assert_eq!(MemSetup::CacheMode.label(), "Cache Mode");
    }

    #[test]
    fn setup_topologies_match_table2() {
        assert_eq!(MemSetup::DramOnly.topology().num_nodes(), 2);
        assert_eq!(MemSetup::HbmOnly.topology().num_nodes(), 2);
        assert_eq!(MemSetup::CacheMode.topology().num_nodes(), 1);
    }
}
