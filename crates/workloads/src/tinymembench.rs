//! TinyMemBench \[19\] — dual random read latency.
//!
//! The paper measures the latency of two simultaneous dependent random
//! read chains over buffers from 128 KB to 1 GB (Fig. 3), in DRAM and
//! HBM. The model evaluates [`knl::dual_random_read_latency`].

use knl::{Machine, MachineError};
use simfabric::ByteSize;

/// The block sizes Fig. 3 sweeps (128 KB … 1 GB, powers of two).
pub fn fig3_block_sizes() -> Vec<ByteSize> {
    let mut v = Vec::new();
    let mut b = 128 * 1024u64;
    while b <= 1 << 30 {
        v.push(ByteSize::bytes(b));
        b *= 2;
    }
    v
}

/// Model: dual random read latency (ns) for a buffer of `block` bytes
/// on `machine`'s *bound* memory (DRAM or HBM per the machine setup).
pub fn model_latency_ns(machine: &mut Machine, block: ByteSize) -> Result<f64, MachineError> {
    // Allocate so that an HBM bind that cannot hold the block errors
    // out exactly like the real benchmark would.
    let region = machine.alloc("tmb_buffer", block)?;
    let cfg = machine.config();
    let tlb = if cfg.huge_pages {
        cachesim::tlb::TlbConfig::knl_2m()
    } else {
        cachesim::tlb::TlbConfig::knl_4k()
    };
    let spec = if region.hbm_fraction >= 0.5 {
        cfg.mcdram.clone()
    } else {
        cfg.ddr.clone()
    };
    let ns = knl::dual_random_read_latency(&spec, block, &tlb).as_ns();
    machine.release(&region)?;
    Ok(ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl::MemSetup;

    #[test]
    fn fig3_sweep_covers_128k_to_1g() {
        let sizes = fig3_block_sizes();
        assert_eq!(sizes.first().unwrap().as_u64(), 128 * 1024);
        assert_eq!(sizes.last().unwrap().as_u64(), 1 << 30);
        assert_eq!(sizes.len(), 14);
    }

    #[test]
    fn model_dram_faster_than_hbm_beyond_l2() {
        let mut dram = Machine::knl7210(MemSetup::DramOnly, 64).unwrap();
        let mut hbm = Machine::knl7210(MemSetup::HbmOnly, 64).unwrap();
        let block = ByteSize::mib(64);
        let d = model_latency_ns(&mut dram, block).unwrap();
        let h = model_latency_ns(&mut hbm, block).unwrap();
        let gap = (h - d) / d;
        assert!(gap > 0.10 && gap < 0.25, "gap {gap}");
    }

    #[test]
    fn model_small_blocks_show_no_gap() {
        let mut dram = Machine::knl7210(MemSetup::DramOnly, 64).unwrap();
        let mut hbm = Machine::knl7210(MemSetup::HbmOnly, 64).unwrap();
        let block = ByteSize::kib(256);
        let d = model_latency_ns(&mut dram, block).unwrap();
        let h = model_latency_ns(&mut hbm, block).unwrap();
        assert!((d - h).abs() < 0.5, "L2-resident gap {d} vs {h}");
        assert!(d < 15.0);
    }
}
