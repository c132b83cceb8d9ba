//! TinyMemBench \[19\] — dual random read latency.
//!
//! The paper measures the latency of two simultaneous dependent random
//! read chains over buffers from 128 KB to 1 GB (Fig. 3), in DRAM and
//! HBM. Fig. 3 evaluates [`knl::dual_random_read_latency`] at these
//! block sizes.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_sweep_covers_128k_to_1g() {
        let sizes = fig3_block_sizes();
        assert_eq!(sizes.first().unwrap().as_u64(), 128 * 1024);
        assert_eq!(sizes.last().unwrap().as_u64(), 1 << 30);
        assert_eq!(sizes.len(), 14);
    }
}
