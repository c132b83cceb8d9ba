//! DGEMM \[12\] — dense matrix-matrix multiplication.
//!
//! The paper links against MKL and reports GFLOPS for square matrices
//! whose combined footprint is swept from 0.1 to 24 GB (Fig. 4a) and
//! over 64/128/192 threads (Fig. 6a; 256-thread runs did not finish).
//!
//! The model prices the roofline: `min(compute roof,
//! arithmetic-intensity × effective bandwidth)`, with the memory
//! traffic reduced by the fraction of the working set the 32-MB
//! aggregate L2 captures.

use crate::PaperWorkload;
use knl::access::Reuse;
use knl::{calib, Machine, MachineError, StreamOp};
use simfabric::ByteSize;

/// A DGEMM problem: C (m×n) += A (m×k) × B (k×n), square in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dgemm {
    /// Matrix dimension (square: m = n = k).
    pub n: u64,
}

impl Dgemm {
    /// The problem whose three matrices total `footprint` bytes
    /// (Fig. 4a's x-axis).
    pub fn with_footprint(footprint: ByteSize) -> Self {
        let n = ((footprint.as_u64() as f64 / 3.0 / 8.0).sqrt()) as u64;
        Dgemm { n: n.max(1) }
    }

    /// Flops executed (2·n³).
    pub(crate) fn flops(&self) -> f64 {
        2.0 * (self.n as f64).powi(3)
    }

    /// Bytes of the three matrices.
    pub(crate) fn bytes(&self) -> u64 {
        3 * self.n * self.n * 8
    }

    /// The MKL-like compute roof at `threads` total threads (GFLOPS);
    /// `None` when the paper could not complete the run (256 threads).
    pub(crate) fn compute_roof(threads: u32) -> Option<f64> {
        calib::DGEMM_COMPUTE_ROOF
            .iter()
            .find(|&&(t, _)| t == threads)
            .map(|&(_, g)| g)
            .or_else(|| {
                // Interpolate for non-paper thread counts below 192.
                (threads < 256).then(|| {
                    let t = threads.min(192) as f64;
                    600.0 + (t - 64.0).max(0.0) / 128.0 * 420.0
                })
            })
    }

    /// Memory traffic per flop after cache blocking, scaled down by the
    /// L2-resident fraction of the working set.
    fn effective_bytes_per_flop(&self) -> f64 {
        let l2_total = 32.0 * 1024.0 * 1024.0; // 32 tiles × 1 MB
        let ws = self.bytes() as f64;
        let resident = (l2_total / ws).min(1.0);
        // Fully resident problems stream (almost) nothing; large
        // problems converge to the blocked-GEMM traffic of
        // 1/DGEMM_FLOPS_PER_BYTE.
        (1.0 - 0.8 * resident) / calib::DGEMM_FLOPS_PER_BYTE
    }

    /// Model GFLOPS on `machine`.
    pub(crate) fn model_gflops(&self, machine: &mut Machine) -> Result<f64, MachineError> {
        let threads = machine.config().threads;
        let roof = Self::compute_roof(threads).ok_or_else(|| {
            MachineError::Invalid(format!("DGEMM does not complete at {threads} threads"))
        })?;
        let third = ByteSize::bytes(self.n * self.n * 8);
        let mut regions =
            machine.alloc_many(&[("dgemm_a", third), ("dgemm_b", third), ("dgemm_c", third)])?;
        let c = regions.pop().expect("three regions");
        let b = regions.pop().expect("three regions");
        let a = regions.pop().expect("three regions");
        // Panels of A and B are re-streamed once per block pass; the
        // effective traffic is flops × bytes-per-flop.
        let traffic = (self.flops() * self.effective_bytes_per_flop()) as u64;
        let ops = [
            StreamOp {
                region: a.clone(),
                read_bytes: traffic / 2,
                write_bytes: 0,
                reuse: Reuse::Streaming,
            },
            StreamOp {
                region: b.clone(),
                read_bytes: traffic / 2 - traffic / 8,
                write_bytes: traffic / 8,
                reuse: Reuse::Streaming,
            },
        ];
        let mem_time = machine.price_stream(&ops);
        let compute_time = self.flops() / (roof * 1e9);
        // Memory and compute overlap; the slower one binds.
        let secs = mem_time.as_secs().max(compute_time);
        // Advance the clock by the bound time.
        machine.compute(self.flops(), self.flops() / secs / 1e9);
        let gflops = self.flops() / secs / 1e9;
        machine.release(&a)?;
        machine.release(&b)?;
        machine.release(&c)?;
        Ok(gflops)
    }
}

impl PaperWorkload for Dgemm {
    fn name(&self) -> &'static str {
        "DGEMM"
    }

    fn metric(&self) -> &'static str {
        "GFLOPS"
    }

    fn footprint(&self) -> ByteSize {
        ByteSize::bytes(self.bytes())
    }

    fn run_model(&self, machine: &mut Machine) -> Result<f64, MachineError> {
        self.model_gflops(machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl::MemSetup;

    #[test]
    fn footprint_roundtrip() {
        let d = Dgemm::with_footprint(ByteSize::gib(24));
        let fp = d.footprint().as_gib();
        assert!((fp - 24.0).abs() < 0.1, "footprint {fp}");
    }

    #[test]
    fn model_matches_fig4a_endpoints() {
        let d = Dgemm::with_footprint(ByteSize::gib(24));
        let mut dram = Machine::knl7210(MemSetup::DramOnly, 64).unwrap();
        let g_dram = d.model_gflops(&mut dram).unwrap();
        assert!((g_dram - 300.0).abs() < 30.0, "DRAM 24GB: {g_dram}");
        // 24 GB does not fit HBM.
        let mut hbm = Machine::knl7210(MemSetup::HbmOnly, 64).unwrap();
        assert!(matches!(
            d.model_gflops(&mut hbm),
            Err(MachineError::Alloc(_))
        ));
        // 6 GB fits: HBM is compute-roofed at ~600.
        let d6 = Dgemm::with_footprint(ByteSize::gib(6));
        let mut hbm = Machine::knl7210(MemSetup::HbmOnly, 64).unwrap();
        let g_hbm = d6.model_gflops(&mut hbm).unwrap();
        assert!((g_hbm - 600.0).abs() < 40.0, "HBM 6GB: {g_hbm}");
        // HBM ≈ 2× DRAM at matched size (Fig. 4a's reported gain).
        let mut dram6 = Machine::knl7210(MemSetup::DramOnly, 64).unwrap();
        let g_dram6 = d6.model_gflops(&mut dram6).unwrap();
        let ratio = g_hbm / g_dram6;
        assert!(ratio > 1.7 && ratio < 2.3, "HBM/DRAM at 6GB: {ratio}");
    }

    #[test]
    fn model_small_problems_narrow_the_gap() {
        // Fig. 4a improvement line: ~1.4x at 0.1 GB.
        let d = Dgemm::with_footprint(ByteSize::gib_f(0.1));
        let mut dram = Machine::knl7210(MemSetup::DramOnly, 64).unwrap();
        let mut hbm = Machine::knl7210(MemSetup::HbmOnly, 64).unwrap();
        let r = d.model_gflops(&mut hbm).unwrap() / d.model_gflops(&mut dram).unwrap();
        assert!(r > 1.2 && r < 1.7, "improvement at 0.1GB: {r}");
    }

    #[test]
    fn model_thread_scaling_fig6a() {
        let d = Dgemm::with_footprint(ByteSize::gib(6));
        let g = |threads| {
            let mut m = Machine::knl7210(MemSetup::HbmOnly, threads).unwrap();
            d.model_gflops(&mut m).unwrap()
        };
        let g64 = g(64);
        let g192 = g(192);
        let ratio = g192 / g64;
        assert!((ratio - 1.7).abs() < 0.15, "HBM 192/64 threads: {ratio}");
        // DRAM stays bandwidth-bound: flat.
        let gd = |threads| {
            let mut m = Machine::knl7210(MemSetup::DramOnly, threads).unwrap();
            d.model_gflops(&mut m).unwrap()
        };
        let flat = gd(192) / gd(64);
        assert!(flat < 1.1, "DRAM thread scaling should be flat: {flat}");
        // 256 threads: the run fails, as in the paper.
        let mut m = Machine::knl7210(MemSetup::HbmOnly, 256).unwrap();
        assert!(d.model_gflops(&mut m).is_err());
    }
}
