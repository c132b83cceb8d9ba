//! MiniFE \[13\] — the implicit finite-element proxy application.
//!
//! The performance-critical part is the conjugate-gradient solve over
//! the assembled sparse system (the paper reports "total Mflops in the
//! CG part"). The model prices one CG iteration's traffic — matrix
//! stream, x-vector gather, CG vector sweeps — with the calibrated
//! per-row constants in [`knl::calib`].

use crate::PaperWorkload;
use knl::access::Reuse;
use knl::{calib, Machine, MachineError, StreamOp};
use simfabric::ByteSize;

/// Approximate bytes of footprint per matrix row (CSR + CG vectors).
pub const BYTES_PER_ROW: u64 = 364;

/// A MiniFE problem instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MiniFe {
    /// Grid dimension (the problem is nx × nx × nx nodes).
    pub nx: u64,
}

impl MiniFe {
    /// The problem whose matrix+vectors total ≈ `footprint` (Fig. 4b's
    /// x-axis).
    pub fn with_footprint(footprint: ByteSize) -> Self {
        let rows = footprint.as_u64() / BYTES_PER_ROW;
        MiniFe {
            nx: (rows as f64).cbrt().round().max(2.0) as u64,
        }
    }

    /// Number of matrix rows (= grid nodes).
    pub(crate) fn rows(&self) -> u64 {
        self.nx * self.nx * self.nx
    }

    /// Model: CG MFLOPS on `machine`.
    pub fn model_cg_mflops(&self, machine: &mut Machine) -> Result<f64, MachineError> {
        let rows = self.rows() as f64;
        let mut regions = machine.alloc_many(&[
            (
                "minife_matrix",
                ByteSize::bytes((rows * calib::MINIFE_MATRIX_BYTES_PER_ROW) as u64),
            ),
            ("minife_vectors", ByteSize::bytes((rows as u64) * 8 * 5)),
        ])?;
        let vectors = regions.pop().expect("two regions");
        let matrix = regions.pop().expect("two regions");
        // The x-vector gather only reaches memory for the part of x
        // the 32-MB aggregate L2 cannot hold: small problems gather
        // entirely from cache, which is why the paper's Fig. 4b
        // improvement line starts low and grows with size.
        let x_bytes = rows * 8.0;
        let l2_total = 32.0 * 1024.0 * 1024.0;
        let gather_miss = (1.0 - (l2_total / x_bytes).min(1.0)).max(0.0);
        // One CG iteration, phase 1: SpMV — matrix stream plus the
        // x-gather, which contends with the matrix for MCDRAM-cache
        // slots (hence one phase).
        let spmv = [
            StreamOp {
                region: matrix.clone(),
                read_bytes: (rows * calib::MINIFE_MATRIX_BYTES_PER_ROW) as u64,
                write_bytes: 0,
                reuse: Reuse::Streaming,
            },
            StreamOp {
                region: vectors.clone(),
                read_bytes: (rows * calib::MINIFE_GATHER_BYTES_PER_ROW * gather_miss) as u64,
                write_bytes: 0,
                reuse: Reuse::Streaming,
            },
        ];
        let t_spmv = machine.price_stream(&spmv);
        // Phase 2: CG vector updates (axpys, dots) — hot, small
        // footprint.
        let vec_bytes = (rows * calib::MINIFE_VECTOR_BYTES_PER_ROW) as u64;
        let vecops = [StreamOp {
            region: vectors.clone(),
            read_bytes: vec_bytes * 2 / 3,
            write_bytes: vec_bytes / 3,
            reuse: Reuse::Streaming,
        }];
        let t_vec = machine.price_stream(&vecops);
        // Non-memory overhead (reductions, loop bookkeeping) shrinks
        // as threads grow, saturating at 2 threads/core.
        let threads = machine.config().threads.min(128) as f64;
        let flops = rows * calib::MINIFE_FLOPS_PER_ROW;
        let overhead_s = flops * calib::MINIFE_COMPUTE_NS_PER_FLOP_64T * (64.0 / threads) * 1e-9;
        let secs = t_spmv.as_secs() + t_vec.as_secs() + overhead_s;
        machine.compute(flops, flops / secs / 1e9);
        machine.release(&matrix)?;
        machine.release(&vectors)?;
        Ok(flops / secs / 1e6)
    }
}

impl PaperWorkload for MiniFe {
    fn name(&self) -> &'static str {
        "MiniFE"
    }

    fn metric(&self) -> &'static str {
        "CG MFLOPS"
    }

    fn footprint(&self) -> ByteSize {
        ByteSize::bytes(self.rows() * BYTES_PER_ROW)
    }

    fn run_model(&self, machine: &mut Machine) -> Result<f64, MachineError> {
        self.model_cg_mflops(machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl::MemSetup;

    #[test]
    fn model_fig4b_ordering_and_3x() {
        let m = MiniFe::with_footprint(ByteSize::gib_f(7.2));
        let run = |setup| {
            let mut mac = Machine::knl7210(setup, 64).unwrap();
            m.model_cg_mflops(&mut mac).unwrap()
        };
        let dram = run(MemSetup::DramOnly);
        let hbm = run(MemSetup::HbmOnly);
        let cache = run(MemSetup::CacheMode);
        assert!(
            hbm > cache && cache > dram,
            "hbm {hbm} cache {cache} dram {dram}"
        );
        let ratio = hbm / dram;
        assert!(ratio > 2.6 && ratio < 3.8, "HBM/DRAM {ratio}");
    }

    #[test]
    fn model_cache_gain_decays_to_1_05x_at_twice_capacity() {
        // Fig. 4b: improvement from cache mode drops to ~1.05x when the
        // problem is nearly twice the HBM capacity (28.8 GB).
        let m = MiniFe::with_footprint(ByteSize::gib_f(28.8));
        let mut dram = Machine::knl7210(MemSetup::DramOnly, 64).unwrap();
        let mut cache = Machine::knl7210(MemSetup::CacheMode, 64).unwrap();
        let d = m.model_cg_mflops(&mut dram).unwrap();
        let c = m.model_cg_mflops(&mut cache).unwrap();
        let imp = c / d;
        assert!(imp > 0.98 && imp < 1.25, "cache improvement {imp}");
        // And HBM cannot hold it at all.
        let mut hbm = Machine::knl7210(MemSetup::HbmOnly, 64).unwrap();
        assert!(m.model_cg_mflops(&mut hbm).is_err());
    }

    #[test]
    fn model_thread_scaling_fig6b() {
        let m = MiniFe::with_footprint(ByteSize::gib_f(7.2));
        let run = |setup, threads| {
            let mut mac = Machine::knl7210(setup, threads).unwrap();
            m.model_cg_mflops(&mut mac).unwrap()
        };
        let h64 = run(MemSetup::HbmOnly, 64);
        let h192 = run(MemSetup::HbmOnly, 192);
        let gain = h192 / h64;
        assert!(gain > 1.3 && gain < 1.9, "HBM 192/64 gain {gain}");
        // DRAM barely moves.
        let d_gain = run(MemSetup::DramOnly, 192) / run(MemSetup::DramOnly, 64);
        assert!(d_gain < 1.15, "DRAM gain {d_gain}");
        // §I: ~3.8x HBM-vs-DRAM with 4 hardware threads/core.
        let r256 = run(MemSetup::HbmOnly, 256) / run(MemSetup::DramOnly, 256);
        assert!(r256 > 3.0 && r256 < 5.2, "HBM/DRAM at 256 threads {r256}");
    }
}
