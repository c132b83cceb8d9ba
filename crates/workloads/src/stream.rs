//! STREAM — McCalpin's bandwidth benchmark \[17\], OpenMP-style.
//!
//! The paper uses the triad kernel (`a[i] = b[i] + s*c[i]`) with one
//! thread per core to produce Fig. 2, and sweeps hardware threads for
//! Fig. 5. The model submits the triad's traffic (two streamed reads +
//! one streamed write, plus the write-allocate read the paper's
//! compiler flags imply away with streaming stores — STREAM convention
//! counts 3 × N × 8 bytes).

use crate::PaperWorkload;
use knl::{Machine, MachineError, StreamOp};
use simfabric::ByteSize;

/// STREAM configured for a total array footprint (all three arrays).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamBench {
    /// Combined size of the three arrays.
    pub total_size: ByteSize,
    /// Number of triad iterations to time (STREAM uses 10, reports the
    /// best; the model prices the steady state so one pass suffices).
    pub passes: u32,
}

impl StreamBench {
    /// STREAM with the given combined footprint.
    pub fn new(total_size: ByteSize) -> Self {
        StreamBench {
            total_size,
            passes: 1,
        }
    }

    /// Elements per array.
    pub(crate) fn elements(&self) -> u64 {
        self.total_size.as_u64() / 3 / 8
    }

    /// Run the model and return the triad bandwidth in GB/s.
    pub fn triad_bandwidth(&self, machine: &mut Machine) -> Result<f64, MachineError> {
        let per_array = ByteSize::bytes(self.elements() * 8);
        let mut regions = machine.alloc_many(&[
            ("stream_a", per_array),
            ("stream_b", per_array),
            ("stream_c", per_array),
        ])?;
        let c = regions.pop().expect("three regions");
        let b = regions.pop().expect("three regions");
        let a = regions.pop().expect("three regions");
        let ops = [
            StreamOp::read_all(&b),
            StreamOp::read_all(&c),
            StreamOp::write_all(&a),
        ];
        let mut total_bytes = 0u64;
        let mut secs = 0.0;
        for _ in 0..self.passes.max(1) {
            let d = machine.stream(&ops);
            secs += d.as_secs();
            total_bytes += ops.iter().map(StreamOp::bytes).sum::<u64>();
        }
        machine.release(&a)?;
        machine.release(&b)?;
        machine.release(&c)?;
        Ok(total_bytes as f64 / 1e9 / secs)
    }
}

impl PaperWorkload for StreamBench {
    fn name(&self) -> &'static str {
        "STREAM"
    }

    fn metric(&self) -> &'static str {
        "GB/s"
    }

    fn footprint(&self) -> ByteSize {
        self.total_size
    }

    fn run_model(&self, machine: &mut Machine) -> Result<f64, MachineError> {
        let mut bench = *self;
        bench.passes = bench.passes.max(1);
        bench.triad_bandwidth(machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl::MemSetup;

    #[test]
    fn model_reproduces_fig2_ordering() {
        let bench = StreamBench::new(ByteSize::gib(6));
        let mut dram = Machine::knl7210(MemSetup::DramOnly, 64).unwrap();
        let mut hbm = Machine::knl7210(MemSetup::HbmOnly, 64).unwrap();
        let mut cache = Machine::knl7210(MemSetup::CacheMode, 64).unwrap();
        let d = bench.triad_bandwidth(&mut dram).unwrap();
        let h = bench.triad_bandwidth(&mut hbm).unwrap();
        let c = bench.triad_bandwidth(&mut cache).unwrap();
        assert!(h > c && c > d, "HBM {h} > cache {c} > DRAM {d} expected");
        assert!(h / d > 4.0, "HBM/DRAM ratio {}", h / d);
    }

    #[test]
    fn model_hbm_stops_at_capacity() {
        let bench = StreamBench::new(ByteSize::gib(20));
        let mut hbm = Machine::knl7210(MemSetup::HbmOnly, 64).unwrap();
        assert!(matches!(
            bench.triad_bandwidth(&mut hbm),
            Err(MachineError::Alloc(_))
        ));
        // Same size is fine on DRAM.
        let mut dram = Machine::knl7210(MemSetup::DramOnly, 64).unwrap();
        assert!(bench.triad_bandwidth(&mut dram).is_ok());
    }

    #[test]
    fn workload_trait_surface() {
        let bench = StreamBench::new(ByteSize::gib(3));
        assert_eq!(bench.name(), "STREAM");
        assert_eq!(bench.metric(), "GB/s");
        assert_eq!(bench.footprint(), ByteSize::gib(3));
        let mut m = Machine::knl7210(MemSetup::DramOnly, 64).unwrap();
        let bw = bench.run_model(&mut m).unwrap();
        assert!(bw > 70.0 && bw < 80.0);
    }

    #[test]
    fn repeated_passes_price_identically() {
        let mut m = Machine::knl7210(MemSetup::DramOnly, 64).unwrap();
        let one = StreamBench {
            total_size: ByteSize::gib(3),
            passes: 1,
        }
        .triad_bandwidth(&mut m)
        .unwrap();
        let ten = StreamBench {
            total_size: ByteSize::gib(3),
            passes: 10,
        }
        .triad_bandwidth(&mut m)
        .unwrap();
        assert!((one - ten).abs() < 1e-6);
    }
}
