//! Memory-operation descriptors.
//!
//! Workloads describe what they do to memory with these types; the
//! machine model prices them. A [`Region`] is a named allocation whose
//! page placement (which NUMA node backs which pages) was decided by
//! the memkind heap when it was created, exactly as `numactl`/memkind
//! would have on the real machine.

use memkind_sim::Block;
use simfabric::ByteSize;

/// A named allocated region with a placement decided at allocation
/// time.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    /// Human-readable label ("matrix", "table", "xs_grid", …).
    pub label: String,
    /// The heap block backing the region.
    pub block: Block,
    /// Fraction of the region's pages on the HBM node (0.0 in DRAM
    /// binds, 1.0 in HBM binds, in between for preferred/interleaved).
    pub hbm_fraction: f64,
}

impl Region {
    /// Region size.
    pub fn size(&self) -> ByteSize {
        self.block.size
    }
}

/// How often a streamed region re-visits the same lines — determines
/// which MCDRAM-cache hit-ratio model applies and how much of the
/// traffic the L2 absorbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Reuse {
    /// Sequential sweeps that revisit the footprint every pass
    /// (STREAM arrays, CG vectors, DGEMM panels).
    #[default]
    Streaming,
    /// Touched once, never again (scan-once inputs).
    Once,
    /// Hot small structure that stays cache-resident.
    Resident,
}

/// One streaming term of a phase: `bytes` of traffic against `region`.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOp {
    /// Region the traffic targets.
    pub region: Region,
    /// Bytes read from memory.
    pub read_bytes: u64,
    /// Bytes written to memory.
    pub write_bytes: u64,
    /// Reuse class of this traffic.
    pub reuse: Reuse,
}

impl StreamOp {
    /// Read-only sweep over the whole region, once.
    pub fn read_all(region: &Region) -> Self {
        StreamOp {
            region: region.clone(),
            read_bytes: region.size().as_u64(),
            write_bytes: 0,
            reuse: Reuse::Streaming,
        }
    }

    /// Write-only sweep over the whole region, once.
    pub fn write_all(region: &Region) -> Self {
        StreamOp {
            region: region.clone(),
            read_bytes: 0,
            write_bytes: region.size().as_u64(),
            reuse: Reuse::Streaming,
        }
    }

    /// Total bytes moved.
    pub fn bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }
}

/// A random-access term of a phase.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomOp {
    /// Region the accesses fall in (uniformly).
    pub region: Region,
    /// Number of random *units of work* (updates, lookups, probes).
    pub count: u64,
    /// Dependent memory accesses per unit that reach memory (a pointer
    /// chase of this depth; 1 for an independent probe).
    pub dependent_depth: u32,
    /// Independent units a single thread keeps in flight.
    pub mlp_per_thread: f64,
    /// Whether each unit also writes its line back (read-modify-write,
    /// as in GUPS).
    pub updates: bool,
    /// Extra non-memory nanoseconds of CPU work per unit.
    pub cpu_ns_per_unit: f64,
}

impl RandomOp {
    /// Independent single-line probes over a region (no chase, default
    /// out-of-order MLP, no CPU cost).
    pub fn probes(region: &Region, count: u64) -> Self {
        RandomOp {
            region: region.clone(),
            count,
            dependent_depth: 1,
            mlp_per_thread: crate::calib::RANDOM_MLP_PER_THREAD,
            updates: false,
            cpu_ns_per_unit: 0.0,
        }
    }

    /// GUPS-style read-modify-write updates.
    pub fn updates(region: &Region, count: u64) -> Self {
        RandomOp {
            updates: true,
            ..Self::probes(region, count)
        }
    }

    /// Total memory line touches implied (reads, plus writes for
    /// updates).
    pub(crate) fn line_touches(&self) -> u64 {
        let per_unit = self.dependent_depth as u64 + if self.updates { 1 } else { 0 };
        self.count * per_unit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memkind_sim::Kind;

    fn region(size: ByteSize, hbm: f64) -> Region {
        Region {
            label: "r".into(),
            block: Block {
                addr: 0x6000_0000_0000,
                size,
                kind: Kind::Default,
            },
            hbm_fraction: hbm,
        }
    }

    #[test]
    fn stream_op_constructors() {
        let r = region(ByteSize::mib(8), 0.0);
        let read = StreamOp::read_all(&r);
        assert_eq!(read.bytes(), 8 << 20);
        assert_eq!(read.write_bytes, 0);
        let write = StreamOp::write_all(&r);
        assert_eq!(write.read_bytes, 0);
        assert_eq!(write.bytes(), 8 << 20);
    }

    #[test]
    fn random_op_line_touches() {
        let r = region(ByteSize::gib(1), 1.0);
        let probes = RandomOp::probes(&r, 1000);
        assert_eq!(probes.line_touches(), 1000);
        let updates = RandomOp::updates(&r, 1000);
        assert_eq!(updates.line_touches(), 2000);
        let chase = RandomOp {
            dependent_depth: 8,
            ..RandomOp::probes(&r, 10)
        };
        assert_eq!(chase.line_touches(), 80);
    }
}
