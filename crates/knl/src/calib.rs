//! Calibration constants for the machine model, with provenance.
//!
//! Every constant is either (a) taken directly from the paper, (b)
//! derived from public KNL documentation, or (c) fitted so that the
//! model reproduces a measured curve in the paper — each case is
//! marked. Fitted constants are the honest cost of not having the
//! silicon; they are concentrated here so the fit surface is explicit
//! and auditable.

/// Core clock of the Xeon Phi 7210 (§III-A). \[paper\]
pub(crate) const CORE_GHZ: f64 = 1.3;

/// Cores per node (§III-A). \[paper\]
pub const CORES: u32 = 64;

/// Hardware threads per core (§II). \[paper\]
pub const MAX_HT: u32 = 4;

/// Per-core streaming memory-level parallelism (in-flight lines) with
/// one hardware thread: the L1 hardware prefetcher sustains ~12
/// streams' worth of outstanding fills. \[fit: reproduces the 330 GB/s
/// STREAM plateau of Fig. 2 — 64 cores × 12.4 lines × 64 B / 154 ns ≈
/// 330 GB/s\]
pub const STREAM_MLP_PER_CORE_1T: f64 = 12.4;

/// Per-core cap on streaming MLP regardless of thread count (the tile
/// L2 MSHR file). With ≥2 threads/core the cap, not the per-thread
/// prefetch depth, binds. \[fit: HBM reaches 420 GB/s (§IV-A) =
/// 1.27 × the 1-thread plateau, Fig. 5\]
pub const STREAM_MLP_PER_CORE_CAP: f64 = 25.0;

/// Per-thread memory-level parallelism for *independent* random
/// accesses (GUPS-style read-modify-writes): the Silvermont-derived
/// core supports ~4 outstanding L1 misses, but the load→op→store
/// pattern halves the useful overlap. \[KNL docs + fit: Fig. 4c's
/// DRAM-over-HBM ordering requires demand below the DDR random line
/// rate at 64 threads\]
pub(crate) const RANDOM_MLP_PER_THREAD: f64 = 2.0;

/// Exponent of the per-thread MLP derate under hyper-threading:
/// hardware threads sharing a core also share its load buffers, so
/// per-thread memory-level parallelism shrinks as `1/ht^x` while the
/// thread count grows linearly — the *net* gain is what makes
/// multi-threading "critical to take advantage of HBM" (§IV-D).
/// \[fit: Fig. 6d's ~2.5× XSBench gain at 4 threads/core\]
pub(crate) const HT_MLP_EXPONENT: f64 = 0.3;

/// Multiplier on idle DDR latency observed by the *dual* random-read
/// pattern of TinyMemBench (two chases share one core's resources).
/// \[fit: Fig. 3's ~200 ns mid-tier from a 130.4 ns device\]
pub(crate) const DUAL_READ_LOAD_FACTOR_DDR: f64 = 1.35;

/// As [`DUAL_READ_LOAD_FACTOR_DDR`], for MCDRAM: the 3D stack's loaded
/// latency degrades slightly faster under concurrent chases (Chang et
/// al. \[25\] report 3D-stacked latency claims do not hold under
/// load). \[fit: Fig. 3's ~20 % peak gap just past the L2 capacity\]
pub(crate) const DUAL_READ_LOAD_FACTOR_HBM: f64 = 1.42;

/// Average number of mesh hops' latency added to every memory access
/// beyond the tile (tile→CHA→port and back), in nanoseconds, quadrant
/// mode. \[derived from `mesh::MeshModel::avg_memory_latency`\]
pub(crate) const MESH_MEMORY_NS: f64 = 11.0;

/// Local-L2 service latency for the Fig. 3 pointer chase when the
/// block fits in the tile's 1 MB L2 (§IV-A reports "approximately
/// 10 ns"). \[paper\]
pub(crate) const L2_CHASE_NS: f64 = 10.0;

/// Bandwidth derate applied to MCDRAM-cache *hits* relative to flat
/// HBM (tag checks and fills consume MCDRAM bandwidth). \[fit: Fig. 2
/// cache-mode plateau of 260 GB/s vs 330 GB/s flat\]
pub(crate) const CACHE_HIT_BW_DERATE: f64 = 0.79;

/// Bandwidth derate applied to MCDRAM-cache *misses* relative to plain
/// DDR (each miss also fills the MCDRAM line, and conflict evictions
/// write back). \[fit: Fig. 2 cache mode dipping below the 77 GB/s
/// DRAM line beyond ~24 GB\]
pub(crate) const CACHE_MISS_BW_DERATE: f64 = 0.845;

/// Extra latency in nanoseconds paid by an MCDRAM-cache miss before
/// the DDR access starts: tags live *in* MCDRAM, so a miss costs most
/// of an MCDRAM round trip on top of the DDR access. McCalpin measured
/// cache-mode miss latency near the sum of both devices' latencies
/// (~270 ns) \[18\]; Chang et al. \[25\] report the same effect.
/// \[derived\]
pub(crate) const CACHE_MISS_TAG_NS: f64 = 100.0;

/// DGEMM arithmetic intensity actually presented to memory after MKL's
/// cache blocking, in flops per byte. \[fit: Fig. 4a's 300 GFLOPS
/// DRAM plateau = 3.9 F/B × 77 GB/s\]
pub const DGEMM_FLOPS_PER_BYTE: f64 = 3.9;

/// Effective DGEMM compute roof in GFLOPS by total thread count
/// (64/128/192): MKL on KNL needs ≥2 threads/core to fill the VPUs.
/// 256-thread runs did not complete in the paper (Fig. 6a note).
/// \[fit: Fig. 6a\]
pub const DGEMM_COMPUTE_ROOF: [(u32, f64); 3] = [(64, 600.0), (128, 850.0), (192, 1020.0)];

/// MiniFE CSR matrix traffic per row per CG iteration in bytes
/// (27 nnz × (8-byte value + 4-byte column) + row pointer).
/// \[derived from the CSR layout\]
pub const MINIFE_MATRIX_BYTES_PER_ROW: f64 = 328.0;

/// MiniFE x-vector gather traffic per row per CG iteration in bytes:
/// 27 gathers pulling partially reused cache lines. \[fit: together
/// with the matrix term this reproduces the ~20 B/F the paper's
/// absolute CG MFLOPS imply\]
pub const MINIFE_GATHER_BYTES_PER_ROW: f64 = 512.0;

/// MiniFE CG vector traffic per row per iteration (axpys, dots, SpMV
/// destination, write-allocate) in bytes. \[derived + fit\]
pub const MINIFE_VECTOR_BYTES_PER_ROW: f64 = 300.0;

/// MiniFE flops per row per CG iteration (2 per nnz + vector updates).
/// \[derived\]
pub const MINIFE_FLOPS_PER_ROW: f64 = 66.0;

/// MiniFE non-memory overhead per flop in nanoseconds at 64 threads,
/// shrinking with thread count (dot-product reductions, loop
/// overhead). \[fit: Fig. 4b's 3× HBM/DRAM ratio — pure bandwidth
/// ratio would be 4.3×\]
pub const MINIFE_COMPUTE_NS_PER_FLOP_64T: f64 = 0.023;

/// GUPS reporting scale: the paper's HPCC RandomAccess configuration
/// reports ~0.0105 GUPS for a 64-thread node, ~70× below the raw
/// random-line rate of the memory system, because the benchmark's
/// strict lookahead window and error-bounds serialize updates.
/// We model the memory behaviour faithfully and apply this constant at
/// the *reporting* stage. \[fit: Fig. 4c absolute scale\]
pub const GUPS_SERIALIZATION: f64 = 70.0;

/// Average number of nuclides whose cross-sections one XSBench
/// macroscopic lookup touches (reference `-l large` materials mix).
/// \[XSBench docs\]
pub const XSBENCH_NUCLIDES_PER_LOOKUP: f64 = 68.0;

/// Dependent memory accesses per nuclide micro-lookup that miss the
/// caches at the reference 5.6-GB problem (the tail of the binary
/// search over the unionized grid plus the gridpoint read; the top
/// levels of the search tree stay L2-resident). \[derived\]
pub const XSBENCH_DEPS_BASE: f64 = 6.0;

/// Additional dependent accesses per doubling of the problem size
/// beyond 5.6 GB (one more uncached search level every ~3 doublings).
/// \[derived + fit: Fig. 4e's mild decline with size\]
pub const XSBENCH_DEPS_PER_DOUBLING: f64 = 0.3;

/// Problem size at which [`XSBENCH_DEPS_BASE`] applies (bytes).
pub const XSBENCH_REFERENCE_BYTES: f64 = 5.6 * 1024.0 * 1024.0 * 1024.0;

/// Concurrent nuclide micro-lookups a thread overlaps (independent
/// iterations of the nuclide loop in flight). \[fit: Fig. 4e's
/// ~2.5 M lookups/s at 64 threads\]
pub const XSBENCH_MLP_PER_THREAD: f64 = 3.2;

/// Non-memory CPU nanoseconds per nuclide micro-lookup (interpolation
/// arithmetic). \[derived from the kernel's ~50 flops at 1.3 GHz\]
pub const XSBENCH_CPU_NS_PER_NUCLIDE: f64 = 40.0;

/// Graph500: dependent memory accesses per traversed edge that reach
/// memory (neighbour fetch from CSR, visited-bitmap probe, parent
/// update). \[derived from the CSR BFS implementation\]
pub const G500_DEPS_PER_EDGE: u32 = 3;

/// Graph500: per-thread MLP during BFS (atomics and frontier
/// dependencies limit overlap below the GUPS level). \[fit: Fig. 4d's
/// 1–2 × 10⁸ TEPS scale\]
pub const G500_MLP_PER_THREAD: f64 = 1.6;

/// Graph500: non-memory CPU nanoseconds per traversed edge (queue
/// operations, CAS retries) at the 1.3-GHz core. \[fit: Fig. 4d's
/// absolute TEPS\]
pub const G500_CPU_NS_PER_EDGE: f64 = 60.0;

/// Graph500: load-imbalance/contention inflation coefficient: BFS time
/// is multiplied by `1 + c·(threads/64)³`, which places the TEPS peak
/// at 128 threads as in Fig. 6c. \[fit\]
pub const G500_IMBALANCE_COEFF: f64 = 0.04;

/// Graph500: bytes of footprint per undirected edge (CSR adjacency in
/// both directions + parent array + bitmap). \[derived\]
pub const G500_BYTES_PER_EDGE: f64 = 20.0;

#[cfg(test)]
mod tests {
    use super::*;
    use memdev::presets;

    /// Cache-line size in bytes. \[KNL docs\]
    const LINE_BYTES: f64 = 64.0;

    #[test]
    fn stream_mlp_reproduces_hbm_plateau() {
        // 64 cores × MLP × 64 B / 154 ns should be ≈ 330 GB/s.
        let bw = CORES as f64 * STREAM_MLP_PER_CORE_1T * LINE_BYTES
            / (presets::MCDRAM_IDLE_LATENCY_NS * 1e-9)
            / 1e9;
        assert!(
            (bw - presets::MCDRAM_SUSTAINED_1T_GBS).abs() < 10.0,
            "bw {bw}"
        );
    }

    #[test]
    fn mlp_cap_exceeds_saturation_needs() {
        // With the cap, HBM can reach its 420 GB/s maximum.
        let bw = CORES as f64 * STREAM_MLP_PER_CORE_CAP * LINE_BYTES
            / (presets::MCDRAM_IDLE_LATENCY_NS * 1e-9)
            / 1e9;
        assert!(bw > presets::MCDRAM_SUSTAINED_MAX_GBS, "bw {bw}");
    }

    #[test]
    fn ddr_saturates_even_at_one_thread() {
        let bw = CORES as f64 * STREAM_MLP_PER_CORE_1T * LINE_BYTES
            / (presets::DDR_IDLE_LATENCY_NS * 1e-9)
            / 1e9;
        assert!(bw > presets::DDR_SUSTAINED_GBS * 3.0);
    }

    #[test]
    fn dgemm_roof_is_sorted_and_positive() {
        let mut prev = 0.0;
        for (t, g) in DGEMM_COMPUTE_ROOF {
            assert!(t > 0 && g > prev);
            prev = g;
        }
    }
}
