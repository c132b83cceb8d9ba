//! Ablation benches for the design choices DESIGN.md calls out:
//! hybrid-mode partition ratio, huge pages, cluster mode, MCDRAM-cache
//! associativity (direct-mapped vs 8-way via the exact cache model),
//! and the trace-vs-analytic cross-check.

use bench::harness::{BenchmarkId, Criterion};
use bench::{criterion_group, criterion_main};
use knl::access::RandomOp;
use knl::{Machine, MachineConfig, MemSetup};
use mesh::{ClusterMode, MeshModel};
use simfabric::ByteSize;
use workloads::stream::StreamBench;

/// Hybrid mode: sweep the MCDRAM cache fraction for a 20-GB STREAM
/// (the configuration the paper describes but does not evaluate).
fn bench_hybrid_fraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_hybrid_fraction");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));
    for pct in [0u32, 25, 50, 75, 100] {
        group.bench_with_input(BenchmarkId::new("stream20GB", pct), &pct, |b, &pct| {
            b.iter(|| {
                let cfg = MachineConfig::knl7210_hybrid(pct as f64 / 100.0, 64);
                let mut m = Machine::new(cfg).unwrap();
                let bench = StreamBench::new(ByteSize::gib(20));
                bench::harness::black_box(bench.triad_bandwidth(&mut m).ok())
            })
        });
    }
    group.finish();
    // Print the sweep values.
    println!("hybrid-mode MCDRAM cache fraction vs STREAM(20GB) GB/s:");
    for pct in [0u32, 25, 50, 75, 100] {
        let cfg = MachineConfig::knl7210_hybrid(pct as f64 / 100.0, 64);
        let mut m = Machine::new(cfg).unwrap();
        match StreamBench::new(ByteSize::gib(20)).triad_bandwidth(&mut m) {
            Ok(bw) => println!("  {pct:>3}% cache: {bw:.1} GB/s"),
            Err(_) => println!("  {pct:>3}% cache: does not fit"),
        }
    }
}

/// Huge pages: 2-MB pages shrink the TLB overhead that drives the
/// Fig. 3 tail.
fn bench_huge_pages(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_huge_pages");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));
    for huge in [false, true] {
        group.bench_with_input(
            BenchmarkId::new("gups8GB", if huge { "2M" } else { "4K" }),
            &huge,
            |b, &huge| {
                b.iter(|| {
                    let mut cfg = MachineConfig::knl7210(MemSetup::DramOnly, 64);
                    cfg.huge_pages = huge;
                    let mut m = Machine::new(cfg).unwrap();
                    let t = m.alloc("t", ByteSize::gib(8)).unwrap();
                    bench::harness::black_box(m.random_rate(&RandomOp::updates(&t, 1_000)))
                })
            },
        );
    }
    group.finish();
}

/// Cluster modes: average CHA→memory-port distance.
fn bench_cluster_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_cluster_modes");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));
    for mode in [
        ClusterMode::AllToAll,
        ClusterMode::Quadrant,
        ClusterMode::Hemisphere,
        ClusterMode::Snc4,
    ] {
        group.bench_with_input(
            BenchmarkId::new("avg_mem_latency", format!("{mode:?}")),
            &mode,
            |b, &mode| {
                b.iter(|| {
                    let m = MeshModel::knl(mode);
                    bench::harness::black_box(m.avg_memory_latency(true))
                })
            },
        );
    }
    group.finish();
    println!("cluster-mode average memory-path latency (MCDRAM):");
    for mode in [
        ClusterMode::AllToAll,
        ClusterMode::Quadrant,
        ClusterMode::Hemisphere,
    ] {
        let m = MeshModel::knl(mode);
        println!("  {mode:?}: {}", m.avg_memory_latency(true));
    }
}

/// MCDRAM cache associativity: exact direct-mapped cache vs an 8-way
/// set-associative alternative on a cyclic overflow sweep.
fn bench_msc_associativity(c: &mut Criterion) {
    use cachesim::cache::{AccessKind, Cache, CacheConfig};
    use cachesim::mcdram_cache::MemorySideCache;
    use cachesim::replacement::ReplacementPolicy;
    let mut group = c.benchmark_group("ablation_msc_associativity");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));
    let capacity = ByteSize::mib(1);
    let footprint = 2 * capacity.as_u64(); // 2x overflow
    group.bench_function("direct_mapped", |b| {
        b.iter(|| {
            let mut msc = MemorySideCache::new(capacity, 64);
            for _ in 0..2 {
                for a in (0..footprint).step_by(64) {
                    msc.access(a, false);
                }
            }
            bench::harness::black_box(msc.hit_rate())
        })
    });
    group.bench_function("eight_way_lru", |b| {
        b.iter(|| {
            let mut c8 = Cache::new(CacheConfig {
                capacity,
                line_bytes: 64,
                ways: 8,
                replacement: ReplacementPolicy::Lru,
                write_allocate: true,
            });
            for _ in 0..2 {
                for a in (0..footprint).step_by(64) {
                    c8.access(a, AccessKind::Read);
                }
            }
            bench::harness::black_box(c8.stats().hit_rate())
        })
    });
    group.finish();
    // Report the hit rates (the design insight: direct mapping gets 0%
    // on cyclic overflow — the Fig. 2 cliff; LRU gets 0% too, but
    // random replacement would not).
    let mut msc = MemorySideCache::new(capacity, 64);
    for _ in 0..2 {
        for a in (0..footprint).step_by(64) {
            msc.access(a, false);
        }
    }
    println!(
        "2x-overflow cyclic sweep hit rates: direct-mapped {:.3}",
        msc.hit_rate()
    );
}

criterion_group!(
    benches,
    bench_hybrid_fraction,
    bench_huge_pages,
    bench_cluster_modes,
    bench_msc_associativity
);
criterion_main!(benches);
