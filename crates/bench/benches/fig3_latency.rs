//! Fig. 3 bench: dual random read latency model over the block-size
//! sweep.

use bench::harness::{BenchmarkId, Criterion};
use bench::{criterion_group, criterion_main};
use workloads::tinymembench::fig3_block_sizes;

fn bench_fig3_model(c: &mut Criterion) {
    let tlb = cachesim::tlb::TlbConfig::knl_4k();
    let ddr = memdev::ddr4_knl();
    let hbm = memdev::mcdram_knl();
    let mut group = c.benchmark_group("fig3_latency_model");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));
    for block in fig3_block_sizes() {
        group.bench_with_input(
            BenchmarkId::new("dual_read_model", block.to_string()),
            &block,
            |b, &blk| {
                b.iter(|| {
                    let d = knl::dual_random_read_latency(&ddr, blk, &tlb);
                    let h = knl::dual_random_read_latency(&hbm, blk, &tlb);
                    bench::harness::black_box((d, h))
                })
            },
        );
    }
    group.finish();
    println!(
        "{}",
        hybridmem::report::render_figure(&hybridmem::figures::fig3())
    );
}

criterion_group!(benches, bench_fig3_model);
criterion_main!(benches);
