//! Fig. 5 bench: STREAM bandwidth under 1–4 hardware threads per core
//! on DRAM and HBM.

use bench::harness::{BenchmarkId, Criterion};
use bench::{criterion_group, criterion_main};
use knl::tracesim::{TracePlacement, TraceSim};
use knl::{Machine, MachineConfig, MemSetup};
use simfabric::{par, ByteSize};
use workloads::stream::StreamBench;
use workloads::tracegen::{replay_streaming, TraceKind};

fn bench_fig5(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_stream_threads");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));
    let bench = StreamBench::new(ByteSize::gib(6));
    for setup in [MemSetup::DramOnly, MemSetup::HbmOnly] {
        for ht in 1..=4u32 {
            group.bench_with_input(
                BenchmarkId::new(setup.label(), format!("ht{ht}")),
                &ht,
                |b, &ht| {
                    b.iter(|| {
                        let mut m = Machine::knl7210(setup, 64 * ht).unwrap();
                        bench::harness::black_box(bench.triad_bandwidth(&mut m).unwrap())
                    })
                },
            );
        }
    }
    group.finish();
    // Trace-level counterpart: the STREAM trace replayed on the
    // streaming engine, generation included, at a 1/2/4/8
    // classification-worker ladder (the replay is bit-identical at
    // every rung; only wall-clock changes).
    let mut group = c.benchmark_group("fig5_trace_replay_workers");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("run_streaming", format!("workers{workers}")),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let cfg = MachineConfig::knl7210(MemSetup::DramOnly, 64);
                    let mut sim = TraceSim::new(&cfg, 16, TracePlacement::AllDdr, ByteSize::mib(8));
                    let mut source = TraceKind::Stream.source(16, 2_000, 0xF15);
                    par::with_threads(workers, || {
                        bench::harness::black_box(replay_streaming(&mut sim, source.as_mut()))
                    })
                })
            },
        );
    }
    group.finish();
    println!(
        "{}",
        hybridmem::report::render_figure(&hybridmem::figures::fig5())
    );
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);
