//! Fig. 4 bench: all five applications swept over problem size in the
//! three memory configurations (panels a–e).

use bench::harness::{BenchmarkId, Criterion};
use bench::{criterion_group, criterion_main};
use hybridmem::{AppSpec, SizeSweep, TraceSweep};
use knl::MemSetup;
use workloads::tracegen::TraceKind;

fn bench_fig4(c: &mut Criterion) {
    let panels: [(&str, AppSpec, &[f64]); 5] = [
        ("fig4a_dgemm", AppSpec::Dgemm, &[0.1, 6.0, 24.0]),
        ("fig4b_minife", AppSpec::MiniFe, &[0.9, 7.2, 28.8]),
        ("fig4c_gups", AppSpec::Gups, &[1.0, 8.0, 32.0]),
        ("fig4d_graph500", AppSpec::Graph500, &[1.1, 8.8, 35.0]),
        ("fig4e_xsbench", AppSpec::XsBench, &[5.6, 22.5, 90.0]),
    ];
    for (name, app, sizes) in panels {
        let mut group = c.benchmark_group(name);
        group.sample_size(10);
        group.warm_up_time(std::time::Duration::from_millis(300));
        group.measurement_time(std::time::Duration::from_millis(800));
        group.bench_with_input(BenchmarkId::new("sweep", "paper_sizes"), &app, |b, &app| {
            b.iter(|| {
                let sweep = SizeSweep::paper(app, sizes.to_vec());
                bench::harness::black_box(sweep.run())
            })
        });
        group.finish();
    }
    // Trace-level counterpart: the fig-4 apps with trace generators,
    // replayed through the sweep engine (classify once per hierarchy
    // config, replay the artifact per setup).
    let mut group = c.benchmark_group("fig4_trace_replay");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));
    for kind in [TraceKind::Gups, TraceKind::XsBench, TraceKind::Bfs] {
        group.bench_with_input(
            BenchmarkId::new("trace_sweep", kind.name()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let sweep = TraceSweep {
                        kinds: vec![kind],
                        cores: 16,
                        accesses_per_core: 1_000,
                        seed: 0xF14,
                        setups: vec![MemSetup::DramOnly, MemSetup::HbmOnly],
                    };
                    bench::harness::black_box(sweep.run())
                })
            },
        );
    }
    group.finish();
    for fig in [
        hybridmem::figures::fig4a(),
        hybridmem::figures::fig4b(),
        hybridmem::figures::fig4c(),
        hybridmem::figures::fig4d(),
        hybridmem::figures::fig4e(),
    ] {
        println!("{}", hybridmem::report::render_figure(&fig));
    }
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
