//! Trace-replay engine bench: accesses/second through the sequential
//! and streaming replay paths, plus the peak bytes of trace each path
//! buffers. Uses small configurations so a bench run stays in seconds;
//! the repository benchmark (`benchmark/run.sh`) times full-size,
//! digest-checked replays end to end and per layer.
//!
//! The `timing_kernel` group times the merge thread's three per-access
//! models one at a time through their public APIs — the earliest-clock
//! selector, the MSHR file and the DRAM bank model — so a timing-stage
//! change can be sized per layer. Each iteration is a batch of
//! `KERNEL_OPS` operations; ns/op is ns/iter divided by the batch.

use bench::harness::{BenchmarkId, Criterion, Throughput};
use bench::replay::{ReplayConfig, BENCH_SEED};
use bench::{criterion_group, criterion_main};
use cachesim::mshr::{Mshr, MshrOutcome};
use memdev::bank::{DramGeometry, DramModel, DramTiming};
use simfabric::merge::LoserTree;
use simfabric::prng::Rng;
use simfabric::{Duration, SimTime};
use workloads::tracegen::{replay_streaming, TraceKind};

/// Operations per `timing_kernel` iteration.
const KERNEL_OPS: usize = 4_096;

fn bench_configs() -> Vec<ReplayConfig> {
    vec![
        ReplayConfig {
            kind: TraceKind::Stream,
            cores: 16,
            accesses_per_core: 4_000,
        },
        ReplayConfig {
            kind: TraceKind::Gups,
            cores: 16,
            accesses_per_core: 2_000,
        },
    ]
}

fn bench_replay_paths(c: &mut Criterion) {
    for cfg in bench_configs() {
        let trace = cfg
            .kind
            .generate(cfg.cores, cfg.accesses_per_core, BENCH_SEED);
        let make_sim = |cfg: &ReplayConfig| {
            knl::tracesim::TraceSim::new(
                &knl::MachineConfig::knl7210(knl::MemSetup::DramOnly, 64),
                cfg.cores,
                knl::tracesim::TracePlacement::AllDdr,
                simfabric::ByteSize::mib(8),
            )
        };
        let mut group = c.benchmark_group("trace_replay");
        group.sample_size(10);
        group.warm_up_time(std::time::Duration::from_millis(200));
        group.measurement_time(std::time::Duration::from_millis(600));
        group.throughput(Throughput::Elements(trace.len() as u64));

        let mut peaks: Vec<(&str, u64)> = Vec::new();
        group.bench_with_input(
            BenchmarkId::new("sequential", cfg.label()),
            &trace,
            |b, trace| {
                let mut peak = 0;
                b.iter(|| {
                    let mut sim = make_sim(&cfg);
                    let r = sim.run(trace);
                    peak = sim.last_peak_trace_buffer_bytes() as u64;
                    bench::harness::black_box(r)
                });
                peaks.push(("sequential", peak));
            },
        );
        // Streaming regenerates the trace inside the timed region —
        // overlapping generation with replay is what it is for.
        group.bench_with_input(
            BenchmarkId::new("streaming", cfg.label()),
            &trace,
            |b, _| {
                let mut peak = 0;
                b.iter(|| {
                    let mut sim = make_sim(&cfg);
                    let mut source = cfg
                        .kind
                        .source(cfg.cores, cfg.accesses_per_core, BENCH_SEED);
                    let r = replay_streaming(&mut sim, source.as_mut());
                    peak = sim.last_peak_trace_buffer_bytes() as u64;
                    bench::harness::black_box(r)
                });
                peaks.push(("streaming", peak));
            },
        );
        group.finish();
        for (path, peak) in peaks {
            println!(
                "trace_replay/{}/{:<22} peak trace buffer: {:>12} bytes",
                path,
                cfg.label(),
                peak
            );
        }
    }
}

/// Seeded per-access latencies in picoseconds, 1–200 ns: the spread
/// between an L2 hit and a contended DRAM access.
fn latency_draws() -> Vec<u64> {
    let mut rng = Rng::seed_from_u64(BENCH_SEED);
    (0..KERNEL_OPS)
        .map(|_| rng.gen_range(1_000..200_000u64))
        .collect()
}

fn bench_timing_kernel(c: &mut Criterion) {
    let lat = latency_draws();
    let mut group = c.benchmark_group("timing_kernel");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(600));
    group.throughput(Throughput::Elements(KERNEL_OPS as u64));

    // The merge loop's selector: pop the earliest of 64 core clocks,
    // advance it by one latency draw, re-key it.
    group.bench_function("loser_tree_set_winner/64", |b| {
        let mut tree = LoserTree::new(64);
        let mut clock = [0u64; 64];
        for c in 0..64 {
            tree.set(c, 0);
        }
        b.iter(|| {
            for &l in &lat {
                let c = tree.winner().expect("every slot open");
                clock[c] += l;
                tree.set(c, clock[c]);
            }
            tree.winner()
        });
    });

    // A full file on a miss stream of distinct lines: every miss
    // stalls, then allocates at the earliest completion, as the
    // replay's stall path does. 12 entries is the replay's file
    // (`STREAM_MLP_PER_CORE_1T`), 25 the per-core cap
    // (`STREAM_MLP_PER_CORE_CAP`).
    for capacity in [
        knl::calib::STREAM_MLP_PER_CORE_1T as usize,
        knl::calib::STREAM_MLP_PER_CORE_CAP as usize,
    ] {
        group.bench_function(&format!("mshr_register_complete/{capacity}_full"), |b| {
            let mut mshr = Mshr::new(capacity);
            let mut now = SimTime::ZERO;
            let mut line = 0u64;
            b.iter(|| {
                for &l in &lat {
                    line += 1;
                    let mut issue = now;
                    loop {
                        match mshr.register(line, issue) {
                            MshrOutcome::Stall { free_at } => issue = free_at,
                            MshrOutcome::Merged { .. } => break,
                            MshrOutcome::Allocated => {
                                mshr.complete_at(line, issue + Duration::from_ps(l));
                                break;
                            }
                        }
                    }
                    now += Duration::from_ps(l / 64);
                }
                now
            });
        });
    }

    // DDR banks on a line-interleaved stream, one access per ns.
    group.bench_function("dram_access/ddr_line_interleaved", |b| {
        let geometry = DramGeometry::ddr4_knl();
        let mut dram = DramModel::new(DramTiming::ddr4_2133(), geometry);
        let mut addr = 0u64;
        let mut at = SimTime::ZERO;
        b.iter(|| {
            let mut done = SimTime::ZERO;
            for _ in 0..KERNEL_OPS {
                addr += u64::from(geometry.line_bytes);
                at += Duration::from_ps(1_000);
                done = dram.access(addr, at);
            }
            done
        });
    });
    group.finish();
}

criterion_group!(benches, bench_replay_paths, bench_timing_kernel);
criterion_main!(benches);
