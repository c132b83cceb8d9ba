//! Trace-replay engine bench: accesses/second through streaming
//! replay, generation included, plus the peak bytes of trace it
//! buffers. Uses small configurations so a bench run stays in seconds;
//! the repository benchmark (`benchmark/run.sh`) times full-size,
//! digest-checked replays of both inputs end to end and per layer.
//!
//! The `sim_new` group times `TraceSim::new` alone at 8 and 64 cores
//! in flat and cache mode: the fixed cost every replay pays before its
//! first access, which dominates short replays such as an advisor's.
//!
//! The `timing_kernel` group times the merge thread's three per-access
//! models one at a time through their public APIs — the earliest-clock
//! selector, the MSHR file and the DRAM bank model — so a timing-stage
//! change can be sized per layer. Each iteration is a batch of
//! `KERNEL_OPS` operations; ns/op is ns/iter divided by the batch.
//!
//! The `classify_kernel` group does the same for the producer stage's
//! per-core classification: one KNL L1/L2/TLB `Hierarchy::access` per
//! access on a STREAM line sweep and on GUPS read-modify-writes of
//! uniform-random lines, and `Tlb::translate` alone on random pages.

use bench::harness::{Criterion, Throughput};
use bench::replay::{ReplayConfig, BENCH_SEED};
use bench::{criterion_group, criterion_main};
use cachesim::cache::AccessKind;
use cachesim::hierarchy::{Hierarchy, HierarchyConfig};
use cachesim::mshr::{Mshr, MshrOutcome};
use cachesim::tlb::{Tlb, TlbConfig};
use memdev::bank::{DramGeometry, DramModel, DramTiming};
use simfabric::merge::LoserTree;
use simfabric::prng::Rng;
use simfabric::{Duration, SimTime};
use workloads::tracegen::{replay_streaming, TraceKind};

/// Operations per `timing_kernel` and `classify_kernel` iteration.
const KERNEL_OPS: usize = 4_096;

/// Bytes the `classify_kernel` accesses span: `replay_random`'s 64-MiB
/// GUPS table, 64 times the L2 and 16 384 4-KB pages against the
/// TLB's 320 entries.
const CLASSIFY_SPAN: u64 = 64 << 20;

/// Random line addresses the `classify_kernel` group cycles through:
/// enough that a line comes round again only long after L2 and the
/// TLB have forgotten it, as a fresh draw would.
const RANDOM_DRAWS: usize = 1 << 20;

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

        // Streaming regenerates the trace inside the timed region —
        // overlapping generation with replay is what it is for.
        let mut peak = 0;
        group.bench_function(&format!("streaming/{}", cfg.label()), |b| {
            b.iter(|| {
                let mut sim = make_sim(&cfg);
                let mut source = cfg
                    .kind
                    .source(cfg.cores, cfg.accesses_per_core, BENCH_SEED);
                let r = replay_streaming(&mut sim, source.as_mut());
                peak = sim.last_peak_trace_buffer_bytes() as u64;
                bench::harness::black_box(r)
            });
        });
        group.finish();
        println!(
            "trace_replay/streaming/{:<22} peak trace buffer: {:>12} bytes",
            cfg.label(),
            peak
        );
    }
}

fn bench_sim_new(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_new");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(600));
    for (mode, setup) in [
        ("flat", knl::MemSetup::DramOnly),
        ("cache", knl::MemSetup::CacheMode),
    ] {
        let machine = knl::MachineConfig::knl7210(setup, 64);
        for cores in [8u32, 64] {
            group.bench_function(&format!("{mode}/{cores}"), |b| {
                b.iter(|| {
                    bench::harness::black_box(knl::tracesim::TraceSim::new(
                        &machine,
                        cores,
                        knl::tracesim::TracePlacement::AllDdr,
                        simfabric::ByteSize::mib(8),
                    ))
                });
            });
        }
    }
    group.finish();
}

/// Seeded per-access latencies in picoseconds, 1–200 ns: the spread
/// between an L2 hit and a contended DRAM access.
fn latency_draws() -> Vec<u64> {
    let mut rng = Rng::seed_from_u64(BENCH_SEED);
    (0..KERNEL_OPS)
        .map(|_| rng.gen_range(1_000..200_000u64))
        .collect()
}

/// Seeded stream-shaped latencies in picoseconds: a 120 ns DRAM base
/// plus 0–2 ns jitter. Completions arrive nearly in request order, so
/// the ordered MSHR file inserts each at or near its tail, as a STREAM
/// replay does.
fn stream_latency_draws() -> Vec<u64> {
    let mut rng = Rng::seed_from_u64(BENCH_SEED);
    (0..KERNEL_OPS)
        .map(|_| 120_000 + rng.gen_range(0..2_000u64))
        .collect()
}

fn bench_timing_kernel(c: &mut Criterion) {
    let lat = latency_draws();
    let stream_lat = stream_latency_draws();
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
    // (`STREAM_MLP_PER_CORE_CAP`). `_full` draws latencies uniformly
    // (completions land anywhere in the file); `_stream` draws them
    // stream-shaped (completions land at or near the tail).
    for (capacity, shape, draws) in [
        knl::calib::STREAM_MLP_PER_CORE_1T as usize,
        knl::calib::STREAM_MLP_PER_CORE_CAP as usize,
    ]
    .into_iter()
    .flat_map(|cap| [(cap, "full", &lat), (cap, "stream", &stream_lat)])
    {
        group.bench_function(&format!("mshr_register_complete/{capacity}_{shape}"), |b| {
            let mut mshr = Mshr::new(capacity);
            let mut now = SimTime::ZERO;
            let mut line = 0u64;
            b.iter(|| {
                for &l in draws {
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

fn bench_classify_kernel(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(BENCH_SEED);
    let random_lines: Vec<u64> = (0..RANDOM_DRAWS)
        .map(|_| rng.gen_range(0..CLASSIFY_SPAN / 64) * 64)
        .collect();
    let hierarchy = || Hierarchy::new(HierarchyConfig::knl_flat(Duration::ZERO));
    let mut group = c.benchmark_group("classify_kernel");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(600));
    group.throughput(Throughput::Elements(KERNEL_OPS as u64));

    // One STREAM core: consecutive lines, so every access misses both
    // caches and nearly every translation is the MRU page.
    group.bench_function("hierarchy_access/stream", |b| {
        let mut h = hierarchy();
        let mut addr = 0u64;
        b.iter(|| {
            for _ in 0..KERNEL_OPS {
                addr = (addr + 64) % CLASSIFY_SPAN;
                h.access(addr, AccessKind::Read);
            }
            addr
        });
    });

    // GUPS updates: a read then a write of each random line, so the
    // reads miss both caches and walk the TLB, the writes hit L1, and
    // L2 evicts dirty lines.
    group.bench_function("hierarchy_access/gups_random", |b| {
        let mut h = hierarchy();
        let mut lines = random_lines.iter().cycle();
        b.iter(|| {
            for _ in 0..KERNEL_OPS / 2 {
                let addr = *lines.next().expect("cycle never ends");
                h.access(addr, AccessKind::Read);
                h.access(addr, AccessKind::Write);
            }
        });
    });

    // The KNL 4-KB DTLB alone on the same random lines: mostly walks.
    group.bench_function("tlb_translate/random_pages", |b| {
        let mut tlb = Tlb::new(TlbConfig::knl_4k());
        let mut lines = random_lines.iter().cycle();
        b.iter(|| {
            for _ in 0..KERNEL_OPS {
                tlb.translate(*lines.next().expect("cycle never ends"));
            }
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_replay_paths,
    bench_sim_new,
    bench_timing_kernel,
    bench_classify_kernel
);
criterion_main!(benches);
