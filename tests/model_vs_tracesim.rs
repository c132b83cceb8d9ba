//! Cross-validation between the two execution paths: the analytic
//! machine model and the line-accurate trace simulator must agree on
//! the paper's qualitative orderings, and roughly on magnitudes where
//! both are meaningful.

use knl::tracesim::{TraceAccess, TracePlacement, TraceSim, TraceSimReport};
use knl::{Machine, MachineConfig, MemSetup, StreamOp};
use simfabric::ByteSize;

fn stream_trace(cores: u32, lines_per_core: u64) -> Vec<TraceAccess> {
    const BURST: u64 = 16;
    let base = |c: u32| (c as u64 * 23_456_789) & !63;
    let mut t = Vec::new();
    let mut i = 0;
    while i < lines_per_core {
        for c in 0..cores {
            for j in i..(i + BURST).min(lines_per_core) {
                t.push(TraceAccess::read(c, base(c) + j * 64));
            }
        }
        i += BURST;
    }
    t
}

/// Replay a whole `trace` through `sim` as one streamed chunk.
fn replay(sim: &mut TraceSim, trace: &[TraceAccess]) -> TraceSimReport {
    let mut whole = Some(trace);
    sim.run_streaming(|buf| {
        let chunk = whole.take().unwrap_or_default();
        buf.extend_from_slice(chunk);
        chunk.len()
    })
}

fn chase_trace(steps: u64) -> Vec<TraceAccess> {
    // Dependent chase with a page-crossing stride (no cache reuse).
    (0..steps)
        .map(|i| TraceAccess::chase(0, (i * (4 * 1024 * 1024 + 4096 + 64)) % (1 << 31)))
        .collect()
}

#[test]
fn both_paths_agree_streams_prefer_hbm() {
    // Trace path.
    let trace = stream_trace(64, 800);
    let cfg = MachineConfig::knl7210(MemSetup::DramOnly, 64);
    let mut sim_ddr = TraceSim::new(&cfg, 64, TracePlacement::AllDdr, ByteSize::mib(1));
    let mut sim_hbm = TraceSim::new(&cfg, 64, TracePlacement::AllHbm, ByteSize::mib(1));
    let trace_ratio =
        replay(&mut sim_hbm, &trace).bandwidth_gbs / replay(&mut sim_ddr, &trace).bandwidth_gbs;

    // Analytic path.
    let model_bw = |setup| {
        let mut m = Machine::knl7210(setup, 64).unwrap();
        let r = m.alloc("x", ByteSize::gib(4)).unwrap();
        let ops = [StreamOp::read_all(&r)];
        let d = m.price_stream(&ops);
        r.size().as_u64() as f64 / 1e9 / d.as_secs()
    };
    let model_ratio = model_bw(MemSetup::HbmOnly) / model_bw(MemSetup::DramOnly);

    assert!(trace_ratio > 2.0, "trace HBM/DDR ratio {trace_ratio}");
    assert!(model_ratio > 4.0, "model HBM/DDR ratio {model_ratio}");
    // Both paths agree on the winner and on "several times faster".
    assert!(
        (trace_ratio - model_ratio).abs() / model_ratio < 0.6,
        "paths diverge: trace {trace_ratio:.2} vs model {model_ratio:.2}"
    );
}

#[test]
fn both_paths_agree_chases_prefer_dram() {
    let trace = chase_trace(2_000);
    let cfg = MachineConfig::knl7210(MemSetup::DramOnly, 64);
    let mut sim_ddr = TraceSim::new(&cfg, 1, TracePlacement::AllDdr, ByteSize::mib(1));
    let mut sim_hbm = TraceSim::new(&cfg, 1, TracePlacement::AllHbm, ByteSize::mib(1));
    let ddr_lat = replay(&mut sim_ddr, &trace).avg_latency;
    let hbm_lat = replay(&mut sim_hbm, &trace).avg_latency;
    assert!(
        hbm_lat > ddr_lat,
        "trace path: HBM chase {hbm_lat} should exceed DDR {ddr_lat}"
    );

    // Analytic path agrees via the Fig. 3 model.
    let tlb = cachesim::tlb::TlbConfig::knl_4k();
    let d = knl::dual_random_read_latency(&memdev::ddr4_knl(), ByteSize::mib(256), &tlb);
    let h = knl::dual_random_read_latency(&memdev::mcdram_knl(), ByteSize::mib(256), &tlb);
    assert!(h > d);
}

#[test]
fn trace_cache_mode_ordering_matches_model_at_overflow() {
    // A working set at 2x the (scaled) MCDRAM cache, streamed twice:
    // cache mode must not beat plain DDR (the Fig. 2 tail).
    let lines = 2 * ByteSize::mib(2).as_u64() / 64;
    let mut trace = Vec::new();
    for _pass in 0..2 {
        for i in 0..lines {
            trace.push(TraceAccess::read(0, i * 64));
        }
    }
    let ddr_cfg = MachineConfig::knl7210(MemSetup::DramOnly, 64);
    let cache_cfg = MachineConfig::knl7210(MemSetup::CacheMode, 64);
    let mut plain = TraceSim::new(&ddr_cfg, 1, TracePlacement::AllDdr, ByteSize::mib(2));
    let mut cached = TraceSim::new(&cache_cfg, 1, TracePlacement::AllDdr, ByteSize::mib(2));
    let plain_t = replay(&mut plain, &trace).makespan;
    let cached_t = replay(&mut cached, &trace).makespan;
    assert!(
        cached_t >= plain_t,
        "cyclic overflow through the MCDRAM cache should not be faster: {cached_t} vs {plain_t}"
    );
}

#[test]
fn trace_cache_mode_serves_fitting_sets_from_mcdram() {
    // A 4-MB set through an 8-MB cache, four passes: after the first
    // pass the MCDRAM cache fields (almost) all of the traffic. A
    // *single* core is latency-bound, so the makespan stays close to
    // the plain-DDR run (MCDRAM's latency is ~18% higher) — exactly
    // the paper's one-thread-per-core observation; the bandwidth-side
    // benefit at full thread counts is covered by the analytic path
    // (machine::tests::cache_mode_tracks_fig2_shape).
    let lines = ByteSize::mib(4).as_u64() / 64;
    let mut trace = Vec::new();
    for _pass in 0..4 {
        for i in 0..lines {
            trace.push(TraceAccess::read(0, i * 64));
        }
    }
    let ddr_cfg = MachineConfig::knl7210(MemSetup::DramOnly, 64);
    let cache_cfg = MachineConfig::knl7210(MemSetup::CacheMode, 64);
    let mut plain = TraceSim::new(&ddr_cfg, 1, TracePlacement::AllDdr, ByteSize::mib(8));
    let mut cached = TraceSim::new(&cache_cfg, 1, TracePlacement::AllDdr, ByteSize::mib(8));
    let plain_r = replay(&mut plain, &trace);
    let cached_r = replay(&mut cached, &trace);
    // ≥ 3 of 4 passes' worth of lines served by the MCDRAM cache.
    assert!(
        cached_r.mcdram_cache_hits > 2 * lines,
        "too few MSC hits: {cached_r:?}"
    );
    // Overhead bounded: the first pass pays the full in-MCDRAM tag
    // probe before every DDR fetch (McCalpin measured cache-mode miss
    // latency near the *sum* of both devices' latencies) and warm
    // passes run at MCDRAM's higher latency, so a single latency-bound
    // core sees up to ~1.6x the plain-DDR time — never more.
    let ratio = cached_r.makespan.as_secs() / plain_r.makespan.as_secs();
    assert!(
        (0.8..1.6).contains(&ratio),
        "cache-mode single-core overhead out of range: {ratio}"
    );
}
