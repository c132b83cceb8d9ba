//! Cross-check the workload trace generators against the line-accurate
//! trace simulator: the paper's qualitative per-workload findings must
//! emerge from the exact substrate models, not just the calibrated
//! analytic ones.

use knl::tracesim::{TraceAccess, TracePlacement, TraceSim, TraceSimReport};
use knl::{MachineConfig, MemSetup};
use simfabric::ByteSize;
use workloads::tracegen;

/// Replay a whole `trace` on a fresh `cores`-core simulator, as one
/// streamed chunk; returns the simulator (for its device stats) and
/// the report.
fn replay(
    setup: MemSetup,
    cores: u32,
    placement: TracePlacement,
    trace: &[TraceAccess],
) -> (TraceSim, TraceSimReport) {
    let mut sim = TraceSim::new(
        &MachineConfig::knl7210(setup, 64),
        cores,
        placement,
        ByteSize::mib(4),
    );
    let mut whole = Some(trace);
    let report = sim.run_streaming(|buf| {
        let chunk = whole.take().unwrap_or_default();
        buf.extend_from_slice(chunk);
        chunk.len()
    });
    (sim, report)
}

#[test]
fn stream_trace_prefers_hbm_at_scale() {
    let trace = tracegen::stream_trace(64, 600, 1);
    let d = replay(MemSetup::DramOnly, 64, TracePlacement::AllDdr, &trace).1;
    let h = replay(MemSetup::HbmOnly, 64, TracePlacement::AllHbm, &trace).1;
    assert!(
        h.bandwidth_gbs > 2.0 * d.bandwidth_gbs,
        "hbm {:.1} vs ddr {:.1}",
        h.bandwidth_gbs,
        d.bandwidth_gbs
    );
}

#[test]
fn gups_trace_prefers_ddr_latency() {
    // Few cores: latency-bound random updates. HBM's higher device
    // latency shows up directly in the average access latency.
    let trace = tracegen::gups_trace(4, ByteSize::mib(512).as_u64(), 2_000, 11);
    let d = replay(MemSetup::DramOnly, 4, TracePlacement::AllDdr, &trace).1;
    let h = replay(MemSetup::HbmOnly, 4, TracePlacement::AllHbm, &trace).1;
    assert!(
        h.avg_latency >= d.avg_latency,
        "hbm latency {} should not beat ddr {}",
        h.avg_latency,
        d.avg_latency
    );
}

#[test]
fn chase_trace_shows_the_fig3_gap() {
    let trace = tracegen::chase_trace(ByteSize::mib(256).as_u64(), 3_000, 5);
    let d = replay(MemSetup::DramOnly, 1, TracePlacement::AllDdr, &trace).1;
    let h = replay(MemSetup::HbmOnly, 1, TracePlacement::AllHbm, &trace).1;
    let gap = (h.avg_latency.as_ns() - d.avg_latency.as_ns()) / d.avg_latency.as_ns();
    // The device-level gap (bank timing difference) must be visible;
    // the full ~18% includes loaded-latency effects the bank model
    // only partially captures.
    assert!(
        gap > 0.02,
        "chase gap {gap:.3} (ddr {}, hbm {})",
        d.avg_latency,
        h.avg_latency
    );
}

#[test]
fn xsbench_trace_dependent_chains_dominate() {
    let trace = tracegen::xsbench_trace(8, ByteSize::mib(512).as_u64(), 100, 6, 2);
    let d = replay(MemSetup::DramOnly, 8, TracePlacement::AllDdr, &trace).1;
    // Dependent chains: average latency far above the streaming case.
    let stream = tracegen::stream_trace(8, 600, 1);
    let s = replay(MemSetup::DramOnly, 8, TracePlacement::AllDdr, &stream).1;
    assert!(
        d.avg_latency > s.avg_latency,
        "chains {} should exceed stream latency {}",
        d.avg_latency,
        s.avg_latency
    );
}

#[test]
fn bfs_trace_mixed_pattern_lands_between() {
    let bfs = tracegen::bfs_trace(8, ByteSize::mib(256).as_u64(), 800, 3);
    let d = replay(MemSetup::DramOnly, 8, TracePlacement::AllDdr, &bfs).1;
    assert!(d.accesses == bfs.len() as u64);
    assert!(d.bandwidth_gbs > 0.0);
    // Row-buffer behaviour sits between pure stream and pure random:
    // check via the DDR bank stats.
    let stream = tracegen::stream_trace(8, 800, 1);
    let (pure_stream_sim, _) = replay(MemSetup::DramOnly, 8, TracePlacement::AllDdr, &stream);
    let stream_hits = pure_stream_sim.ddr_stats().hit_rate();
    let rand = tracegen::gups_trace(8, ByteSize::mib(256).as_u64(), 800, 3);
    let (pure_rand_sim, _) = replay(MemSetup::DramOnly, 8, TracePlacement::AllDdr, &rand);
    let rand_hits = pure_rand_sim.ddr_stats().hit_rate();
    let (bfs_sim, _) = replay(MemSetup::DramOnly, 8, TracePlacement::AllDdr, &bfs);
    let bfs_hits = bfs_sim.ddr_stats().hit_rate();
    assert!(
        bfs_hits > rand_hits && bfs_hits < stream_hits,
        "row-hit rates: stream {stream_hits:.2} > bfs {bfs_hits:.2} > random {rand_hits:.2} expected"
    );
}
