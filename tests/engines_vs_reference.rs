//! Both replay inputs — `run_streaming` (a generator or a chunked
//! slice) and `run_classified` (a prebuilt artifact) — against the
//! reference replay in `tests/support`, on small hand-built and seeded
//! adversarial traces: merge ties, cores that join late or never,
//! warm state across consecutive replays, and TLB-hostile traces under
//! every placement.

mod support;

use cachesim::cache::AccessKind;
use cachesim::hierarchy::{Hierarchy, HierarchyConfig, LevelHit};
use cachesim::tlb::TlbOutcome;
use knl::tracesim::{TraceAccess, TracePlacement, TraceSim, TraceSimReport};
use knl::{ClassifiedTrace, MachineConfig, MemSetup};
use memkind_sim::{MigrationSpec, PAGE_BYTES};
use simfabric::prng::Rng;
use simfabric::{par, ByteSize, Duration};
use std::collections::BTreeSet;
use support::ReferenceReplay;
use workloads::tracegen;

fn cfg(setup: MemSetup) -> MachineConfig {
    MachineConfig::knl7210(setup, 64)
}

/// Stream `chunks` through `sim`, one producer chunk each.
fn stream_chunks<'a, I>(sim: &mut TraceSim, chunks: I) -> TraceSimReport
where
    I: IntoIterator<Item = &'a [TraceAccess]>,
    I::IntoIter: Send,
{
    let mut chunks = chunks.into_iter();
    sim.run_streaming(move |buf| match chunks.next() {
        Some(chunk) => {
            buf.extend_from_slice(chunk);
            chunk.len()
        }
        None => 0,
    })
}

/// Classify `trace` for `cores` cores under the DDR-only config.
fn artifact(cores: u32, trace: &[TraceAccess]) -> ClassifiedTrace {
    ClassifiedTrace::build_from_trace(
        &cfg(MemSetup::DramOnly),
        cores,
        ByteSize::mib(1),
        "t",
        trace,
    )
}

#[test]
fn identical_clocks_tie_break_toward_lower_core() {
    // Two cores read the same lines in lockstep. An independent read
    // occupies its core for one cycle, so the clocks tie at nearly
    // every step, and each tie decides which core opens a DRAM row and
    // which one hits it. Every tie must resolve toward the lower core,
    // as the reference's linear scan does, in both inputs and through
    // refills that land mid-tie.
    let mut trace = Vec::new();
    for i in 0..200u64 {
        for c in [1u32, 0] {
            trace.push(TraceAccess::read(c, i * 4096));
        }
    }
    let dram = cfg(MemSetup::DramOnly);
    let mut want = ReferenceReplay::new(&dram, 2, TracePlacement::AllDdr, ByteSize::mib(1), None);
    want.replay(&trace);
    let make = || TraceSim::new(&dram, 2, TracePlacement::AllDdr, ByteSize::mib(1));
    let mut classified = make();
    classified.set_replay_window(8);
    let got = classified.run_classified(&artifact(2, &trace));
    want.assert_matches(&got, &classified, "classified, window 8");
    let mut streamed = make();
    let got = par::with_threads(2, || stream_chunks(&mut streamed, trace.chunks(7)));
    want.assert_matches(&got, &streamed, "streamed in chunks of 7");
}

#[test]
fn streaming_matches_the_reference_at_every_chunk_size() {
    // From one access per chunk to the whole trace in one, on 1, 2
    // and 8 workers. A trace spread over cores streams in bounded
    // buffers, well below the materialized trace.
    let trace = tracegen::stream_trace(4, 300, 1);
    let dram = cfg(MemSetup::DramOnly);
    let mut want = ReferenceReplay::new(&dram, 4, TracePlacement::AllDdr, ByteSize::mib(1), None);
    want.replay(&trace);
    for chunk in [1usize, 64, 1 << 20] {
        for workers in [1, 2, 8] {
            let mut sim = TraceSim::new(&dram, 4, TracePlacement::AllDdr, ByteSize::mib(1));
            let got = par::with_threads(workers, || stream_chunks(&mut sim, trace.chunks(chunk)));
            want.assert_matches(&got, &sim, &format!("chunk={chunk} workers={workers}"));
            if chunk == 64 {
                let peak = sim.last_peak_trace_buffer_bytes();
                let whole = std::mem::size_of_val(trace.as_slice());
                assert!(
                    peak < whole,
                    "streaming buffered {peak} B of a {whole} B trace"
                );
            }
        }
    }
}

#[test]
fn one_core_and_empty_streams_match_the_reference() {
    // One core: the merge degenerates to one slot, and streaming
    // buffers the whole classified trace.
    let trace: Vec<TraceAccess> = (0..400u64)
        .map(|i| TraceAccess::chase(0, i * (2 * 1024 * 1024 + 64) % (1 << 30)))
        .collect();
    let dram = cfg(MemSetup::DramOnly);
    let mut want = ReferenceReplay::new(&dram, 1, TracePlacement::AllDdr, ByteSize::mib(1), None);
    want.replay(&trace);
    let mut sim = TraceSim::new(&dram, 1, TracePlacement::AllDdr, ByteSize::mib(1));
    let got = stream_chunks(&mut sim, [&trace[..]]);
    want.assert_matches(&got, &sim, "one core");
    // No chunks at all.
    let mut want = ReferenceReplay::new(&dram, 4, TracePlacement::AllDdr, ByteSize::mib(1), None);
    assert_eq!(want.replay(&[]), TraceSimReport::default());
    let mut sim = TraceSim::new(&dram, 4, TracePlacement::AllDdr, ByteSize::mib(1));
    let got = sim.run_streaming(|_| 0);
    want.assert_matches(&got, &sim, "empty stream");
    assert_eq!(sim.last_peak_trace_buffer_bytes(), 0);
    assert_eq!(sim.last_timing_stats().windows, 0);
}

#[test]
fn streaming_cores_that_join_late_or_never() {
    // Eight cores: 0 and 2 run from the first chunk, 5 appears only
    // in the last chunk, and 1/3/4/6/7 never receive work. The silent
    // cores stay ghosts until the producer ends and are then closed.
    let (mut head, stride) = (Vec::new(), 2 * 1024 * 1024 + 64);
    for i in 0..300u64 {
        head.push(TraceAccess::read(0, i * 64));
        head.push(TraceAccess::chase(2, (1 << 28) + i * stride));
    }
    let tail: Vec<TraceAccess> = (0..40u64)
        .map(|i| TraceAccess::write(5, (1 << 29) + i * 64))
        .collect();
    let trace = [head.as_slice(), tail.as_slice()].concat();
    let dram = cfg(MemSetup::DramOnly);
    let mut want = ReferenceReplay::new(&dram, 8, TracePlacement::AllDdr, ByteSize::mib(1), None);
    want.replay(&trace);
    for chunk in [1usize, 64, trace.len()] {
        for workers in [1, 2, 8] {
            let mut sim = TraceSim::new(&dram, 8, TracePlacement::AllDdr, ByteSize::mib(1));
            let chunks = head.chunks(chunk).chain([&tail[..]]);
            let got = par::with_threads(workers, || stream_chunks(&mut sim, chunks));
            want.assert_matches(&got, &sim, &format!("chunk={chunk} workers={workers}"));
        }
    }
}

#[test]
fn consecutive_pipelined_runs_keep_hierarchies_warm() {
    // In flat mode, 1000 lines per core fit each private L2, so a
    // second replay of the same trace hits where the first missed —
    // but only if the producer hands the warm hierarchies back after
    // each run, including the empty run that comes first. In cache
    // mode, 20,000 lines per core overflow L2 but fit the 4 MiB
    // memory-side caches, so the second replay hits those instead,
    // and only if the merge thread keeps them warm too. The reference
    // keeps all of its state across replays. Chunks of 64 match the
    // trace's four-core burst rounds; chunks of 100 cut through them.
    for (setup, per_core) in [(MemSetup::DramOnly, 1000), (MemSetup::CacheMode, 20_000)] {
        let trace = tracegen::stream_trace(4, per_core, 1);
        let cfg = cfg(setup);
        let l2_hits = |s: &TraceSim| match s.shard_metrics(0).get("cache.l2_hits") {
            Some(simfabric::telemetry::MetricValue::Counter(n)) => *n,
            other => panic!("cache.l2_hits: {other:?}"),
        };
        for chunk in [64, 100] {
            let mut want =
                ReferenceReplay::new(&cfg, 4, TracePlacement::AllDdr, ByteSize::mib(4), None);
            let mut sim = TraceSim::new(&cfg, 4, TracePlacement::AllDdr, ByteSize::mib(4));
            let (mut hits, mut msc_hits) = (Vec::new(), Vec::new());
            for (round, input) in [&[][..], &trace[..], &trace[..]].into_iter().enumerate() {
                want.replay(input);
                let got = par::with_threads(2, || stream_chunks(&mut sim, input.chunks(chunk)));
                want.assert_matches(
                    &got,
                    &sim,
                    &format!("{setup:?} chunk={chunk} round {round}"),
                );
                hits.push(l2_hits(&sim));
                msc_hits.push(got.mcdram_cache_hits);
            }
            let at = format!("{setup:?} chunk={chunk}");
            if setup == MemSetup::CacheMode {
                assert!(
                    msc_hits[2] - msc_hits[1] > msc_hits[1],
                    "{at}: the warm round must hit the MSC more often \
                     than the cold one: {msc_hits:?}"
                );
            } else {
                assert!(
                    hits[2] - hits[1] > hits[1],
                    "{at}: the warm round must hit L2 more often \
                     than the cold one: {hits:?}"
                );
            }
        }
    }
}

/// A seeded trace that is hard on the TLB, with writes and dependent
/// chains mixed in at random, issued by the cores in `active`: bursts
/// of page-stride accesses over more pages than the TLB's 320 entries
/// (each at a line offset that spreads them over L1's sets, so L1 can
/// hit under a page walk), pairs straddling a page boundary, random
/// lines over 64 MiB, and revisits of a core's recent lines.
fn tlb_hostile_trace(rng: &mut Rng, active: &[u32]) -> Vec<TraceAccess> {
    let mut recent: Vec<Vec<u64>> = vec![Vec::new(); active.len()];
    let mut trace = Vec::new();
    for _ in 0..rng.gen_range(40..80u64) {
        let slot = rng.next_below(active.len() as u64) as usize;
        let pattern = rng.next_below(4);
        let mut page = rng.next_below(1 << 14);
        let stride = 1 + rng.next_below(3);
        for i in 0..rng.gen_range(16..400u64) {
            let addr = match pattern {
                0 => {
                    page += stride;
                    (page << 12) | ((page % 64) << 6)
                }
                1 => ((page + 1 + i / 2) << 12) - 64 + (i % 2) * 64,
                2 => rng.next_below(1 << 20) << 6,
                _ => match recent[slot].len() as u64 {
                    0 => page << 12,
                    n => recent[slot][(n - 1 - rng.next_below(n.min(2048))) as usize],
                },
            };
            recent[slot].push(addr);
            trace.push(TraceAccess {
                core: active[slot],
                addr,
                write: rng.next_below(4) == 0,
                dependent: rng.next_below(4) == 0,
            });
        }
    }
    trace
}

/// The adversarial shapes drawn after the mixed TLB-hostile rounds:
/// one busy core, two to four cores hammering one line or one DRAM
/// row, and all-dependent chains.
#[derive(Debug, Clone, Copy)]
enum Shape {
    OneBusyCore,
    OneLine,
    OneRow,
    AllDependent,
}

/// A seeded trace of `shape` issued by the cores in `active`.
fn adversarial_trace(rng: &mut Rng, shape: Shape, active: &[u32]) -> Vec<TraceAccess> {
    let n = rng.gen_range(500..3000u64);
    let access = |i: u64, addr: u64, rng: &mut Rng| TraceAccess {
        core: active[(i % active.len() as u64) as usize],
        addr,
        write: rng.next_below(4) == 0,
        dependent: rng.next_below(4) == 0,
    };
    match shape {
        Shape::OneBusyCore => tlb_hostile_trace(rng, &active[..1]),
        Shape::OneLine => {
            let line = rng.next_below(1 << 20) << 6;
            (0..n).map(|i| access(i, line, rng)).collect()
        }
        Shape::OneRow => {
            // The 128 lines of one DDR row: one channel (every sixth
            // line), consecutive lines within it.
            let g = memdev::bank::DramGeometry::ddr4_knl();
            let (channels, per_row) = (g.channels as u64, (g.row_bytes / g.line_bytes) as u64);
            let first = rng.next_below(1 << 12) * per_row;
            let channel = rng.next_below(channels);
            let row = g.map((first * channels + channel) << 6);
            (0..n)
                .map(|i| {
                    let line = (first + rng.next_below(per_row)) * channels + channel;
                    assert_eq!(g.map(line << 6), row);
                    access(i, line << 6, rng)
                })
                .collect()
        }
        Shape::AllDependent => {
            let mut trace = tlb_hostile_trace(rng, active);
            for a in &mut trace {
                a.dependent = true;
            }
            trace
        }
    }
}

/// A simulated core count — up to 4, or up to 64 — and `active.start`
/// to `active.end - 1` issuing core ids, drawn from twice that range so
/// that some wrap onto a shard another id already feeds. With 64 cores
/// nearly all are idle.
fn draw_cores(rng: &mut Rng, active: std::ops::Range<u64>) -> (u32, Vec<u32>) {
    let cores = match rng.next_below(2) {
        0 => rng.gen_range(1..5u64),
        _ => rng.gen_range(5..65u64),
    } as u32;
    let ids = (0..rng.gen_range(active))
        .map(|_| rng.next_below(2 * cores as u64) as u32)
        .collect();
    (cores, ids)
}

/// The placements every round draws from, in order: the static ones
/// (split at a page boundary and off one), then migration with a
/// disabled, a one-access and a long period, each with a one-page
/// budget and with one above the footprint.
const PLACEMENT_KINDS: usize = 10;

/// Placement `kind` (see [`PLACEMENT_KINDS`]) with parameters drawn
/// for `trace`.
fn draw_placement(rng: &mut Rng, kind: usize, trace: &[TraceAccess]) -> TracePlacement {
    let pages: BTreeSet<u64> = trace.iter().map(|a| a.addr / PAGE_BYTES).collect();
    let top_page = pages.last().copied().unwrap_or(0);
    match kind {
        0 => TracePlacement::AllDdr,
        1 => TracePlacement::AllHbm,
        2 => TracePlacement::SplitAt(rng.next_below(top_page + 1) * PAGE_BYTES),
        3 => TracePlacement::SplitAt(
            rng.next_below(top_page + 1) * PAGE_BYTES + rng.gen_range(1..PAGE_BYTES),
        ),
        _ => {
            let period = match (kind - 4) % 3 {
                0 => 0,
                1 => 1,
                _ => rng.gen_range(256..2 * trace.len() as u64 + 257),
            };
            let budget = match (kind - 4) / 3 {
                0 => 1,
                _ => pages.len() as u64 + 1 + rng.next_below(pages.len() as u64 + 1),
            };
            TracePlacement::Migrated(MigrationSpec::new(period, budget as u32))
        }
    }
}

/// Every `(level, TLB outcome)` pair the private hierarchies report
/// for `trace` on `cores` cores.
fn level_tlb_outcomes(trace: &[TraceAccess], cores: u32) -> BTreeSet<String> {
    let mut hier_cfg = HierarchyConfig::knl_flat(Duration::ZERO);
    hier_cfg.memory_latency = Duration::ZERO;
    let mut hiers: Vec<Hierarchy> = (0..cores).map(|_| Hierarchy::new(hier_cfg)).collect();
    trace
        .iter()
        .map(|a| {
            let kind = if a.write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let (level, tlb) = hiers[(a.core % cores) as usize].access(a.addr, kind);
            format!("{level:?}/{tlb:?}")
        })
        .collect()
}

/// Replay `trace` under `placement` through the reference, through
/// streaming at random chunk sizes and through its artifact at a
/// random window, in flat and cache mode, and assert all three agree:
/// report, per-core totals, MSHR, device, mesh and migration stats,
/// and, with `ts_interval`, the time-series export. Returns the
/// cache-mode MCDRAM-cache hits.
fn assert_engines_match(
    rng: &mut Rng,
    trace: &[TraceAccess],
    cores: u32,
    placement: TracePlacement,
    ts_interval: Option<u64>,
    label: &str,
) -> u64 {
    let ct = artifact(cores, trace);
    let capacity = ByteSize::kib(1 << rng.gen_range(4..12u64));
    let sampling = ts_interval.map(|interval| (interval, 1024));
    let mut msc_hits = 0;
    for setup in [MemSetup::DramOnly, MemSetup::CacheMode] {
        let cfg = cfg(setup);
        let mut want = ReferenceReplay::new(&cfg, cores, placement, capacity, sampling);
        msc_hits += want.replay(trace).mcdram_cache_hits;
        let make = || {
            let mut sim = TraceSim::new(&cfg, cores, placement, capacity);
            if let Some((interval, capacity)) = sampling {
                sim.enable_timeseries(interval, capacity);
            }
            sim
        };
        let mut streamed = make();
        let mut rest = trace;
        let chunk_rng = &mut *rng;
        let got = streamed.run_streaming(|buf| {
            let n = (chunk_rng.gen_range(1..3000u64) as usize).min(rest.len());
            buf.extend_from_slice(&rest[..n]);
            rest = &rest[n..];
            n
        });
        let at = format!("{label} {setup:?} {placement:?} {cores} cores msc {capacity}");
        want.assert_matches(&got, &streamed, &format!("{at} streaming"));
        let window = rng.gen_range(1..5000u64) as usize;
        let mut classified = make();
        classified.set_replay_window(window);
        let got = classified.run_classified(&ct);
        want.assert_matches(
            &got,
            &classified,
            &format!("{at} classified window {window}"),
        );
    }
    msc_hits
}

#[test]
fn tlb_hostile_replays_match_the_reference() {
    // Seeded loop, one round per placement kind: streaming at random
    // chunk sizes and artifact replay at random windows must match the
    // reference, device and migration state included, in flat and
    // cache mode, on up to 64 mostly idle cores; the mixed traces must
    // reach every (level, TLB outcome) pair, and the adversarial shapes
    // replay with a time-series interval of 1.
    let mut rng = Rng::seed_from_u64(0x71B9);
    let want: BTreeSet<String> = [LevelHit::L1, LevelHit::L2, LevelHit::Memory]
        .into_iter()
        .flat_map(|l| {
            [TlbOutcome::L1Hit, TlbOutcome::L2Hit, TlbOutcome::Walk].map(|t| format!("{l:?}/{t:?}"))
        })
        .collect();
    let mut msc_hits = 0;
    for kind in 0..PLACEMENT_KINDS {
        let (cores, active) = draw_cores(&mut rng, 1..5);
        let trace = tlb_hostile_trace(&mut rng, &active);
        let label = format!("round {kind}");
        assert_eq!(level_tlb_outcomes(&trace, cores), want, "{label}");
        let placement = draw_placement(&mut rng, kind, &trace);
        msc_hits += assert_engines_match(&mut rng, &trace, cores, placement, None, &label);
    }
    assert!(msc_hits > 0, "cache mode never hit its memory-side cache");
    for shape in [
        Shape::OneBusyCore,
        Shape::OneLine,
        Shape::OneRow,
        Shape::AllDependent,
    ] {
        let active = match shape {
            Shape::OneBusyCore => 1..2,
            _ => 2..5,
        };
        let (cores, active) = draw_cores(&mut rng, active);
        let trace = adversarial_trace(&mut rng, shape, &active);
        let kind = rng.next_below(PLACEMENT_KINDS as u64) as usize;
        let placement = draw_placement(&mut rng, kind, &trace);
        let label = format!("{shape:?}");
        assert_engines_match(&mut rng, &trace, cores, placement, Some(1), &label);
    }
}
