//! Trace generators: emit [`knl::TraceAccess`] streams with each
//! workload's characteristic access pattern, at footprints the
//! line-accurate trace simulator can chew through.
//!
//! This closes the validation triangle: the *native kernels* prove the
//! algorithms are real, the *machine model* prices them at paper
//! scale, and these traces let the *trace simulator* check the model's
//! orderings with the exact cache/bank/TLB substrate models
//! (`tests/trace_crosscheck.rs`).
//!
//! # Streaming sources
//!
//! Every generator exists in two forms: an incremental state machine
//! implementing [`TraceSource`] (the primary form), and an eager
//! `*_trace` function that materializes the whole stream — now a thin
//! [`collect`] wrapper kept for small tests and call sites that
//! genuinely need a `Vec`. The source form yields bounded chunks
//! ([`DEFAULT_CHUNK`] accesses at a time through
//! [`TraceSource::fill`]), which lets [`replay_streaming`] drive
//! [`TraceSim::run_streaming`] without ever materializing a
//! paper-scale trace: generation overlaps classification and timing,
//! and the buffered window stays at roughly one chunk for workloads
//! that spread accesses across cores. Both forms are bit-identical —
//! the golden-vector suite (`tests/tracegen_golden.rs`) and the
//! chunking-invariance tests below pin that.

use knl::classified::ClassifiedTrace;
use knl::config::MachineConfig;
use knl::tracesim::{TraceAccess, TraceSim, TraceSimReport};
use simfabric::prng::Rng;

/// De-aliased per-core base addresses (physically scattered pages
/// never alias all cores onto one DRAM bank; synthetic traces must
/// not either).
fn core_base(core: u32) -> u64 {
    (core as u64 * 23_456_789) & !63
}

/// Default chunk granularity for [`TraceSource::fill`]: 64 Ki accesses
/// (1 MiB of `TraceAccess` records) — big enough to amortize the
/// per-chunk partition/classify fan-out, small enough that the
/// streaming replay's working set stays cache-resident.
pub const DEFAULT_CHUNK: usize = 64 * 1024;

/// An incremental trace generator: a resumable state machine yielding
/// one deterministic access stream.
///
/// Implementations must be pure functions of their construction
/// parameters — the stream a source yields access-by-access is
/// bit-identical to the `Vec` its eager counterpart materializes.
pub trait TraceSource {
    /// The next access, or `None` once the stream is exhausted.
    fn next_access(&mut self) -> Option<TraceAccess>;

    /// Append up to `max` accesses to `out`; returns how many were
    /// appended (0 means the stream is exhausted — sources are never
    /// "temporarily empty").
    fn fill(&mut self, out: &mut Vec<TraceAccess>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.next_access() {
                Some(t) => {
                    out.push(t);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Exact number of accesses left in the stream, when the source
    /// knows it (all in-tree sources do; `None` is allowed for
    /// external sources of unknown length).
    fn remaining(&self) -> Option<u64> {
        None
    }
}

/// Drain a source into a `Vec` (the eager form of the stream).
pub fn collect(source: &mut dyn TraceSource) -> Vec<TraceAccess> {
    let mut out = match source.remaining() {
        Some(n) => Vec::with_capacity(n as usize),
        None => Vec::new(),
    };
    while source.fill(&mut out, DEFAULT_CHUNK) > 0 {}
    out
}

/// Replay `source` through `sim` in [`DEFAULT_CHUNK`]-sized chunks via
/// [`TraceSim::run_streaming`]: generation overlaps classification and
/// timing, and the report is bit-identical to materializing the trace
/// and calling [`TraceSim::run`].
pub fn replay_streaming(
    sim: &mut TraceSim,
    source: &mut (dyn TraceSource + Send),
) -> TraceSimReport {
    sim.run_streaming(|buf| source.fill(buf, DEFAULT_CHUNK))
}

/// Classify `source` into a [`ClassifiedTrace`] artifact in
/// [`DEFAULT_CHUNK`]-sized chunks — the classify-once counterpart of
/// [`replay_streaming`]: the raw trace never materializes, and the
/// artifact replays against any number of timing setups via
/// [`TraceSim::run_classified`]. `trace_spec` must canonically name
/// the stream (use [`TraceKind::spec`] for the app generators) — it
/// becomes the generator half of the artifact's key.
pub fn classify_streaming(
    cfg: &MachineConfig,
    cores: u32,
    trace_spec: &str,
    source: &mut (dyn TraceSource + Send),
) -> ClassifiedTrace {
    ClassifiedTrace::build_streaming(cfg, cores, trace_spec, |buf| {
        source.fill(buf, DEFAULT_CHUNK)
    })
}

/// STREAM source: each core sweeps a disjoint contiguous block in
/// bursts of 16 lines (the natural MSHR-drain issue pattern),
/// round-robining cores burst by burst.
#[derive(Debug, Clone)]
pub struct StreamSource {
    cores: u32,
    lines: u64,
    passes: u32,
    pass: u32,
    i: u64,
    c: u32,
    j: u64,
    emitted: u64,
}

impl StreamSource {
    const BURST: u64 = 16;

    /// `lines_per_core` sequential lines per core, swept `passes`
    /// times (at least once).
    pub fn new(cores: u32, lines_per_core: u64, passes: u32) -> Self {
        StreamSource {
            cores,
            lines: lines_per_core,
            passes: passes.max(1),
            pass: 0,
            i: 0,
            c: 0,
            j: 0,
            emitted: 0,
        }
    }
}

impl TraceSource for StreamSource {
    fn next_access(&mut self) -> Option<TraceAccess> {
        loop {
            if self.pass >= self.passes {
                return None;
            }
            if self.i >= self.lines {
                self.pass += 1;
                self.i = 0;
                self.c = 0;
                self.j = 0;
                continue;
            }
            if self.c >= self.cores {
                self.c = 0;
                self.i += Self::BURST;
                self.j = self.i;
                continue;
            }
            if self.j >= (self.i + Self::BURST).min(self.lines) {
                self.c += 1;
                self.j = self.i;
                continue;
            }
            let acc = TraceAccess::read(self.c, core_base(self.c) + self.j * 64);
            self.j += 1;
            self.emitted += 1;
            return Some(acc);
        }
    }

    fn remaining(&self) -> Option<u64> {
        Some(self.cores as u64 * self.lines * self.passes as u64 - self.emitted)
    }
}

/// STREAM: each core sweeps a disjoint contiguous block in bursts of
/// 16 lines (the natural MSHR-drain issue pattern).
pub fn stream_trace(cores: u32, lines_per_core: u64, passes: u32) -> Vec<TraceAccess> {
    collect(&mut StreamSource::new(cores, lines_per_core, passes))
}

/// GUPS source: independent random read-modify-writes over a shared
/// table, one update per core per round.
#[derive(Debug, Clone)]
pub struct GupsSource {
    cores: u32,
    lines: u64,
    updates: u64,
    rngs: Vec<Rng>,
    u: u64,
    c: u32,
    pending_write: Option<TraceAccess>,
    emitted: u64,
}

impl GupsSource {
    /// `updates_per_core` read+write pairs per core over a
    /// `table_bytes` table.
    pub fn new(cores: u32, table_bytes: u64, updates_per_core: u64, seed: u64) -> Self {
        GupsSource {
            cores,
            lines: (table_bytes / 64).max(1),
            updates: updates_per_core,
            rngs: (0..cores)
                .map(|c| Rng::seed_from_u64(seed ^ (c as u64).wrapping_mul(0x9e3779b97f4a7c15)))
                .collect(),
            u: 0,
            c: 0,
            pending_write: None,
            emitted: 0,
        }
    }
}

impl TraceSource for GupsSource {
    fn next_access(&mut self) -> Option<TraceAccess> {
        if let Some(w) = self.pending_write.take() {
            self.emitted += 1;
            return Some(w);
        }
        loop {
            if self.u >= self.updates {
                return None;
            }
            if self.c >= self.cores {
                self.c = 0;
                self.u += 1;
                continue;
            }
            let line = self.rngs[self.c as usize].gen_range(0..self.lines);
            let addr = line * 64;
            self.pending_write = Some(TraceAccess::write(self.c, addr));
            let read = TraceAccess::read(self.c, addr);
            self.c += 1;
            self.emitted += 1;
            return Some(read);
        }
    }

    fn remaining(&self) -> Option<u64> {
        Some(self.cores as u64 * self.updates * 2 - self.emitted)
    }
}

/// GUPS: independent random read-modify-writes over a shared table.
pub fn gups_trace(
    cores: u32,
    table_bytes: u64,
    updates_per_core: u64,
    seed: u64,
) -> Vec<TraceAccess> {
    collect(&mut GupsSource::new(
        cores,
        table_bytes,
        updates_per_core,
        seed,
    ))
}

/// TinyMemBench source: a dependent pointer chase over a block (two
/// interleaved chains on one core, as the dual-read benchmark runs).
#[derive(Debug, Clone)]
pub struct ChaseSource {
    lines: u64,
    steps: u64,
    rng: Rng,
    i: u64,
    a: u64,
    b: u64,
}

impl ChaseSource {
    /// `steps` dependent hops over a `block_bytes` block on core 0.
    pub fn new(block_bytes: u64, steps: u64, seed: u64) -> Self {
        let lines = (block_bytes / 64).max(2);
        ChaseSource {
            lines,
            steps,
            rng: Rng::seed_from_u64(seed),
            i: 0,
            a: 0,
            b: lines / 2,
        }
    }
}

impl TraceSource for ChaseSource {
    fn next_access(&mut self) -> Option<TraceAccess> {
        if self.i >= self.steps {
            return None;
        }
        // Jump far enough to defeat the prefetcher and row buffer.
        let hop = self.rng.gen_range(self.lines / 4..self.lines.max(2));
        let addr = if self.i % 2 == 0 {
            self.a = (self.a + hop) % self.lines;
            self.a * 64
        } else {
            self.b = (self.b + hop) % self.lines;
            self.b * 64
        };
        self.i += 1;
        Some(TraceAccess::chase(0, addr))
    }

    fn remaining(&self) -> Option<u64> {
        Some(self.steps - self.i)
    }
}

/// TinyMemBench: a dependent pointer chase over `block_bytes` (two
/// interleaved chains on one core, as the dual-read benchmark runs).
pub fn chase_trace(block_bytes: u64, steps: u64, seed: u64) -> Vec<TraceAccess> {
    collect(&mut ChaseSource::new(block_bytes, steps, seed))
}

/// XSBench-like source: each "lookup" is a short dependent chain
/// (binary search tail) at a random position, chains from different
/// iterations independent across cores.
#[derive(Debug, Clone)]
pub struct XsBenchSource {
    cores: u32,
    lines: u64,
    lookups: u64,
    deps: u32,
    rngs: Vec<Rng>,
    l: u64,
    c: u32,
    d: u32,
    pos: u64,
    span: u64,
    in_chain: bool,
    emitted: u64,
}

impl XsBenchSource {
    /// `lookups_per_core` chains of `deps_per_lookup` dependent reads
    /// per core over a `grid_bytes` grid.
    pub fn new(
        cores: u32,
        grid_bytes: u64,
        lookups_per_core: u64,
        deps_per_lookup: u32,
        seed: u64,
    ) -> Self {
        XsBenchSource {
            cores,
            lines: (grid_bytes / 64).max(deps_per_lookup as u64 + 1),
            lookups: lookups_per_core,
            deps: deps_per_lookup,
            rngs: (0..cores)
                .map(|c| {
                    Rng::seed_from_u64(
                        seed ^ (0xA11CEu64 + c as u64).wrapping_mul(0x9e3779b97f4a7c15),
                    )
                })
                .collect(),
            l: 0,
            c: 0,
            d: 0,
            pos: 0,
            span: 0,
            in_chain: false,
            emitted: 0,
        }
    }
}

impl TraceSource for XsBenchSource {
    fn next_access(&mut self) -> Option<TraceAccess> {
        loop {
            if self.l >= self.lookups {
                return None;
            }
            if self.c >= self.cores {
                self.c = 0;
                self.l += 1;
                continue;
            }
            if !self.in_chain {
                // Binary-search tail: successive halving jumps,
                // dependent.
                self.pos = self.rngs[self.c as usize].gen_range(0..self.lines);
                self.span = self.lines / 2;
                self.d = 0;
                self.in_chain = true;
            }
            if self.d >= self.deps {
                self.in_chain = false;
                self.c += 1;
                continue;
            }
            let acc = TraceAccess::chase(self.c, self.pos * 64);
            self.span = (self.span / 2).max(1);
            self.pos = (self.pos + self.span) % self.lines;
            self.d += 1;
            self.emitted += 1;
            return Some(acc);
        }
    }

    fn remaining(&self) -> Option<u64> {
        Some(self.lookups * self.cores as u64 * self.deps as u64 - self.emitted)
    }
}

/// XSBench-like: each "lookup" is a short dependent chain (binary
/// search tail) at a random position, chains from different iterations
/// independent across cores.
pub fn xsbench_trace(
    cores: u32,
    grid_bytes: u64,
    lookups_per_core: u64,
    deps_per_lookup: u32,
    seed: u64,
) -> Vec<TraceAccess> {
    collect(&mut XsBenchSource::new(
        cores,
        grid_bytes,
        lookups_per_core,
        deps_per_lookup,
        seed,
    ))
}

/// Graph500-like source: per traversed edge, a streaming CSR read plus
/// a random probe of the visited structure (write when claiming).
#[derive(Debug, Clone)]
pub struct BfsSource {
    cores: u32,
    lines: u64,
    edges: u64,
    rngs: Vec<Rng>,
    csr_cursor: Vec<u64>,
    e: u64,
    c: u32,
    pending_probe: Option<TraceAccess>,
    emitted: u64,
}

impl BfsSource {
    /// `edges_per_core` CSR-read + visited-probe pairs per core over a
    /// `graph_bytes` footprint.
    pub fn new(cores: u32, graph_bytes: u64, edges_per_core: u64, seed: u64) -> Self {
        let lines = (graph_bytes / 64).max(2);
        BfsSource {
            cores,
            lines,
            edges: edges_per_core,
            rngs: (0..cores)
                .map(|c| {
                    Rng::seed_from_u64(
                        seed ^ (0xB5Fu64 + c as u64).wrapping_mul(0x9e3779b97f4a7c15),
                    )
                })
                .collect(),
            csr_cursor: (0..cores).map(|c| core_base(c) / 64 % lines).collect(),
            e: 0,
            c: 0,
            pending_probe: None,
            emitted: 0,
        }
    }
}

impl TraceSource for BfsSource {
    fn next_access(&mut self) -> Option<TraceAccess> {
        if let Some(p) = self.pending_probe.take() {
            self.emitted += 1;
            return Some(p);
        }
        loop {
            if self.e >= self.edges {
                return None;
            }
            if self.c >= self.cores {
                self.c = 0;
                self.e += 1;
                continue;
            }
            // Sequential CSR adjacency read.
            let cur = &mut self.csr_cursor[self.c as usize];
            *cur = (*cur + 1) % self.lines;
            let read = TraceAccess::read(self.c, *cur * 64);
            // Random visited probe; 30% of probes claim (write).
            let rng = &mut self.rngs[self.c as usize];
            let probe = rng.gen_range(0..self.lines);
            self.pending_probe = Some(if rng.gen_bool(0.3) {
                TraceAccess::write(self.c, probe * 64)
            } else {
                TraceAccess::read(self.c, probe * 64)
            });
            self.c += 1;
            self.emitted += 1;
            return Some(read);
        }
    }

    fn remaining(&self) -> Option<u64> {
        Some(self.edges * self.cores as u64 * 2 - self.emitted)
    }
}

/// Graph500-like: per traversed edge, a streaming CSR read plus a
/// random probe of the visited structure (write when claiming).
pub fn bfs_trace(cores: u32, graph_bytes: u64, edges_per_core: u64, seed: u64) -> Vec<TraceAccess> {
    collect(&mut BfsSource::new(
        cores,
        graph_bytes,
        edges_per_core,
        seed,
    ))
}

/// Phased hot/cold source: the migration stress workload. Each phase
/// streams ~90% of its accesses over a small *hot* block placed high
/// in the address space (above [`HotColdSource::HOT_BASE`], so no
/// low-boundary static split can capture it), mixed with ~10% cold
/// random probes over a large low region. Every phase the hot block
/// moves to a fresh address range, so a static placement can at best
/// capture one phase — a periodic hot-page migrator tracks all of
/// them, which is exactly the crossover the `T`-sweep demonstrates.
#[derive(Debug, Clone)]
pub struct HotColdSource {
    cores: u32,
    phases: u32,
    per_core: u64,
    hot_lines: u64,
    cold_lines: u64,
    rngs: Vec<Rng>,
    hot_cursor: Vec<u64>,
    p: u32,
    i: u64,
    c: u32,
    emitted: u64,
}

impl HotColdSource {
    /// Hot blocks start here: far above any test-scale footprint, so
    /// `SplitAt(boundary)` placements with a low boundary route every
    /// hot access to DDR.
    pub const HOT_BASE: u64 = 1 << 32;

    /// Fraction of accesses aimed at the hot block.
    pub const HOT_FRACTION: f64 = 0.9;

    /// `accesses_per_core_per_phase` accesses per core in each of
    /// `phases` phases; each phase's hot block is `hot_bytes` at a
    /// fresh high range, cold probes cover `cold_bytes` at the bottom
    /// of the address space.
    pub fn new(
        cores: u32,
        phases: u32,
        accesses_per_core_per_phase: u64,
        hot_bytes: u64,
        cold_bytes: u64,
        seed: u64,
    ) -> Self {
        let hot_lines = (hot_bytes / 64).max(1);
        HotColdSource {
            cores,
            phases,
            per_core: accesses_per_core_per_phase,
            hot_lines,
            cold_lines: (cold_bytes / 64).max(1),
            rngs: (0..cores)
                .map(|c| {
                    Rng::seed_from_u64(
                        seed ^ (0x407C01Du64 + c as u64).wrapping_mul(0x9e3779b97f4a7c15),
                    )
                })
                .collect(),
            // Offset each core's streaming walk so cores spread over
            // banks instead of marching in lockstep.
            hot_cursor: (0..cores).map(|c| core_base(c) / 64 % hot_lines).collect(),
            p: 0,
            i: 0,
            c: 0,
            emitted: 0,
        }
    }
}

impl TraceSource for HotColdSource {
    fn next_access(&mut self) -> Option<TraceAccess> {
        loop {
            if self.p >= self.phases {
                return None;
            }
            if self.i >= self.per_core {
                self.p += 1;
                self.i = 0;
                self.c = 0;
                continue;
            }
            if self.c >= self.cores {
                self.c = 0;
                self.i += 1;
                continue;
            }
            let c = self.c as usize;
            let rng = &mut self.rngs[c];
            let addr = if rng.gen_bool(Self::HOT_FRACTION) {
                // Streaming walk of this phase's hot block.
                let line = self.hot_cursor[c] % self.hot_lines;
                self.hot_cursor[c] += 1;
                Self::HOT_BASE + (self.p as u64 * self.hot_lines + line) * 64
            } else {
                // Cold random probe over the low region.
                rng.gen_range(0..self.cold_lines) * 64
            };
            let acc = TraceAccess::read(self.c, addr);
            self.c += 1;
            self.emitted += 1;
            return Some(acc);
        }
    }

    fn remaining(&self) -> Option<u64> {
        Some(self.cores as u64 * self.phases as u64 * self.per_core - self.emitted)
    }
}

/// Phased hot/cold mix (the eager form of [`HotColdSource`]).
pub fn hot_cold_trace(
    cores: u32,
    phases: u32,
    accesses_per_core_per_phase: u64,
    hot_bytes: u64,
    cold_bytes: u64,
    seed: u64,
) -> Vec<TraceAccess> {
    collect(&mut HotColdSource::new(
        cores,
        phases,
        accesses_per_core_per_phase,
        hot_bytes,
        cold_bytes,
        seed,
    ))
}

/// The five application trace generators, as a closed enum so sweeps,
/// benches and the differential test suite can iterate them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// STREAM triad sweep ([`stream_trace`]).
    Stream,
    /// GUPS random read-modify-write ([`gups_trace`]).
    Gups,
    /// TinyMemBench dual pointer chase ([`chase_trace`]).
    Chase,
    /// XSBench binary-search tails ([`xsbench_trace`]).
    XsBench,
    /// Graph500 BFS CSR-plus-probe mix ([`bfs_trace`]).
    Bfs,
}

impl TraceKind {
    /// Every generator, in paper-workload order.
    pub const ALL: [TraceKind; 5] = [
        TraceKind::Stream,
        TraceKind::Gups,
        TraceKind::Chase,
        TraceKind::XsBench,
        TraceKind::Bfs,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Stream => "STREAM",
            TraceKind::Gups => "GUPS",
            TraceKind::Chase => "Chase",
            TraceKind::XsBench => "XSBench",
            TraceKind::Bfs => "Graph500",
        }
    }

    /// The canonical trace-spec label for the stream
    /// [`source`](Self::source) yields with these parameters — the
    /// generator half of a classify key. Everything that changes the
    /// stream (kind, cores, per-core length, seed) reaches the string;
    /// two equal labels always name bit-identical streams.
    pub fn spec(self, cores: u32, accesses_per_core: u64, seed: u64) -> String {
        format!(
            "{}:{}x{}:seed={:#x}",
            self.name(),
            cores,
            accesses_per_core,
            seed
        )
    }

    /// A streaming source over the same deterministic stream
    /// [`generate`](Self::generate) materializes: roughly
    /// `cores * accesses_per_core` records over a test-scale
    /// footprint. The chase generator is single-core by construction
    /// (a dependent chain has no intra-core parallelism to shard), so
    /// it emits `cores * accesses_per_core` records on core 0.
    pub fn source(
        self,
        cores: u32,
        accesses_per_core: u64,
        seed: u64,
    ) -> Box<dyn TraceSource + Send> {
        let footprint = 64 << 20; // 64 MiB: beyond L2, tractable to replay
        match self {
            TraceKind::Stream => Box::new(StreamSource::new(cores, accesses_per_core, 1)),
            TraceKind::Gups => Box::new(GupsSource::new(
                cores,
                footprint,
                accesses_per_core.div_ceil(2),
                seed,
            )),
            TraceKind::Chase => Box::new(ChaseSource::new(
                footprint,
                cores as u64 * accesses_per_core,
                seed,
            )),
            TraceKind::XsBench => Box::new(XsBenchSource::new(
                cores,
                footprint,
                accesses_per_core.div_ceil(6).max(1),
                6,
                seed,
            )),
            TraceKind::Bfs => Box::new(BfsSource::new(
                cores,
                footprint / 2,
                accesses_per_core.div_ceil(2),
                seed,
            )),
        }
    }

    /// Generate a deterministic trace with roughly
    /// `cores * accesses_per_core` records over a test-scale footprint
    /// (the materialized form of [`source`](Self::source)).
    pub fn generate(self, cores: u32, accesses_per_core: u64, seed: u64) -> Vec<TraceAccess> {
        collect(&mut *self.source(cores, accesses_per_core, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_trace_is_sequential_per_core() {
        let t = stream_trace(2, 64, 1);
        assert_eq!(t.len(), 128);
        let core0: Vec<u64> = t.iter().filter(|a| a.core == 0).map(|a| a.addr).collect();
        assert!(core0.windows(2).all(|w| w[1] == w[0] + 64));
        assert!(t.iter().all(|a| !a.dependent && !a.write));
    }

    #[test]
    fn stream_trace_passes_repeat_addresses() {
        let one = stream_trace(1, 32, 1);
        let two = stream_trace(1, 32, 2);
        assert_eq!(two.len(), 2 * one.len());
        assert_eq!(&two[..one.len()], &one[..]);
        assert_eq!(&two[one.len()..], &one[..]);
    }

    #[test]
    fn gups_trace_pairs_reads_with_writes() {
        let t = gups_trace(2, 1 << 20, 100, 42);
        assert_eq!(t.len(), 400);
        for pair in t.chunks(2) {
            assert_eq!(pair[0].addr, pair[1].addr);
            assert!(!pair[0].write && pair[1].write);
            assert_eq!(pair[0].core, pair[1].core);
        }
        // Addresses stay within the table.
        assert!(t.iter().all(|a| a.addr < 1 << 20));
    }

    #[test]
    fn gups_trace_is_deterministic_per_seed() {
        assert_eq!(gups_trace(2, 1 << 16, 50, 7), gups_trace(2, 1 << 16, 50, 7));
        assert_ne!(gups_trace(2, 1 << 16, 50, 7), gups_trace(2, 1 << 16, 50, 8));
    }

    #[test]
    fn chase_trace_is_fully_dependent() {
        let t = chase_trace(1 << 24, 500, 1);
        assert_eq!(t.len(), 500);
        assert!(t.iter().all(|a| a.dependent && a.core == 0));
        // Jumps are large (defeat prefetch): median hop > 1 MB.
        let mut hops: Vec<i64> = t
            .windows(2)
            .map(|w| (w[1].addr as i64 - w[0].addr as i64).abs())
            .collect();
        hops.sort();
        assert!(hops[hops.len() / 2] > 1 << 20);
    }

    #[test]
    fn xsbench_trace_has_dependent_chains() {
        let t = xsbench_trace(4, 1 << 26, 10, 6, 3);
        assert_eq!(t.len(), 4 * 10 * 6);
        assert!(t.iter().all(|a| a.dependent));
    }

    #[test]
    fn bfs_trace_mixes_sequential_and_random() {
        let t = bfs_trace(2, 1 << 24, 200, 9);
        assert_eq!(t.len(), 800);
        let writes = t.iter().filter(|a| a.write).count();
        // ~30% of the probe half.
        assert!(writes > 60 && writes < 180, "writes {writes}");
    }

    #[test]
    fn hot_cold_trace_is_mostly_hot_and_phases_move_the_hot_block() {
        let hot_bytes = 1 << 16;
        let t = hot_cold_trace(4, 3, 500, hot_bytes, 1 << 22, 0xC0FFEE);
        assert_eq!(t.len(), 4 * 3 * 500);
        let hot: Vec<&TraceAccess> = t
            .iter()
            .filter(|a| a.addr >= HotColdSource::HOT_BASE)
            .collect();
        let frac = hot.len() as f64 / t.len() as f64;
        assert!((0.85..0.95).contains(&frac), "hot fraction {frac}");
        // Cold probes stay in the low region.
        assert!(t
            .iter()
            .all(|a| a.addr >= HotColdSource::HOT_BASE || a.addr < 1 << 22));
        // Each phase's hot block is a fresh disjoint range.
        let phase_len = 4 * 500;
        for (p, chunk) in t.chunks(phase_len).enumerate() {
            let lo = HotColdSource::HOT_BASE + p as u64 * hot_bytes;
            assert!(chunk
                .iter()
                .filter(|a| a.addr >= HotColdSource::HOT_BASE)
                .all(|a| a.addr >= lo && a.addr < lo + hot_bytes));
        }
        assert!(t.iter().all(|a| !a.dependent && !a.write));
    }

    #[test]
    fn hot_cold_source_streams_bit_identically_to_the_eager_form() {
        let eager = hot_cold_trace(2, 2, 300, 1 << 16, 1 << 20, 7);
        for chunk in [1usize, 13, 1 << 20] {
            let mut src = HotColdSource::new(2, 2, 300, 1 << 16, 1 << 20, 7);
            let total = src.remaining().unwrap();
            assert_eq!(total as usize, eager.len());
            let mut out = Vec::new();
            while src.fill(&mut out, chunk) > 0 {}
            assert_eq!(out, eager, "chunk={chunk}");
            assert_eq!(src.remaining(), Some(0));
            assert!(src.next_access().is_none());
        }
        assert!(collect(&mut HotColdSource::new(0, 2, 300, 1 << 16, 1 << 20, 7)).is_empty());
        assert!(collect(&mut HotColdSource::new(2, 0, 300, 1 << 16, 1 << 20, 7)).is_empty());
        assert!(collect(&mut HotColdSource::new(2, 2, 0, 1 << 16, 1 << 20, 7)).is_empty());
    }

    /// Every kind, as a boxed source with small test-scale parameters.
    fn sources() -> Vec<(TraceKind, Box<dyn TraceSource + Send>)> {
        TraceKind::ALL
            .into_iter()
            .map(|k| (k, k.source(4, 200, 0x5EED)))
            .collect()
    }

    #[test]
    fn chunked_fill_is_invariant_to_chunk_size() {
        // Pulling a source 1, 7, or a million accesses at a time must
        // yield the identical stream the eager form materializes.
        for chunk in [1usize, 7, 1 << 20] {
            for (kind, mut src) in sources() {
                let eager = kind.generate(4, 200, 0x5EED);
                let mut chunked = Vec::new();
                while src.fill(&mut chunked, chunk) > 0 {}
                assert_eq!(chunked, eager, "{kind:?} chunk={chunk}");
            }
        }
    }

    #[test]
    fn remaining_counts_down_exactly() {
        for (kind, mut src) in sources() {
            let total = src.remaining().expect("in-tree sources know their length");
            let mut seen = 0u64;
            while let Some(_) = src.next_access() {
                seen += 1;
                assert_eq!(src.remaining(), Some(total - seen), "{kind:?} at {seen}");
            }
            assert_eq!(seen, total, "{kind:?}");
            assert_eq!(src.remaining(), Some(0));
            // Exhausted sources stay exhausted.
            assert!(src.next_access().is_none());
            assert_eq!(src.fill(&mut Vec::new(), 8), 0);
        }
    }

    #[test]
    fn fill_respects_max_and_reports_count() {
        let mut src = StreamSource::new(2, 64, 1);
        let mut out = Vec::new();
        assert_eq!(src.fill(&mut out, 10), 10);
        assert_eq!(out.len(), 10);
        assert_eq!(src.remaining(), Some(128 - 10));
        assert_eq!(src.fill(&mut out, 1 << 20), 118);
        assert_eq!(src.fill(&mut out, 1 << 20), 0);
    }

    #[test]
    fn zero_core_and_zero_length_sources_are_empty() {
        assert!(collect(&mut StreamSource::new(0, 64, 1)).is_empty());
        assert!(collect(&mut StreamSource::new(4, 0, 3)).is_empty());
        assert!(collect(&mut GupsSource::new(0, 1 << 20, 10, 1)).is_empty());
        assert!(collect(&mut GupsSource::new(4, 1 << 20, 0, 1)).is_empty());
        assert!(collect(&mut ChaseSource::new(1 << 20, 0, 1)).is_empty());
        assert!(collect(&mut XsBenchSource::new(4, 1 << 20, 10, 0, 1)).is_empty());
        assert!(collect(&mut BfsSource::new(4, 1 << 20, 0, 1)).is_empty());
    }
}
