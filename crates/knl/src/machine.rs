//! The analytic machine model.
//!
//! A [`Machine`] is one configured KNL node (memory setup + thread
//! count). Workloads allocate [`Region`]s through it — placement is
//! decided by the same memkind/numactl policy engine the real runs
//! used — and then submit memory operations; the model prices each
//! operation and advances the machine's clock.
//!
//! ## Pricing
//!
//! **Streaming** (`stream`): per-device bandwidth follows Little's law
//! bounded by the device's sustained bandwidth. The achievable
//! concurrency is `active_cores × per-core MLP`, where per-core MLP is
//! the prefetcher depth at one hardware thread and is multiplied by
//! threads/core up to the L2-MSHR cap ([`calib`]). This yields the
//! paper's central streaming results: DDR saturates at any thread
//! count (77 GB/s ≫ needed concurrency), while MCDRAM needs ≥2
//! threads/core to climb from 330 to 420 GB/s (Fig. 5). In cache mode
//! the bandwidth is a harmonic blend of hit and miss bandwidth with
//! the hit ratio from [`cachesim::DirectMappedModel`] (Fig. 2).
//!
//! **Random** (`random`): units of work chain `dependent_depth`
//! accesses, each costing the device's loaded latency + mesh + TLB
//! overhead; a thread overlaps `mlp_per_thread` units. Throughput is
//! the latency-limited rate capped by the device's random line rate
//! (banks / row-miss time — computed from the `memdev` bank model).
//! Cache-mode misses pay the in-MCDRAM tag check before DDR and
//! multiply DDR line costs with fills and dirty writebacks, which is
//! how the model reproduces the paper's finding that random-access
//! applications are best off in plain DRAM (Fig. 4c–e).
//!
//! **Compute** (`compute`): flops against a roof in GFLOPS.

use crate::access::{RandomOp, Region, Reuse, StreamOp};
use crate::calib;
use crate::config::{MachineConfig, MemSetup};
use cachesim::mcdram_cache::DirectMappedModel;
use cachesim::tlb::TlbConfig;
use memdev::bank::{DramGeometry, DramTiming};
use memdev::MemDeviceSpec;
use memkind_sim::{HeapError, Kind, MemkindHeap};
use simfabric::{ByteSize, Duration};
use std::fmt;

/// Errors surfaced by machine operations.
#[derive(Debug, Clone, PartialEq)]
pub enum MachineError {
    /// Allocation failed — in an HBM-only bind this is the expected
    /// "problem does not fit in HBM" outcome (missing bars in Fig. 4).
    Alloc(HeapError),
    /// Configuration was invalid.
    Invalid(String),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Alloc(e) => write!(f, "allocation failed: {e}"),
            MachineError::Invalid(msg) => write!(f, "invalid machine use: {msg}"),
        }
    }
}

impl std::error::Error for MachineError {}

/// Device traffic of a run, for the energy model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct DeviceTraffic {
    /// Bytes of traffic that hit the DDR device (cache-mode misses
    /// count their fills on MCDRAM too).
    ddr_bytes: f64,
    /// Bytes of traffic that hit the MCDRAM device.
    mcdram_bytes: f64,
}

/// One configured KNL node.
///
/// # Example
///
/// Reproduce the core of Fig. 2: DRAM vs HBM STREAM bandwidth.
///
/// ```
/// use knl::{Machine, MemSetup, StreamOp};
/// use simfabric::ByteSize;
///
/// let mut dram = Machine::knl7210(MemSetup::DramOnly, 64).unwrap();
/// let mut hbm = Machine::knl7210(MemSetup::HbmOnly, 64).unwrap();
/// let bw = |m: &mut Machine| {
///     let r = m.alloc("a", ByteSize::gib(4)).unwrap();
///     let d = m.stream(&[StreamOp::read_all(&r)]);
///     r.size().as_u64() as f64 / 1e9 / d.as_secs()
/// };
/// let (d, h) = (bw(&mut dram), bw(&mut hbm));
/// assert!(h / d > 4.0); // the paper's 4x bandwidth advantage
/// ```
pub struct Machine {
    cfg: MachineConfig,
    heap: MemkindHeap,
    msc: Option<DirectMappedModel>,
    clock: Duration,
    traffic: DeviceTraffic,
}

/// Which device class a slice of traffic targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dev {
    Ddr,
    Hbm,
}

impl Machine {
    /// Build a machine; validates the configuration.
    pub fn new(cfg: MachineConfig) -> Result<Self, MachineError> {
        cfg.validate().map_err(MachineError::Invalid)?;
        let msc = cfg.setup.has_mcdram_cache().then(|| DirectMappedModel {
            capacity: cfg.mcdram_cache_capacity(),
        });
        Ok(Machine {
            heap: MemkindHeap::new(cfg.topology()),
            msc,
            clock: Duration::ZERO,
            traffic: DeviceTraffic::default(),
            cfg,
        })
    }

    /// Convenience: the paper's testbed in `setup` with `threads`.
    pub fn knl7210(setup: MemSetup, threads: u32) -> Result<Self, MachineError> {
        Self::new(MachineConfig::knl7210(setup, threads))
    }

    /// The configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The heap (for fine-grained placement experiments).
    pub fn heap(&self) -> &MemkindHeap {
        &self.heap
    }

    /// Simulated time accumulated so far.
    pub fn elapsed(&self) -> Duration {
        self.clock
    }

    /// Allocate a region under this machine's memory setup: the
    /// `numactl --membind` policy of §III-C.
    pub fn alloc(&mut self, label: &str, size: ByteSize) -> Result<Region, MachineError> {
        let kind = match self.cfg.setup {
            MemSetup::DramOnly => Kind::Regular,
            MemSetup::HbmOnly => Kind::Hbw,
            MemSetup::CacheMode => Kind::Default,
            MemSetup::Interleaved => Kind::Interleave,
            // Hybrid: fill the flat MCDRAM partition first, spill the
            // rest to (cached) DDR — the natural memkind usage.
            MemSetup::Hybrid => Kind::HbwPreferred,
        };
        self.alloc_with_kind(label, size, kind)
    }

    /// Allocate with an explicit memkind kind (fine-grained placement,
    /// the paper's stated future work).
    pub fn alloc_with_kind(
        &mut self,
        label: &str,
        size: ByteSize,
        kind: Kind,
    ) -> Result<Region, MachineError> {
        let block = self.heap.malloc(kind, size).map_err(MachineError::Alloc)?;
        let hbm_fraction = match self.cfg.setup {
            MemSetup::CacheMode => 0.0,
            _ => self
                .heap
                .topology()
                .hbm_nodes()
                .first()
                .map(|&n| self.heap.fraction_on(&block, n))
                .unwrap_or(0.0),
        };
        Ok(Region {
            label: label.to_string(),
            block,
            hbm_fraction,
        })
    }

    /// Allocate several regions atomically: if any allocation fails,
    /// the ones already made are released before the error is returned
    /// (so a failed oversized run never leaks device pages — the
    /// paper's missing-bar case happens repeatedly inside sweeps).
    pub fn alloc_many(
        &mut self,
        requests: &[(&str, ByteSize)],
    ) -> Result<Vec<Region>, MachineError> {
        let mut regions: Vec<Region> = Vec::with_capacity(requests.len());
        for &(label, size) in requests {
            match self.alloc(label, size) {
                Ok(r) => regions.push(r),
                Err(e) => {
                    for r in &regions {
                        let _ = self.release(r);
                    }
                    return Err(e);
                }
            }
        }
        Ok(regions)
    }

    /// Free a region.
    pub fn release(&mut self, region: &Region) -> Result<(), MachineError> {
        self.heap.free(&region.block).map_err(MachineError::Alloc)
    }

    // ------------------------------------------------------------------
    // Bandwidth model
    // ------------------------------------------------------------------

    fn spec(&self, dev: Dev) -> &MemDeviceSpec {
        match dev {
            Dev::Ddr => &self.cfg.ddr,
            Dev::Hbm => &self.cfg.mcdram,
        }
    }

    /// Per-core streaming MLP at this thread count.
    fn per_core_stream_mlp(&self) -> f64 {
        let ht = self.cfg.threads_per_core() as f64;
        (calib::STREAM_MLP_PER_CORE_1T * ht).min(calib::STREAM_MLP_PER_CORE_CAP)
    }

    /// Flat-mode streaming bandwidth of a device at this machine's
    /// thread count, GB/s.
    pub(crate) fn flat_stream_bw(&self, dev: Dev) -> f64 {
        let spec = self.spec(dev);
        let conc = self.cfg.active_cores() as f64 * self.per_core_stream_mlp();
        let littles = conc * spec.line_bytes as f64 / spec.idle_latency.as_secs() / 1e9;
        littles.min(spec.sustained_bw_gbs)
    }

    /// Streaming bandwidth of DDR seen *through* the MCDRAM cache for a
    /// phase of the given hot footprint and reuse class, GB/s.
    fn cache_mode_stream_bw(&self, footprint: ByteSize, reuse: Reuse) -> f64 {
        let msc = self.msc.as_ref().expect("cache mode");
        let h = match reuse {
            Reuse::Streaming => msc.streaming_hit_ratio(footprint),
            Reuse::Once => 0.0,
            Reuse::Resident => 1.0,
        };
        let hit_bw = self.flat_stream_bw(Dev::Hbm) * calib::CACHE_HIT_BW_DERATE;
        let miss_bw = self.flat_stream_bw(Dev::Ddr) * calib::CACHE_MISS_BW_DERATE;
        1.0 / (h / hit_bw + (1.0 - h) / miss_bw)
    }

    /// Price one phase of streaming traffic (the ops proceed
    /// concurrently, e.g. the three arrays of STREAM triad) and advance
    /// the clock.
    pub fn stream(&mut self, ops: &[StreamOp]) -> Duration {
        let dur = self.price_stream(ops);
        self.clock += dur;
        // Device traffic attribution for the energy model.
        for op in ops {
            let bytes = op.bytes() as f64;
            let f = op.region.hbm_fraction;
            if let Some(msc) = &self.msc {
                let ddr_share = bytes * (1.0 - f);
                let h = match op.reuse {
                    Reuse::Streaming => msc.streaming_hit_ratio(ByteSize::bytes(
                        (op.region.size().as_u64() as f64 * (1.0 - f)) as u64,
                    )),
                    Reuse::Once => 0.0,
                    Reuse::Resident => 1.0,
                };
                // Hits and fills touch MCDRAM; misses touch DDR.
                self.traffic.mcdram_bytes += bytes * f + ddr_share;
                self.traffic.ddr_bytes += ddr_share * (1.0 - h);
            } else {
                self.traffic.mcdram_bytes += bytes * f;
                self.traffic.ddr_bytes += bytes * (1.0 - f);
            }
        }
        dur
    }

    /// Price a streaming phase without advancing the clock.
    pub fn price_stream(&self, ops: &[StreamOp]) -> Duration {
        if ops.is_empty() {
            return Duration::ZERO;
        }
        if self.cfg.setup.has_mcdram_cache() {
            // The DDR-resident share of each region flows through the
            // MCDRAM cache partition; any flat-MCDRAM share (hybrid
            // mode) streams at full HBM bandwidth. Hot footprint of
            // the phase: every distinct region's cached share contends
            // for cache slots together.
            let ddr_footprint = ByteSize::bytes(
                ops.iter()
                    .map(|op| {
                        (op.region.size().as_u64() as f64 * (1.0 - op.region.hbm_fraction)) as u64
                    })
                    .sum::<u64>(),
            );
            let bw_hbm = self.flat_stream_bw(Dev::Hbm);
            let mut secs = 0.0;
            let mut hbm_bytes = 0.0;
            for op in ops {
                hbm_bytes += op.bytes() as f64 * op.region.hbm_fraction;
                let ddr_share = op.bytes() as f64 * (1.0 - op.region.hbm_fraction);
                let bw = self.cache_mode_stream_bw(ddr_footprint, op.reuse);
                secs += ddr_share / 1e9 / bw;
            }
            secs += hbm_bytes / 1e9 / bw_hbm;
            return Duration::from_secs(secs);
        }
        // Flat modes: split each op's bytes by placement. Interleaved
        // placements stream both devices in parallel (that is the point
        // of interleaving); bound placements drain sequentially.
        let mut ddr_bytes = 0.0;
        let mut hbm_bytes = 0.0;
        for op in ops {
            hbm_bytes += op.bytes() as f64 * op.region.hbm_fraction;
            ddr_bytes += op.bytes() as f64 * (1.0 - op.region.hbm_fraction);
        }
        let bw_ddr = self.flat_stream_bw(Dev::Ddr);
        let bw_hbm = self.flat_stream_bw(Dev::Hbm);
        let interleaved = ops
            .iter()
            .all(|op| matches!(op.region.block.kind, Kind::Interleave | Kind::HbwInterleave));
        let secs = if interleaved && ddr_bytes > 0.0 && hbm_bytes > 0.0 {
            // Both devices stream concurrently; finish when the slower
            // share drains. Page interleave balances bytes, so this is
            // max() of the two drain times.
            (ddr_bytes / 1e9 / bw_ddr).max(hbm_bytes / 1e9 / bw_hbm)
        } else {
            ddr_bytes / 1e9 / bw_ddr + hbm_bytes / 1e9 / bw_hbm
        };
        Duration::from_secs(secs)
    }

    // ------------------------------------------------------------------
    // Latency / random-access model
    // ------------------------------------------------------------------

    fn tlb_config(&self) -> TlbConfig {
        if self.cfg.huge_pages {
            TlbConfig::knl_2m()
        } else {
            TlbConfig::knl_4k()
        }
    }

    /// Loaded random-access latency (ns) to a device for a uniformly
    /// random footprint, including mesh traversal and TLB overhead.
    fn device_random_latency_ns(&self, dev: Dev, footprint: ByteSize) -> f64 {
        let spec = self.spec(dev);
        let tlb = self.tlb_config().random_access_overhead(footprint);
        spec.idle_latency.as_ns() + calib::MESH_MEMORY_NS + tlb.as_ns()
    }

    /// Maximum random line rate of a device (lines/s): the lesser of
    /// all banks cycling row misses and the channel data buses moving
    /// one line per burst slot. Derived from the detailed bank model's
    /// timing, not fitted.
    fn device_random_line_rate(&self, dev: Dev) -> f64 {
        let (timing, geom) = match dev {
            Dev::Ddr => (DramTiming::ddr4_2133(), DramGeometry::ddr4_knl()),
            Dev::Hbm => (DramTiming::mcdram(), DramGeometry::mcdram_knl()),
        };
        let banks = (geom.channels * geom.banks_per_channel) as f64;
        let bank_rate = banks / timing.row_miss().as_secs();
        let bus_rate = geom.channels as f64 / timing.t_burst.as_secs();
        bank_rate.min(bus_rate)
    }

    /// The loaded random latency (ns) an op over `region` experiences
    /// under this setup, and the effective DDR-line cost multiplier for
    /// cap accounting.
    fn random_latency_and_cost(&self, op: &RandomOp) -> (f64, f64, Dev) {
        let footprint = op.region.size();
        let f = op.region.hbm_fraction;
        let hbm = self.device_random_latency_ns(Dev::Hbm, footprint);
        // The DDR-resident share either goes straight to DDR (flat
        // modes) or through the MCDRAM cache partition (cache/hybrid).
        let (ddr_side_lat, ddr_cost) = match &self.msc {
            Some(msc) => {
                let ddr_fp = ByteSize::bytes((footprint.as_u64() as f64 * (1.0 - f)) as u64);
                let h = msc.random_hit_ratio(ddr_fp);
                let miss =
                    calib::CACHE_MISS_TAG_NS + self.device_random_latency_ns(Dev::Ddr, footprint);
                // DDR line ops per application access: the miss fetch,
                // plus a dirty writeback for updates evicted later.
                let cost = (1.0 - h) * (1.0 + if op.updates { 1.0 } else { 0.3 });
                (h * hbm + (1.0 - h) * miss, cost)
            }
            None => (self.device_random_latency_ns(Dev::Ddr, footprint), 1.0),
        };
        let lat = f * hbm + (1.0 - f) * ddr_side_lat;
        let dominant = if f >= 0.5 { Dev::Hbm } else { Dev::Ddr };
        (lat, ddr_cost, dominant)
    }

    /// Price a random-access op and advance the clock.
    pub fn random(&mut self, op: &RandomOp) -> Duration {
        let dur = self.price_random(op);
        self.clock += dur;
        // Device traffic attribution for the energy model.
        let bytes = op.line_touches() as f64 * self.cfg.ddr.line_bytes as f64;
        let f = op.region.hbm_fraction;
        let (_lat, ddr_cost, _dom) = self.random_latency_and_cost(op);
        if self.msc.is_some() {
            self.traffic.mcdram_bytes += bytes * f + bytes * (1.0 - f);
            self.traffic.ddr_bytes += bytes * (1.0 - f) * ddr_cost;
        } else {
            self.traffic.mcdram_bytes += bytes * f;
            self.traffic.ddr_bytes += bytes * (1.0 - f);
        }
        dur
    }

    /// Price a random-access op without advancing the clock.
    pub fn price_random(&self, op: &RandomOp) -> Duration {
        if op.count == 0 {
            return Duration::ZERO;
        }
        let (lat_ns, ddr_cost, dominant) = self.random_latency_and_cost(op);
        let chain_ns = op.dependent_depth.max(1) as f64 * lat_ns;
        // Hardware threads sharing a core share its load buffers: the
        // per-thread MLP derates as ht grows (net throughput still
        // rises — §IV-D's latency-hiding effect).
        let ht = self.cfg.threads_per_core() as f64;
        let mlp = (op.mlp_per_thread / ht.powf(calib::HT_MLP_EXPONENT)).max(1.0);
        // Per-thread: overlap `mlp` units, plus serial CPU work.
        let unit_ns_per_thread = chain_ns / mlp + op.cpu_ns_per_unit;
        let latency_rate = self.cfg.threads as f64 / (unit_ns_per_thread * 1e-9);
        // Device-side cap: random line rate ÷ lines per unit.
        let lines_per_unit = op.dependent_depth.max(1) as f64 + if op.updates { 1.0 } else { 0.0 };
        // Device-side line-rate cap: the flat-MCDRAM share draws on
        // MCDRAM's random rate; the DDR share on DDR's, derated by the
        // cache-mode fill/writeback cost when the MCDRAM cache fronts
        // it (cost ~0 means almost everything hits MCDRAM, so the DDR
        // side is effectively uncapped — fall back to MCDRAM's rate).
        let f = op.region.hbm_fraction;
        let ddr_side_rate = if ddr_cost > 1e-6 {
            self.device_random_line_rate(Dev::Ddr) / ddr_cost
        } else {
            self.device_random_line_rate(Dev::Hbm)
        };
        let blended = f * self.device_random_line_rate(Dev::Hbm) + (1.0 - f) * ddr_side_rate;
        let _ = dominant;
        let cap_rate = blended / lines_per_unit;
        let rate = latency_rate.min(cap_rate);
        Duration::from_secs(op.count as f64 / rate)
    }

    /// The random-access throughput (units/s) an op would achieve —
    /// for reporting.
    pub fn random_rate(&self, op: &RandomOp) -> f64 {
        if op.count == 0 {
            return 0.0;
        }
        op.count as f64 / self.price_random(op).as_secs()
    }

    /// Price this run's accumulated memory traffic under an energy
    /// model (extension; see `crate::energy`).
    pub fn energy(&self, model: &crate::energy::EnergyModel) -> crate::energy::EnergyReport {
        crate::energy::EnergyReport::from_traffic(
            model,
            self.traffic.ddr_bytes,
            self.traffic.mcdram_bytes,
        )
    }

    // ------------------------------------------------------------------
    // Compute model
    // ------------------------------------------------------------------

    /// Price `flops` of compute against a roof of `roof_gflops` and
    /// advance the clock.
    pub fn compute(&mut self, flops: f64, roof_gflops: f64) -> Duration {
        assert!(roof_gflops > 0.0, "compute roof must be positive");
        let dur = Duration::from_secs(flops / (roof_gflops * 1e9));
        self.clock += dur;
        dur
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_triad(machine: &mut Machine, gib: u64) -> Option<f64> {
        // a[i] = b[i] + s*c[i]: three arrays of gib/3 each.
        let third = ByteSize::bytes(ByteSize::gib(gib).as_u64() / 3);
        let a = machine.alloc("a", third).ok()?;
        let b = machine.alloc("b", third).ok()?;
        let c = machine.alloc("c", third).ok()?;
        let ops = [
            StreamOp::read_all(&b),
            StreamOp::read_all(&c),
            StreamOp::write_all(&a),
        ];
        let dur = machine.price_stream(&ops);
        let bytes: u64 = ops.iter().map(StreamOp::bytes).sum();
        Some(bytes as f64 / 1e9 / dur.as_secs())
    }

    #[test]
    fn stream_matches_fig2_plateaus() {
        let mut dram = Machine::knl7210(MemSetup::DramOnly, 64).unwrap();
        let bw = stream_triad(&mut dram, 6).unwrap();
        assert!((bw - 77.0).abs() < 3.0, "DRAM triad {bw}");

        let mut hbm = Machine::knl7210(MemSetup::HbmOnly, 64).unwrap();
        let bw = stream_triad(&mut hbm, 6).unwrap();
        assert!((bw - 330.0).abs() < 15.0, "HBM triad {bw}");
    }

    #[test]
    fn hbm_allocation_fails_beyond_capacity() {
        let mut hbm = Machine::knl7210(MemSetup::HbmOnly, 64).unwrap();
        assert!(stream_triad(&mut hbm, 24).is_none());
    }

    #[test]
    fn cache_mode_tracks_fig2_shape() {
        // ~260 GB/s at 8 GB; ~125 at 11.4; below DRAM past 24 GB.
        let bw_at = |gib_f: f64| {
            let mut m = Machine::knl7210(MemSetup::CacheMode, 64).unwrap();
            let third = ByteSize::bytes(ByteSize::gib_f(gib_f).as_u64() / 3);
            let a = m.alloc("a", third).unwrap();
            let b = m.alloc("b", third).unwrap();
            let c = m.alloc("c", third).unwrap();
            let ops = [
                StreamOp::read_all(&b),
                StreamOp::read_all(&c),
                StreamOp::write_all(&a),
            ];
            let dur = m.price_stream(&ops);
            let bytes: u64 = ops.iter().map(StreamOp::bytes).sum();
            bytes as f64 / 1e9 / dur.as_secs()
        };
        let b8 = bw_at(8.0);
        assert!((b8 - 260.0).abs() < 15.0, "cache mode at 8GB: {b8}");
        let b114 = bw_at(11.4);
        assert!((b114 - 125.0).abs() < 25.0, "cache mode at 11.4GB: {b114}");
        let b30 = bw_at(30.0);
        assert!(
            b30 < 77.0,
            "cache mode at 30GB should dip below DRAM: {b30}"
        );
        // And between DRAM and HBM in the 16–24 GB window.
        let b18 = bw_at(18.0);
        assert!(b18 > 77.0 && b18 < 330.0, "cache mode at 18GB: {b18}");
    }

    #[test]
    fn hbm_needs_multiple_threads_fig5() {
        let bw_at = |threads| {
            let mut m = Machine::knl7210(MemSetup::HbmOnly, threads).unwrap();
            stream_triad(&mut m, 6).unwrap()
        };
        let t1 = bw_at(64);
        let t2 = bw_at(128);
        let ratio = t2 / t1;
        assert!((ratio - 1.27).abs() < 0.05, "HBM ht2/ht1 = {ratio}");
        assert!((t2 - 420.0).abs() < 10.0, "HBM ht2 bw {t2}");
        // DRAM is insensitive.
        let d1 = {
            let mut m = Machine::knl7210(MemSetup::DramOnly, 64).unwrap();
            stream_triad(&mut m, 6).unwrap()
        };
        let d4 = {
            let mut m = Machine::knl7210(MemSetup::DramOnly, 256).unwrap();
            stream_triad(&mut m, 6).unwrap()
        };
        assert!((d4 / d1 - 1.0).abs() < 0.02, "DRAM ht4/ht1 {}", d4 / d1);
    }

    #[test]
    fn random_prefers_dram_fig4_bottom() {
        // A GUPS-style op over an 8-GB table (fits both memories).
        let rate = |setup| {
            let mut m = Machine::knl7210(setup, 64).unwrap();
            let t = m.alloc("table", ByteSize::gib(8)).unwrap();
            m.random_rate(&RandomOp::updates(&t, 1_000_000))
        };
        let dram = rate(MemSetup::DramOnly);
        let hbm = rate(MemSetup::HbmOnly);
        assert!(
            dram > hbm,
            "latency-bound work should prefer DRAM: {dram} vs {hbm}"
        );
        // Gap driven by the 18 % latency penalty, so modest.
        assert!(hbm / dram > 0.75, "gap too large: {}", hbm / dram);
    }

    #[test]
    fn cache_mode_hurts_random_at_large_footprints() {
        let rate = |setup, gib| {
            let mut m = Machine::knl7210(setup, 64).unwrap();
            let t = m.alloc("table", ByteSize::gib(gib)).unwrap();
            m.random_rate(&RandomOp::probes(&t, 1_000_000))
        };
        // Small footprint: cache mode ≈ HBM-ish, fine.
        // Large footprint: cache mode clearly below DRAM.
        let dram = rate(MemSetup::DramOnly, 32);
        let cache = rate(MemSetup::CacheMode, 32);
        assert!(dram > cache * 1.1, "dram {dram} vs cache {cache}");
    }

    #[test]
    fn interleaved_streams_both_devices() {
        let mut m = Machine::knl7210(MemSetup::Interleaved, 64).unwrap();
        let r = m.alloc("x", ByteSize::gib(8)).unwrap();
        assert!((r.hbm_fraction - 0.5).abs() < 0.01);
        let d = m.price_stream(&[StreamOp::read_all(&r)]);
        let bw = r.size().as_u64() as f64 / 1e9 / d.as_secs();
        // Parallel drain of both halves: limited by DDR half => 2×77.
        assert!((bw - 154.0).abs() < 8.0, "interleaved bw {bw}");
    }

    #[test]
    fn hybrid_mode_partitions_mcdram() {
        // 50/50 hybrid: 8 GB flat MCDRAM + 8 GB MCDRAM cache.
        let cfg = crate::config::MachineConfig::knl7210_hybrid(0.5, 64);
        assert_eq!(cfg.allocatable_mcdram(), ByteSize::gib(8));
        assert_eq!(cfg.mcdram_cache_capacity(), ByteSize::gib(8));
        let mut m = Machine::new(cfg).unwrap();
        // A 12-GB allocation: 8 GB lands in the flat partition, the
        // rest spills to DDR (HBW_PREFERRED semantics).
        let r = m.alloc("x", ByteSize::gib(12)).unwrap();
        assert!(
            (r.hbm_fraction - 8.0 / 12.0).abs() < 0.01,
            "{}",
            r.hbm_fraction
        );
    }

    #[test]
    fn hybrid_mode_beats_pure_cache_for_oversized_streams() {
        // A 30-GB stream: the hybrid flat partition serves 8 GB at
        // full MCDRAM bandwidth, while pure cache mode thrashes its
        // direct-mapped cache — the quantitative case for the mode the
        // paper could not measure (§II).
        let stream_bw = |mut m: Machine| {
            let r = m.alloc("s", ByteSize::gib(30)).unwrap();
            let d = m.price_stream(&[StreamOp::read_all(&r)]);
            r.size().as_u64() as f64 / 1e9 / d.as_secs()
        };
        let hybrid =
            stream_bw(Machine::new(crate::config::MachineConfig::knl7210_hybrid(0.5, 64)).unwrap());
        let cache = stream_bw(Machine::knl7210(MemSetup::CacheMode, 64).unwrap());
        let dram = stream_bw(Machine::knl7210(MemSetup::DramOnly, 64).unwrap());
        assert!(
            hybrid > cache && hybrid > dram,
            "hybrid {hybrid:.1} should beat cache {cache:.1} and DRAM {dram:.1} at 30 GB"
        );
    }

    #[test]
    fn hybrid_fraction_one_degenerates_to_cache_mode() {
        let bw_at = |m: &mut Machine| {
            let r = m.alloc("s", ByteSize::gib(8)).unwrap();
            let d = m.price_stream(&[StreamOp::read_all(&r)]);
            let bw = r.size().as_u64() as f64 / 1e9 / d.as_secs();
            m.release(&r).unwrap();
            bw
        };
        let mut hybrid =
            Machine::new(crate::config::MachineConfig::knl7210_hybrid(1.0, 64)).unwrap();
        let mut cache = Machine::knl7210(MemSetup::CacheMode, 64).unwrap();
        let h = bw_at(&mut hybrid);
        let c = bw_at(&mut cache);
        assert!((h - c).abs() / c < 0.01, "hybrid(1.0) {h} vs cache {c}");
    }

    #[test]
    fn compute_respects_roof() {
        let mut m = Machine::knl7210(MemSetup::DramOnly, 128).unwrap();
        let d = m.compute(1e9, 100.0);
        assert!((d.as_secs() - 0.01).abs() < 1e-9);
        assert_eq!(m.elapsed(), d);
    }

    #[test]
    fn clock_accumulates() {
        let mut m = Machine::knl7210(MemSetup::DramOnly, 64).unwrap();
        let r = m.alloc("x", ByteSize::gib(1)).unwrap();
        m.stream(&[StreamOp::read_all(&r)]);
        m.random(&RandomOp::probes(&r, 1000));
        m.compute(1e9, 100.0);
        assert!(m.elapsed() > Duration::from_secs(0.01));
    }
}
