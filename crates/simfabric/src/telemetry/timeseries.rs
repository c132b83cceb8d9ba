//! Time-resolved telemetry: sampled counter/gauge series over
//! *simulated* time.
//!
//! [`super::MetricsRegistry`] aggregates — one number per metric for a
//! whole run. A [`TimeSeriesRecorder`] resolves the same signals in
//! time: the owner registers named series up front, updates them as
//! events happen, and ticks the recorder once per unit of simulated
//! progress (for the trace replay, once per access consumed in the
//! earliest-`(clock, core)` merge order). Every `interval` ticks the
//! recorder snapshots all current values into a *window*. Because the
//! tick count is simulated progress — not wall clock, not thread
//! scheduling — the window boundaries and the sampled values are
//! deterministic and independent of worker count, exactly like the
//! replay reports themselves.
//!
//! Windows live in a bounded ring: the newest [`capacity`] windows are
//! retained and older ones are counted in `dropped`, so a recorder on
//! an arbitrarily long run uses constant memory. Samples of counter
//! series are *cumulative* (the running total at the window boundary);
//! consumers difference adjacent windows for rates. Gauge samples are
//! instantaneous.
//!
//! Per-shard recorders merge commutatively with the same rules as
//! [`MetricsRegistry::merge`]: counter samples sum, gauge samples take
//! the maximum, windows align by index. The merged result is
//! independent of merge order, so sharded producers can combine in any
//! order and still reproduce the single-recorder output byte for byte.
//!
//! Two exporters, both byte-deterministic: [`to_jsonl`] writes the
//! `timeseries/v1` line-JSON document (a header line followed by one
//! line per window), and [`chrome_counter_trace`] renders every sample
//! as a Chrome `trace_event` counter event (`"ph":"C"`) with the
//! window-end tick as its timestamp, so a trace viewer plots the
//! series over simulated time.
//!
//! [`capacity`]: TimeSeriesRecorder::capacity
//! [`MetricsRegistry::merge`]: super::MetricsRegistry::merge
//! [`to_jsonl`]: TimeSeriesRecorder::to_jsonl
//! [`chrome_counter_trace`]: TimeSeriesRecorder::chrome_counter_trace

use std::collections::VecDeque;

use super::{write_json_num, write_json_str};

/// Schema tag on the header line of the JSONL export.
pub const TIMESERIES_SCHEMA: &str = "timeseries/v1";

/// How a registered series samples and merges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Monotone running total; samples are cumulative and shard
    /// merges sum them.
    Counter,
    /// Instantaneous level; shard merges take the maximum.
    Gauge,
}

impl SeriesKind {
    /// The tag used in the JSONL header.
    pub fn name(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
        }
    }
}

/// Handle returned by registration; indexes the recorder's series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(usize);

/// One closed sampling window: the tick span it covers and the value
/// of every registered series at its close, in registration order.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesWindow {
    /// Window sequence number from the start of the run (stable even
    /// after older windows fall out of the ring).
    pub index: u64,
    /// First tick covered (exclusive — the window spans
    /// `(start_tick, end_tick]`).
    pub start_tick: u64,
    /// Last tick covered (the tick that closed the window).
    pub end_tick: u64,
    /// Sampled values, one per registered series.
    pub values: Vec<f64>,
}

/// Sampled time-series over simulated ticks; see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesRecorder {
    interval: u64,
    capacity: usize,
    names: Vec<&'static str>,
    kinds: Vec<SeriesKind>,
    cur: Vec<f64>,
    ticks: u64,
    last_close: u64,
    next_index: u64,
    dropped: u64,
    windows: VecDeque<TimeSeriesWindow>,
}

impl TimeSeriesRecorder {
    /// A recorder sampling every `interval` ticks (clamped to at least
    /// one) into a ring of at most `capacity` windows (at least one).
    pub fn new(interval: u64, capacity: usize) -> Self {
        TimeSeriesRecorder {
            interval: interval.max(1),
            capacity: capacity.max(1),
            names: Vec::new(),
            kinds: Vec::new(),
            cur: Vec::new(),
            ticks: 0,
            last_close: 0,
            next_index: 0,
            dropped: 0,
            windows: VecDeque::new(),
        }
    }

    /// The sampling interval in ticks.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The ring capacity in windows.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Ticks seen so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Windows evicted from the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Register a cumulative counter series; must happen before the
    /// first tick so every window carries every series.
    pub fn register_counter(&mut self, name: &'static str) -> SeriesId {
        self.register(name, SeriesKind::Counter)
    }

    /// Register an instantaneous gauge series.
    pub fn register_gauge(&mut self, name: &'static str) -> SeriesId {
        self.register(name, SeriesKind::Gauge)
    }

    fn register(&mut self, name: &'static str, kind: SeriesKind) -> SeriesId {
        assert_eq!(
            self.ticks, 0,
            "series must be registered before the first tick"
        );
        assert!(
            !self.names.contains(&name),
            "series {name:?} registered twice"
        );
        self.names.push(name);
        self.kinds.push(kind);
        self.cur.push(0.0);
        SeriesId(self.names.len() - 1)
    }

    /// Registered series names, in registration order.
    pub fn series_names(&self) -> &[&'static str] {
        &self.names
    }

    /// Add `delta` to a counter series' running total.
    #[inline]
    pub fn add(&mut self, id: SeriesId, delta: f64) {
        debug_assert_eq!(self.kinds[id.0], SeriesKind::Counter, "add on a gauge");
        self.cur[id.0] += delta;
    }

    /// Overwrite a series' current value — gauges always, counters
    /// when the owner tracks the running total itself (pull-style
    /// sampling at window close).
    #[inline]
    pub fn set(&mut self, id: SeriesId, value: f64) {
        self.cur[id.0] = value;
    }

    /// Count one unit of simulated progress. Returns `true` when the
    /// tick lands on a window boundary: the owner then refreshes any
    /// pull-style series and calls [`close_window`](Self::close_window).
    /// Splitting the boundary from the snapshot lets owners whose
    /// sampled state needs preparation (e.g. finishing the boundary
    /// access first) do so between the two.
    #[inline]
    pub fn tick(&mut self) -> bool {
        self.ticks += 1;
        self.ticks.is_multiple_of(self.interval)
    }

    /// Snapshot every series' current value into a window covering the
    /// ticks since the previous close. No-op if no tick has happened
    /// since then (so a `finish` after an exact boundary is safe).
    pub fn close_window(&mut self) {
        if self.ticks == self.last_close {
            return;
        }
        let w = TimeSeriesWindow {
            index: self.next_index,
            start_tick: self.last_close,
            end_tick: self.ticks,
            values: self.cur.clone(),
        };
        self.next_index += 1;
        self.last_close = self.ticks;
        if self.windows.len() == self.capacity {
            self.windows.pop_front();
            self.dropped += 1;
        }
        self.windows.push_back(w);
    }

    /// Close the trailing partial window, if any ticks are pending.
    pub fn finish(&mut self) {
        self.close_window();
    }

    /// Retained windows, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &TimeSeriesWindow> {
        self.windows.iter()
    }

    /// Merge another shard's recorder into this one, commutatively:
    /// counter samples sum, gauge samples take the maximum, windows
    /// align by index (a window present on one side only is kept
    /// as-is). Panics if the recorders disagree on interval or series
    /// layout — shards of one producer are clones by construction.
    pub fn merge(&mut self, other: &TimeSeriesRecorder) {
        assert_eq!(self.interval, other.interval, "interval mismatch in merge");
        assert_eq!(self.names, other.names, "series mismatch in merge");
        assert_eq!(self.kinds, other.kinds, "series kind mismatch in merge");
        for (i, kind) in self.kinds.iter().enumerate() {
            match kind {
                SeriesKind::Counter => self.cur[i] += other.cur[i],
                SeriesKind::Gauge => self.cur[i] = self.cur[i].max(other.cur[i]),
            }
        }
        self.ticks = self.ticks.max(other.ticks);
        self.last_close = self.last_close.max(other.last_close);
        self.dropped += other.dropped;
        for ow in &other.windows {
            match self.windows.iter_mut().find(|w| w.index == ow.index) {
                Some(w) => {
                    assert_eq!(
                        (w.start_tick, w.end_tick),
                        (ow.start_tick, ow.end_tick),
                        "window {} spans diverged in merge",
                        w.index
                    );
                    for (i, kind) in self.kinds.iter().enumerate() {
                        match kind {
                            SeriesKind::Counter => w.values[i] += ow.values[i],
                            SeriesKind::Gauge => w.values[i] = w.values[i].max(ow.values[i]),
                        }
                    }
                }
                None => {
                    let at = self.windows.partition_point(|w| w.index < ow.index);
                    self.windows.insert(at, ow.clone());
                }
            }
        }
        self.next_index = self
            .next_index
            .max(self.windows.back().map_or(0, |w| w.index + 1));
        while self.windows.len() > self.capacity {
            self.windows.pop_front();
            self.dropped += 1;
        }
    }

    /// Render the `timeseries/v1` document: a header line naming the
    /// schema, interval, series, and ring state, then one line per
    /// retained window. Byte-deterministic.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\":");
        write_json_str(&mut out, TIMESERIES_SCHEMA);
        out.push_str(",\"interval\":");
        write_json_num(&mut out, self.interval as f64);
        out.push_str(",\"ticks\":");
        write_json_num(&mut out, self.ticks as f64);
        out.push_str(",\"dropped\":");
        write_json_num(&mut out, self.dropped as f64);
        out.push_str(",\"series\":[");
        for (i, (name, kind)) in self.names.iter().zip(&self.kinds).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_json_str(&mut out, name);
            out.push_str(",\"kind\":");
            write_json_str(&mut out, kind.name());
            out.push('}');
        }
        out.push_str("]}\n");
        for w in &self.windows {
            out.push_str("{\"window\":");
            write_json_num(&mut out, w.index as f64);
            out.push_str(",\"start\":");
            write_json_num(&mut out, w.start_tick as f64);
            out.push_str(",\"end\":");
            write_json_num(&mut out, w.end_tick as f64);
            out.push_str(",\"values\":[");
            for (i, v) in w.values.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_num(&mut out, *v);
            }
            out.push_str("]}\n");
        }
        out
    }

    /// Render every sample as a Chrome `trace_event` counter event
    /// (`"ph":"C"`, category `timeseries`), timestamped with the
    /// window-end tick so viewers plot the series over simulated
    /// time. Byte-deterministic; timestamps are monotone because
    /// windows are.
    pub fn chrome_counter_trace(&self) -> String {
        let mut out = String::new();
        for w in &self.windows {
            for (i, name) in self.names.iter().enumerate() {
                out.push_str("{\"name\":");
                write_json_str(&mut out, name);
                out.push_str(",\"cat\":\"timeseries\",\"ph\":\"C\",\"ts\":");
                write_json_num(&mut out, w.end_tick as f64);
                out.push_str(",\"pid\":1,\"args\":{\"value\":");
                write_json_num(
                    &mut out,
                    if w.values[i].is_finite() {
                        w.values[i]
                    } else {
                        0.0
                    },
                );
                out.push_str("}}\n");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_series() -> (TimeSeriesRecorder, SeriesId, SeriesId) {
        let mut r = TimeSeriesRecorder::new(4, 8);
        let c = r.register_counter("lines");
        let g = r.register_gauge("inflight");
        (r, c, g)
    }

    #[test]
    fn windows_close_on_interval_boundaries() {
        let (mut r, c, g) = two_series();
        for i in 0..10u64 {
            r.add(c, 2.0);
            r.set(g, i as f64);
            if r.tick() {
                r.close_window();
            }
        }
        r.finish();
        let ws: Vec<_> = r.windows().cloned().collect();
        assert_eq!(ws.len(), 3);
        assert_eq!((ws[0].start_tick, ws[0].end_tick), (0, 4));
        assert_eq!((ws[1].start_tick, ws[1].end_tick), (4, 8));
        assert_eq!((ws[2].start_tick, ws[2].end_tick), (8, 10));
        // Counters are cumulative; gauges instantaneous.
        assert_eq!(ws[0].values, vec![8.0, 3.0]);
        assert_eq!(ws[1].values, vec![16.0, 7.0]);
        assert_eq!(ws[2].values, vec![20.0, 9.0]);
    }

    #[test]
    fn finish_after_exact_boundary_adds_nothing() {
        let (mut r, c, _) = two_series();
        for _ in 0..8 {
            r.add(c, 1.0);
            if r.tick() {
                r.close_window();
            }
        }
        r.finish();
        assert_eq!(r.windows().count(), 2);
    }

    #[test]
    fn ring_drops_oldest() {
        let mut r = TimeSeriesRecorder::new(1, 3);
        let c = r.register_counter("n");
        for _ in 0..5 {
            r.add(c, 1.0);
            if r.tick() {
                r.close_window();
            }
        }
        assert_eq!(r.dropped(), 2);
        let idx: Vec<u64> = r.windows().map(|w| w.index).collect();
        assert_eq!(idx, vec![2, 3, 4]);
    }

    #[test]
    fn merge_mirrors_registry_rules_and_commutes() {
        let mk = |counter_base: f64, gauge: f64, windows: u64| {
            let (mut r, c, g) = two_series();
            for i in 0..windows * 4 {
                r.add(c, counter_base);
                r.set(g, gauge + i as f64);
                if r.tick() {
                    r.close_window();
                }
            }
            r
        };
        // Shard B saw fewer ticks: its missing trailing windows pass
        // through the merge untouched.
        let a = mk(1.0, 10.0, 3);
        let b = mk(5.0, 0.0, 2);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let ws: Vec<_> = ab.windows().cloned().collect();
        assert_eq!(ws.len(), 3);
        assert_eq!(ws[0].values, vec![4.0 + 20.0, 13.0]);
        assert_eq!(ws[1].values, vec![8.0 + 40.0, 17.0]);
        assert_eq!(ws[2].values, vec![12.0, 21.0]);
    }

    #[test]
    #[should_panic(expected = "series mismatch")]
    fn merge_rejects_mismatched_series() {
        let mut a = TimeSeriesRecorder::new(4, 8);
        a.register_counter("x");
        let mut b = TimeSeriesRecorder::new(4, 8);
        b.register_counter("y");
        a.merge(&b);
    }

    #[test]
    fn jsonl_header_and_windows() {
        let (mut r, c, g) = two_series();
        for _ in 0..5 {
            r.add(c, 3.0);
            r.set(g, 2.5);
            if r.tick() {
                r.close_window();
            }
        }
        r.finish();
        let text = r.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"schema\":\"timeseries/v1\""));
        assert!(lines[0].contains("\"interval\":4"));
        assert!(lines[0].contains("{\"name\":\"lines\",\"kind\":\"counter\"}"));
        assert_eq!(
            lines[1],
            "{\"window\":0,\"start\":0,\"end\":4,\"values\":[12,2.5]}"
        );
        assert_eq!(
            lines[2],
            "{\"window\":1,\"start\":4,\"end\":5,\"values\":[15,2.5]}"
        );
    }

    #[test]
    fn chrome_counter_events_are_monotone() {
        let (mut r, c, _) = two_series();
        for _ in 0..8 {
            r.add(c, 1.0);
            if r.tick() {
                r.close_window();
            }
        }
        let text = r.chrome_counter_trace();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // 2 windows x 2 series
        assert!(lines[0].contains("\"ph\":\"C\""));
        assert!(lines[0].contains("\"ts\":4"));
        assert!(lines[2].contains("\"ts\":8"));
    }
}
