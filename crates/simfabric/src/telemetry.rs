//! Telemetry: a metrics registry, phase spans, and a Chrome
//! `trace_event` exporter for the replay pipeline.
//!
//! The layer is built around two observability primitives:
//!
//! * [`MetricsRegistry`] — a flat namespace of named metrics
//!   (counters, high-water gauges, and log-scale [`Histogram`]s) that
//!   instrumented components export their state into. Registries
//!   merge ([`MetricsRegistry::merge`]) with the same commutative,
//!   associative discipline as the simulator's shard totals: counters
//!   sum, gauges keep the maximum (they are high-water marks), and
//!   histograms bucket-merge. Merging per-shard registries therefore
//!   reduces to the same totals in any order, which the
//!   sequential-equivalence suite asserts.
//! * [`SpanLog`] — scoped wall-time spans for pipeline phases (chunk
//!   generation, classification, timing merge, finish). Spans carry a
//!   thread lane (`tid`), a category, and numeric arguments (e.g. the
//!   simulated time covered), and are recorded against a single epoch
//!   so producer- and consumer-side spans share a timeline.
//!
//! Nothing in this module touches simulated state: recording a span or
//! bumping a metric can never change replay results, and every
//! instrumented hot path gates its recording behind an `Option` so the
//! disabled configuration costs one predictable branch.
//!
//! # Export
//!
//! [`chrome_trace_jsonl`] renders a span log plus a registry as
//! newline-delimited Chrome `trace_event` JSON: one complete event
//! object per line, sorted by timestamp — loadable in
//! `about:tracing`/Perfetto (whose JSON importer accepts concatenated
//! event objects) and trivially greppable. Spans become `"ph": "X"`
//! complete events; counters and gauges become `"ph": "C"` counter
//! series; histograms are summarized into a multi-value counter track.
//! The flat-JSON metrics exporter lives in `hybridmem::profile`, next
//! to the in-tree JSON value type.

use crate::stats::Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub mod timeseries;

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonically accumulated count (merge: sum).
    Counter(u64),
    /// A high-water mark (merge: max).
    Gauge(f64),
    /// A distribution of integer samples (merge: bucket-wise sum).
    Histogram(Histogram),
}

/// A flat, deterministic namespace of named metrics.
///
/// Names are dot-separated paths (`dram.ddr.row_hits`,
/// `pipeline.buffered_accesses`); the `BTreeMap` keeps iteration and
/// export order stable. Re-registering a name folds the new value in
/// with the metric's merge rule rather than overwriting, so a
/// component can be exported incrementally.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, MetricValue>,
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to the counter `name` (registering it at zero first).
    pub fn counter(&mut self, name: &str, n: u64) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert(MetricValue::Counter(0))
        {
            MetricValue::Counter(c) => *c += n,
            other => panic!("metric {name:?} is not a counter: {other:?}"),
        }
    }

    /// Raise the high-water gauge `name` to at least `v`.
    pub fn gauge(&mut self, name: &str, v: f64) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert(MetricValue::Gauge(f64::NEG_INFINITY))
        {
            MetricValue::Gauge(g) => *g = g.max(v),
            other => panic!("metric {name:?} is not a gauge: {other:?}"),
        }
    }

    /// Merge `h` into the histogram `name`.
    pub fn histogram(&mut self, name: &str, h: &Histogram) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| MetricValue::Histogram(Histogram::new()))
        {
            MetricValue::Histogram(mine) => mine.merge(h),
            other => panic!("metric {name:?} is not a histogram: {other:?}"),
        }
    }

    /// Record one sample into the histogram `name`.
    pub fn record(&mut self, name: &str, sample: u64) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| MetricValue::Histogram(Histogram::new()))
        {
            MetricValue::Histogram(mine) => mine.record(sample),
            other => panic!("metric {name:?} is not a histogram: {other:?}"),
        }
    }

    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.get(name)
    }

    /// Iterate metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Fold `other` into this registry: counters sum, gauges keep the
    /// maximum, histograms bucket-merge. Commutative and associative,
    /// so per-shard registries reduce identically in any order.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, value) in &other.metrics {
            match value {
                MetricValue::Counter(n) => self.counter(name, *n),
                MetricValue::Gauge(v) => self.gauge(name, *v),
                MetricValue::Histogram(h) => self.histogram(name, h),
            }
        }
    }

    /// Fold `other` in with every metric name prefixed by `prefix`
    /// (namespacing per-device or per-sweep-point registries into one
    /// dump).
    pub fn merge_prefixed(&mut self, prefix: &str, other: &MetricsRegistry) {
        for (name, value) in &other.metrics {
            let full = format!("{prefix}{name}");
            match value {
                MetricValue::Counter(n) => self.counter(&full, *n),
                MetricValue::Gauge(v) => self.gauge(&full, *v),
                MetricValue::Histogram(h) => self.histogram(&full, h),
            }
        }
    }
}

/// One recorded span: a named wall-time interval on a thread lane,
/// with numeric arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Phase name (`"classify"`, `"merge"`, …).
    pub name: String,
    /// Category, used as the Chrome `cat` field.
    pub cat: &'static str,
    /// Start, microseconds since the log's epoch.
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Thread lane (0 = consumer/replay thread, 1 = producer).
    pub tid: u32,
    /// Numeric arguments (sim-time covered, accesses processed, …).
    pub args: Vec<(&'static str, f64)>,
}

/// An append-only log of [`SpanRecord`]s against a single wall-clock
/// epoch.
///
/// The log never allocates on the hot path beyond the record vector
/// push; begin/end cost two `Instant::now()` calls. Records may be
/// appended out of timestamp order (a producer thread's spans arrive
/// with its chunks); the exporter sorts.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    records: Vec<SpanRecord>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// New log; the epoch (trace time zero) is now.
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            records: Vec::new(),
        }
    }

    /// Microseconds from the epoch to `t` (0 for pre-epoch instants).
    pub(crate) fn micros_since_epoch(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Record a span that started at `started` (an `Instant::now()`
    /// taken when the phase began) and ends now.
    pub fn end(
        &mut self,
        started: Instant,
        name: impl Into<String>,
        cat: &'static str,
        tid: u32,
        args: impl IntoIterator<Item = (&'static str, f64)>,
    ) {
        self.span_between(started, Instant::now(), name, cat, tid, args);
    }

    /// Record a span over an explicit `[started, ended]` interval
    /// (producer-side spans whose instants traveled with the chunk).
    pub fn span_between(
        &mut self,
        started: Instant,
        ended: Instant,
        name: impl Into<String>,
        cat: &'static str,
        tid: u32,
        args: impl IntoIterator<Item = (&'static str, f64)>,
    ) {
        let ts_us = self.micros_since_epoch(started);
        let dur_us = (self.micros_since_epoch(ended) - ts_us).max(0.0);
        self.records.push(SpanRecord {
            name: name.into(),
            cat,
            ts_us,
            dur_us,
            tid,
            args: args.into_iter().collect(),
        });
    }

    /// Append a pre-built record (tests, golden files, producers that
    /// computed their own timestamps).
    pub fn push(&mut self, record: SpanRecord) {
        self.records.push(record);
    }

    /// All records, in append order.
    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }
}

/// Render a span log plus a metrics registry as newline-delimited
/// Chrome `trace_event` JSON (see the module docs for the dialect).
///
/// Field order within each event object is fixed, lines are sorted by
/// timestamp (stable, so equal timestamps keep append order), and
/// metric counter events are emitted at the timeline's end — the
/// output is byte-deterministic given the same records and metrics.
pub fn chrome_trace_jsonl(spans: &SpanLog, metrics: &MetricsRegistry) -> String {
    let mut records: Vec<&SpanRecord> = spans.records().iter().collect();
    records.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
    let end_ts = records
        .iter()
        .map(|r| r.ts_us + r.dur_us)
        .fold(0.0f64, f64::max);
    let mut out = String::new();
    for r in &records {
        out.push_str("{\"name\":");
        write_json_str(&mut out, &r.name);
        out.push_str(",\"cat\":");
        write_json_str(&mut out, r.cat);
        out.push_str(",\"ph\":\"X\",\"ts\":");
        write_json_num(&mut out, r.ts_us);
        out.push_str(",\"dur\":");
        write_json_num(&mut out, r.dur_us);
        let _ = write!(out, ",\"pid\":1,\"tid\":{}", r.tid);
        out.push_str(",\"args\":{");
        for (i, (k, v)) in r.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_str(&mut out, k);
            out.push(':');
            write_json_num(&mut out, *v);
        }
        out.push_str("}}\n");
    }
    for (name, value) in metrics.iter() {
        out.push_str("{\"name\":");
        write_json_str(&mut out, name);
        out.push_str(",\"cat\":\"metrics\",\"ph\":\"C\",\"ts\":");
        write_json_num(&mut out, end_ts);
        out.push_str(",\"pid\":1,\"args\":{");
        match value {
            MetricValue::Counter(n) => {
                out.push_str("\"value\":");
                write_json_num(&mut out, *n as f64);
            }
            MetricValue::Gauge(v) => {
                out.push_str("\"value\":");
                write_json_num(&mut out, if v.is_finite() { *v } else { 0.0 });
            }
            MetricValue::Histogram(h) => {
                out.push_str("\"count\":");
                write_json_num(&mut out, h.count() as f64);
                out.push_str(",\"mean\":");
                write_json_num(&mut out, h.mean());
                out.push_str(",\"p50\":");
                write_json_num(&mut out, h.quantile_bound(0.5) as f64);
                out.push_str(",\"max\":");
                write_json_num(&mut out, h.max().unwrap_or(0) as f64);
            }
        }
        out.push_str("}}\n");
    }
    out
}

/// Minimal JSON string writer (metric and span names are plain
/// identifiers, but escape fully anyway).
pub(crate) fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// JSON number writer: integral values print as integers, everything
/// else as the shortest f64 round-trip; non-finite values (which JSON
/// cannot carry) print as 0.
pub(crate) fn write_json_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push('0');
    } else if n == n.trunc() && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, ts: f64, dur: f64, tid: u32) -> SpanRecord {
        SpanRecord {
            name: name.to_string(),
            cat: "replay",
            ts_us: ts,
            dur_us: dur,
            tid,
            args: vec![("accesses", 3.0)],
        }
    }

    #[test]
    fn registry_merge_rules() {
        let mut a = MetricsRegistry::new();
        a.counter("c", 2);
        a.gauge("g", 5.0);
        a.record("h", 8);
        let mut b = MetricsRegistry::new();
        b.counter("c", 3);
        b.gauge("g", 4.0);
        b.record("h", 16);
        b.counter("only_b", 1);
        a.merge(&b);
        assert_eq!(a.get("c"), Some(&MetricValue::Counter(5)));
        assert_eq!(a.get("g"), Some(&MetricValue::Gauge(5.0)));
        assert_eq!(a.get("only_b"), Some(&MetricValue::Counter(1)));
        match a.get("h") {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.count(), 2);
                assert_eq!(h.max(), Some(16));
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn registry_merge_is_order_independent() {
        let mut parts = Vec::new();
        for i in 0..4u64 {
            let mut r = MetricsRegistry::new();
            r.counter("n", i + 1);
            r.gauge("hw", i as f64);
            r.record("lat", 1 << i);
            parts.push(r);
        }
        let forward = parts.iter().fold(MetricsRegistry::new(), |mut a, p| {
            a.merge(p);
            a
        });
        let reverse = parts.iter().rev().fold(MetricsRegistry::new(), |mut a, p| {
            a.merge(p);
            a
        });
        assert_eq!(forward, reverse);
    }

    #[test]
    fn merge_prefixed_namespaces() {
        let mut inner = MetricsRegistry::new();
        inner.counter("hits", 7);
        let mut outer = MetricsRegistry::new();
        outer.merge_prefixed("ddr.", &inner);
        assert_eq!(outer.get("ddr.hits"), Some(&MetricValue::Counter(7)));
        assert!(outer.get("hits").is_none());
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn type_confusion_panics() {
        let mut r = MetricsRegistry::new();
        r.gauge("x", 1.0);
        r.counter("x", 1);
    }

    #[test]
    fn span_log_records_ordered_spans() {
        let mut log = SpanLog::new();
        let t0 = Instant::now();
        log.end(t0, "classify", "replay", 0, [("accesses", 100.0)]);
        assert_eq!(log.records().len(), 1);
        let r = &log.records()[0];
        assert_eq!(r.name, "classify");
        assert!(r.ts_us >= 0.0 && r.dur_us >= 0.0);
    }

    #[test]
    fn chrome_export_sorts_and_is_line_delimited() {
        let mut log = SpanLog::new();
        log.push(span("late", 50.0, 10.0, 0));
        log.push(span("early", 10.0, 5.0, 1));
        let mut reg = MetricsRegistry::new();
        reg.counter("dev.hits", 42);
        let text = chrome_trace_jsonl(&log, &reg);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"early\""));
        assert!(lines[1].contains("\"late\""));
        assert!(lines[2].contains("\"dev.hits\""));
        // Counter events land at the timeline end (60 us).
        assert!(lines[2].contains("\"ts\":60"), "{}", lines[2]);
        // Every line is one object with fixed field order.
        for line in lines {
            assert!(line.starts_with("{\"name\":"));
            assert!(line.ends_with("}}"));
        }
    }

    #[test]
    fn chrome_export_handles_empty_log() {
        let text = chrome_trace_jsonl(&SpanLog::new(), &MetricsRegistry::new());
        assert!(text.is_empty());
    }

    #[test]
    fn json_number_formatting() {
        let mut s = String::new();
        write_json_num(&mut s, 3.0);
        s.push(' ');
        write_json_num(&mut s, 3.25);
        s.push(' ');
        write_json_num(&mut s, f64::NAN);
        assert_eq!(s, "3 3.25 0");
    }
}
