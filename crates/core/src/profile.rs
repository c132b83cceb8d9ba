//! Profile exporters and validators: the flat-JSON metrics dump for a
//! [`MetricsRegistry`], plus structural
//! checkers for both exporter outputs (the metrics JSON here and the
//! Chrome `trace_event` JSONL produced by
//! [`simfabric::telemetry::chrome_trace_jsonl`]).
//!
//! The exporters live in two places deliberately: the Chrome exporter
//! sits in `simfabric` next to the span log (it needs no JSON value
//! type — field order is fixed by hand), while the metrics dump lives
//! here next to [`crate::json`], the in-tree JSON value type every
//! archived artifact uses. The checkers both run in CI: `repro
//! profile-check` validates that a freshly produced profile parses,
//! that span timestamps are monotonically non-decreasing, and that the
//! expected phases and device series are present.

use crate::json::{self, Json};
use simfabric::telemetry::{MetricValue, MetricsRegistry};

/// Schema tag of the metrics dump.
pub const METRICS_SCHEMA: &str = "telemetry_metrics/v1";

/// Render a registry as a flat JSON document: one object per metric,
/// keyed by metric name, each self-describing via a `"type"` field.
/// Deterministic — the registry iterates in name order and the JSON
/// object keeps key order.
pub fn metrics_to_json(reg: &MetricsRegistry) -> Json {
    let mut metrics = std::collections::BTreeMap::new();
    for (name, value) in reg.iter() {
        let entry = match value {
            MetricValue::Counter(n) => Json::obj([
                ("type", Json::Str("counter".into())),
                ("value", Json::Num(*n as f64)),
            ]),
            MetricValue::Gauge(v) => Json::obj([
                ("type", Json::Str("gauge".into())),
                ("value", Json::Num(if v.is_finite() { *v } else { 0.0 })),
            ]),
            MetricValue::Histogram(h) => Json::obj([
                ("type", Json::Str("histogram".into())),
                ("count", Json::Num(h.count() as f64)),
                ("mean", Json::Num(h.mean())),
                ("min", Json::Num(h.min().unwrap_or(0) as f64)),
                ("p50", Json::Num(h.quantile_bound(0.5) as f64)),
                ("p99", Json::Num(h.quantile_bound(0.99) as f64)),
                ("max", Json::Num(h.max().unwrap_or(0) as f64)),
            ]),
        };
        metrics.insert(name.to_string(), entry);
    }
    Json::obj([
        ("schema", Json::Str(METRICS_SCHEMA.into())),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Summary of a validated metrics dump.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSummary {
    /// Counter metrics present.
    pub counters: usize,
    /// Gauge metrics present.
    pub gauges: usize,
    /// Histogram metrics present.
    pub histograms: usize,
}

impl MetricsSummary {
    /// Total metrics of any type.
    pub fn total(&self) -> usize {
        self.counters + self.gauges + self.histograms
    }
}

/// Validate a metrics dump against [`METRICS_SCHEMA`]: the schema tag,
/// and per metric a known `"type"` with that type's required numeric
/// fields. Errors name the offending metric.
pub fn check_metrics(doc: &Json) -> Result<MetricsSummary, String> {
    let schema = doc.str_field("schema")?;
    if schema != METRICS_SCHEMA {
        return Err(format!("schema {schema:?}, expected {METRICS_SCHEMA:?}"));
    }
    let metrics = match doc.get("metrics") {
        Some(Json::Obj(m)) => m,
        _ => return Err("missing or non-object field `metrics`".into()),
    };
    let mut summary = MetricsSummary::default();
    for (name, entry) in metrics {
        let kind = entry
            .str_field("type")
            .map_err(|e| format!("metric {name:?}: {e}"))?;
        let require = |keys: &[&str]| -> Result<(), String> {
            for key in keys {
                entry
                    .num_field(key)
                    .map_err(|e| format!("metric {name:?}: {e}"))?;
            }
            Ok(())
        };
        match kind.as_str() {
            "counter" => {
                require(&["value"])?;
                summary.counters += 1;
            }
            "gauge" => {
                require(&["value"])?;
                summary.gauges += 1;
            }
            "histogram" => {
                require(&["count", "mean", "min", "p50", "p99", "max"])?;
                summary.histograms += 1;
            }
            other => return Err(format!("metric {name:?}: unknown type {other:?}")),
        }
    }
    Ok(summary)
}

/// Summary of a validated Chrome `trace_event` JSONL profile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChromeTraceSummary {
    /// Total events (lines).
    pub events: usize,
    /// Distinct span (`"ph": "X"`) names, sorted.
    pub span_names: Vec<String>,
    /// Counter (`"ph": "C"`) series.
    pub counter_series: usize,
}

/// Validate a Chrome-trace JSONL document: every line parses as one
/// JSON object with the fields its phase requires, and timestamps are
/// monotonically non-decreasing (the exporter sorts, so a violation
/// means a corrupted or concatenated file). Errors carry the 1-based
/// line number.
pub fn check_chrome_trace(text: &str) -> Result<ChromeTraceSummary, String> {
    let mut summary = ChromeTraceSummary::default();
    let mut spans = std::collections::BTreeSet::new();
    let mut last_ts = f64::NEG_INFINITY;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let ev = json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let name = ev
            .str_field("name")
            .map_err(|e| format!("line {lineno}: {e}"))?;
        let ph = ev
            .str_field("ph")
            .map_err(|e| format!("line {lineno}: {e}"))?;
        let ts = ev
            .num_field("ts")
            .map_err(|e| format!("line {lineno}: {e}"))?;
        ev.num_field("pid")
            .map_err(|e| format!("line {lineno}: {e}"))?;
        if ev.get("args").map(|a| matches!(a, Json::Obj(_))) != Some(true) {
            return Err(format!("line {lineno}: missing or non-object `args`"));
        }
        if ts < last_ts {
            return Err(format!(
                "line {lineno}: ts {ts} decreases (previous {last_ts})"
            ));
        }
        last_ts = ts;
        match ph.as_str() {
            "X" => {
                let dur = ev
                    .num_field("dur")
                    .map_err(|e| format!("line {lineno}: {e}"))?;
                if dur < 0.0 {
                    return Err(format!("line {lineno}: negative dur {dur}"));
                }
                ev.num_field("tid")
                    .map_err(|e| format!("line {lineno}: {e}"))?;
                spans.insert(name);
            }
            "C" => summary.counter_series += 1,
            other => return Err(format!("line {lineno}: unsupported phase {other:?}")),
        }
        summary.events += 1;
    }
    summary.span_names = spans.into_iter().collect();
    Ok(summary)
}

/// Summary of a validated `timeseries/v1` JSONL export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeriesSummary {
    /// Registered series names, in header order.
    pub series: Vec<String>,
    /// Closed windows in the document.
    pub windows: usize,
    /// Sampling interval (accesses per window).
    pub interval: u64,
    /// Total accesses ticked.
    pub ticks: u64,
    /// Windows evicted by the ring before export.
    pub dropped: u64,
}

/// Validate a `timeseries/v1` JSONL export
/// ([`simfabric::TimeSeriesRecorder::to_jsonl`]): a header line with
/// the schema tag, a positive interval, and a non-empty series list;
/// then one line per window with contiguous ascending indices,
/// `end > start` spans that chain (`start` = previous `end`), and a
/// values array exactly as wide as the series list. A document whose
/// header promises series but carries no window lines is rejected —
/// an empty window array means the sampler never closed a window and
/// the export is useless downstream. Errors carry the 1-based line
/// number.
pub fn check_timeseries(text: &str) -> Result<TimeSeriesSummary, String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty document, expected a header")?;
    let header = json::parse(header).map_err(|e| format!("line 1: {e}"))?;
    let schema = header
        .str_field("schema")
        .map_err(|e| format!("line 1: {e}"))?;
    if schema != simfabric::telemetry::timeseries::TIMESERIES_SCHEMA {
        return Err(format!(
            "line 1: schema {schema:?}, expected {:?}",
            simfabric::telemetry::timeseries::TIMESERIES_SCHEMA
        ));
    }
    let interval = header
        .num_field("interval")
        .map_err(|e| format!("line 1: {e}"))?;
    if !(interval.fract() == 0.0 && interval >= 1.0) {
        return Err(format!(
            "line 1: interval {interval} is not a positive integer"
        ));
    }
    let ticks = header
        .num_field("ticks")
        .map_err(|e| format!("line 1: {e}"))?;
    let dropped = header
        .num_field("dropped")
        .map_err(|e| format!("line 1: {e}"))?;
    let mut summary = TimeSeriesSummary {
        interval: interval as u64,
        ticks: ticks as u64,
        dropped: dropped as u64,
        ..TimeSeriesSummary::default()
    };
    for (i, s) in header
        .arr_field("series")
        .map_err(|e| format!("line 1: {e}"))?
        .iter()
        .enumerate()
    {
        let name = s
            .str_field("name")
            .map_err(|e| format!("line 1: series[{i}]: {e}"))?;
        let kind = s
            .str_field("kind")
            .map_err(|e| format!("line 1: series[{i}]: {e}"))?;
        if name.is_empty() {
            return Err(format!("line 1: series[{i}]: empty name"));
        }
        if kind != "counter" && kind != "gauge" {
            return Err(format!("line 1: series[{i}]: unknown kind {kind:?}"));
        }
        summary.series.push(name);
    }
    if summary.series.is_empty() {
        return Err("line 1: empty series list".into());
    }
    let mut prev: Option<(u64, u64)> = None; // (index, end)
    for (i, line) in lines {
        let lineno = i + 1;
        let w = json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let index = w
            .num_field("window")
            .map_err(|e| format!("line {lineno}: {e}"))?;
        let start = w
            .num_field("start")
            .map_err(|e| format!("line {lineno}: {e}"))?;
        let end = w
            .num_field("end")
            .map_err(|e| format!("line {lineno}: {e}"))?;
        let values = w
            .arr_field("values")
            .map_err(|e| format!("line {lineno}: {e}"))?;
        if end <= start {
            return Err(format!(
                "line {lineno}: window span [{start}, {end}] is empty"
            ));
        }
        if values.len() != summary.series.len() {
            return Err(format!(
                "line {lineno}: {} values for {} series",
                values.len(),
                summary.series.len()
            ));
        }
        for (j, v) in values.iter().enumerate() {
            let v = v
                .as_f64()
                .ok_or_else(|| format!("line {lineno}: values[{j}] is not a number"))?;
            if !v.is_finite() {
                return Err(format!("line {lineno}: values[{j}] is not finite"));
            }
        }
        if let Some((pi, pe)) = prev {
            if index as u64 != pi + 1 {
                return Err(format!(
                    "line {lineno}: window index {index} after {pi}, expected {}",
                    pi + 1
                ));
            }
            if start as u64 != pe {
                return Err(format!(
                    "line {lineno}: window starts at {start}, previous ended at {pe}"
                ));
            }
        }
        prev = Some((index as u64, end as u64));
        summary.windows += 1;
    }
    if summary.windows == 0 {
        return Err("no windows: the sampler never closed a window".into());
    }
    Ok(summary)
}

/// Per-phase aggregate used by [`render_report`].
struct PhaseRow {
    name: String,
    count: usize,
    total_us: f64,
    max_us: f64,
}

/// Glyph ramp for the ASCII timelines, darkest = window maximum.
const RAMP: &[u8] = b" .:-=+*#%@";

fn sparkline(values: &[f64]) -> String {
    let max = values.iter().cloned().fold(0.0_f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 {
                ' '
            } else {
                let lvl = ((v / max) * (RAMP.len() - 1) as f64).round() as usize;
                RAMP[lvl.min(RAMP.len() - 1)] as char
            }
        })
        .collect()
}

/// Render a text dashboard from a Chrome-trace profile (`repro
/// profile` output) and, optionally, a `timeseries/v1` export: a
/// per-phase table (count, total, mean, max), the top-k longest
/// individual spans ("stalls"), final counter values, and per-series
/// ASCII timelines — counters differenced into per-window rates,
/// gauges plotted raw, so `migrate.resident_pages` reads as the
/// tier-residency timeline and `dram.*.lines` as a bandwidth shape.
/// Both inputs are validated first; errors carry line numbers.
pub fn render_report(trace_text: &str, timeseries_text: Option<&str>) -> Result<String, String> {
    check_chrome_trace(trace_text).map_err(|e| format!("profile: {e}"))?;
    let mut phases: Vec<PhaseRow> = Vec::new();
    let mut stalls: Vec<(f64, f64, String)> = Vec::new(); // (dur, ts, name)
    let mut counters: Vec<(String, f64)> = Vec::new();
    for line in trace_text.lines() {
        let ev = json::parse(line).expect("validated above");
        let name = ev.str_field("name").expect("validated above");
        match ev.str_field("ph").expect("validated above").as_str() {
            "X" => {
                let dur = ev.num_field("dur").expect("validated above");
                let ts = ev.num_field("ts").expect("validated above");
                match phases.iter_mut().find(|p| p.name == name) {
                    Some(p) => {
                        p.count += 1;
                        p.total_us += dur;
                        p.max_us = p.max_us.max(dur);
                    }
                    None => phases.push(PhaseRow {
                        name: name.clone(),
                        count: 1,
                        total_us: dur,
                        max_us: dur,
                    }),
                }
                stalls.push((dur, ts, name));
            }
            _ => {
                if let Some(v) = ev.get("args").and_then(|a| a.get("value")) {
                    counters.push((name, v.as_f64().unwrap_or(0.0)));
                }
            }
        }
    }
    phases.sort_by(|a, b| b.total_us.total_cmp(&a.total_us).then(a.name.cmp(&b.name)));
    stalls.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.total_cmp(&b.1)));

    let mut out = String::new();
    out.push_str("== phases ==\n");
    out.push_str(&format!(
        "{:<16} {:>7} {:>12} {:>10} {:>10}\n",
        "phase", "count", "total_us", "mean_us", "max_us"
    ));
    for p in &phases {
        out.push_str(&format!(
            "{:<16} {:>7} {:>12.1} {:>10.1} {:>10.1}\n",
            p.name,
            p.count,
            p.total_us,
            p.total_us / p.count as f64,
            p.max_us
        ));
    }
    out.push_str("\n== top stalls ==\n");
    for (rank, (dur, ts, name)) in stalls.iter().take(5).enumerate() {
        out.push_str(&format!(
            "{:>2}. {:<16} {:>10.1} us at t={:.1} us\n",
            rank + 1,
            name,
            dur,
            ts
        ));
    }
    if !counters.is_empty() {
        out.push_str("\n== counters ==\n");
        for (name, value) in &counters {
            out.push_str(&format!("{name:<32} {value}\n"));
        }
    }
    if let Some(text) = timeseries_text {
        let summary = check_timeseries(text).map_err(|e| format!("timeseries: {e}"))?;
        let kinds: Vec<String> = {
            let header = json::parse(text.lines().next().expect("validated")).expect("validated");
            header
                .arr_field("series")
                .expect("validated")
                .iter()
                .map(|s| s.str_field("kind").expect("validated"))
                .collect()
        };
        let mut columns: Vec<Vec<f64>> = vec![Vec::new(); summary.series.len()];
        for line in text.lines().skip(1) {
            let w = json::parse(line).expect("validated");
            for (j, v) in w.arr_field("values").expect("validated").iter().enumerate() {
                columns[j].push(v.as_f64().expect("validated"));
            }
        }
        out.push_str(&format!(
            "\n== timeseries ({} accesses/window, {} windows, {} dropped) ==\n",
            summary.interval, summary.windows, summary.dropped
        ));
        for (j, name) in summary.series.iter().enumerate() {
            let plotted: Vec<f64> = if kinds[j] == "counter" {
                // Cumulative counter → per-window rate. The first
                // window's rate is its own total (baseline zero).
                let mut prev = 0.0;
                columns[j]
                    .iter()
                    .map(|&v| {
                        let d = v - prev;
                        prev = v;
                        d
                    })
                    .collect()
            } else {
                columns[j].clone()
            };
            let peak = plotted.iter().cloned().fold(0.0_f64, f64::max);
            out.push_str(&format!(
                "{:<24} |{}| peak {:.0}\n",
                name,
                sparkline(&plotted),
                peak
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simfabric::telemetry::{chrome_trace_jsonl, SpanLog, SpanRecord};

    fn sample_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.counter("dev.hits", 10);
        reg.gauge("dev.high_water", 3.5);
        reg.record("dev.lat_ps", 100);
        reg.record("dev.lat_ps", 900);
        reg
    }

    #[test]
    fn metrics_roundtrip_through_checker() {
        let doc = metrics_to_json(&sample_registry());
        let summary = check_metrics(&doc).expect("valid dump");
        assert_eq!(
            summary,
            MetricsSummary {
                counters: 1,
                gauges: 1,
                histograms: 1,
            }
        );
        assert_eq!(summary.total(), 3);
        // The pretty-printed text reparses to the same value.
        let reparsed = json::parse(&doc.to_pretty()).expect("reparses");
        assert_eq!(reparsed, doc);
    }

    #[test]
    fn checker_rejects_bad_schema_and_types() {
        let mut doc = metrics_to_json(&sample_registry());
        if let Json::Obj(m) = &mut doc {
            m.insert("schema".into(), Json::Str("bogus/v9".into()));
        }
        assert!(check_metrics(&doc).unwrap_err().contains("bogus"));
        let bad_type = Json::obj([
            ("schema", Json::Str(METRICS_SCHEMA.into())),
            (
                "metrics",
                Json::obj([("x", Json::obj([("type", Json::Str("widget".into()))]))]),
            ),
        ]);
        assert!(check_metrics(&bad_type).unwrap_err().contains("widget"));
    }

    #[test]
    fn chrome_checker_accepts_exporter_output() {
        let mut log = SpanLog::new();
        log.push(SpanRecord {
            name: "classify".into(),
            cat: "replay",
            ts_us: 10.0,
            dur_us: 4.0,
            tid: 0,
            args: vec![("accesses", 64.0)],
        });
        log.push(SpanRecord {
            name: "merge".into(),
            cat: "replay",
            ts_us: 14.0,
            dur_us: 2.0,
            tid: 0,
            args: vec![],
        });
        let text = chrome_trace_jsonl(&log, &sample_registry());
        let summary = check_chrome_trace(&text).expect("valid trace");
        assert_eq!(summary.events, 5);
        assert_eq!(summary.span_names, vec!["classify", "merge"]);
        assert_eq!(summary.counter_series, 3);
    }

    #[test]
    fn chrome_checker_rejects_regressing_timestamps() {
        let good = "{\"name\":\"a\",\"cat\":\"c\",\"ph\":\"X\",\"ts\":5,\"dur\":1,\
                    \"pid\":1,\"tid\":0,\"args\":{}}";
        let bad = "{\"name\":\"b\",\"cat\":\"c\",\"ph\":\"X\",\"ts\":2,\"dur\":1,\
                   \"pid\":1,\"tid\":0,\"args\":{}}";
        let text = format!("{good}\n{bad}\n");
        let err = check_chrome_trace(&text).unwrap_err();
        assert!(err.contains("line 2") && err.contains("decreases"), "{err}");
        assert!(check_chrome_trace("not json\n").is_err());
        assert_eq!(check_chrome_trace("").unwrap().events, 0);
    }

    fn sample_timeseries() -> simfabric::TimeSeriesRecorder {
        let mut rec = simfabric::TimeSeriesRecorder::new(4, 8);
        let lines = rec.register_counter("dev.lines");
        let busy = rec.register_gauge("dev.busy");
        for i in 0..10u64 {
            rec.add(lines, 3.0);
            rec.set(busy, i as f64);
            if rec.tick() {
                rec.close_window();
            }
        }
        rec.finish();
        rec
    }

    #[test]
    fn timeseries_checker_accepts_exporter_output() {
        let rec = sample_timeseries();
        let summary = check_timeseries(&rec.to_jsonl()).expect("valid export");
        assert_eq!(summary.series, vec!["dev.lines", "dev.busy"]);
        assert_eq!(summary.windows, 3); // two full windows + the tail
        assert_eq!(summary.interval, 4);
        assert_eq!(summary.ticks, 10);
        assert_eq!(summary.dropped, 0);
    }

    #[test]
    fn timeseries_checker_rejects_malformed_documents() {
        let good = sample_timeseries().to_jsonl();
        // No windows at all.
        let header_only = good.lines().next().unwrap().to_string();
        let err = check_timeseries(&header_only).unwrap_err();
        assert!(err.contains("no windows"), "{err}");
        // Empty series list.
        let empty_series =
            "{\"schema\":\"timeseries/v1\",\"interval\":4,\"ticks\":0,\"dropped\":0,\"series\":[]}";
        let err = check_timeseries(empty_series).unwrap_err();
        assert!(err.contains("empty series"), "{err}");
        // Values narrower than the series list.
        let mut lines: Vec<&str> = good.lines().collect();
        let narrowed = lines[1].replace("[12,3]", "[12]");
        lines[1] = &narrowed;
        let err = check_timeseries(&lines.join("\n")).unwrap_err();
        assert!(err.contains("1 values for 2 series"), "{err}");
        // A gap in the window chain.
        let full = sample_timeseries().to_jsonl();
        let mut lines: Vec<&str> = full.lines().collect();
        lines.remove(2);
        let err = check_timeseries(&lines.join("\n")).unwrap_err();
        assert!(
            err.contains("expected 1") || err.contains("window"),
            "{err}"
        );
        // Wrong schema.
        let bad_schema = full.replacen("timeseries/v1", "bogus/v9", 1);
        assert!(check_timeseries(&bad_schema).unwrap_err().contains("bogus"));
    }

    #[test]
    fn report_renders_phases_stalls_and_timelines() {
        let mut log = SpanLog::new();
        for (i, (name, dur)) in [("classify", 40.0), ("merge", 25.0), ("merge", 5.0)]
            .iter()
            .enumerate()
        {
            log.push(SpanRecord {
                name: (*name).into(),
                cat: "replay",
                ts_us: 10.0 * i as f64,
                dur_us: *dur,
                tid: 0,
                args: vec![],
            });
        }
        let trace = chrome_trace_jsonl(&log, &sample_registry());
        let ts = sample_timeseries().to_jsonl();
        let report = render_report(&trace, Some(&ts)).expect("renders");
        assert!(report.contains("== phases =="), "{report}");
        assert!(report.contains("classify"), "{report}");
        assert!(report.contains("== top stalls =="), "{report}");
        assert!(
            report.contains("== timeseries (4 accesses/window"),
            "{report}"
        );
        assert!(report.contains("dev.busy"), "{report}");
        // The gauge timeline ends at its peak (monotone ramp 0..9).
        assert!(report.contains("peak 9"), "{report}");
        // A malformed timeseries fails the whole render with context.
        let err = render_report(&trace, Some("not json")).unwrap_err();
        assert!(err.contains("timeseries:"), "{err}");
    }
}
