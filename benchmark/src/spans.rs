//! Benchmark-side spans around calls into each layer's public API.
//!
//! Spans are kept in memory as [`SpanRecord`]s carrying `id` and
//! `parent` arguments (parent 0 is the pass root's own parent) and
//! written at exit as Chrome JSONL through
//! [`simfabric::telemetry::chrome_trace_jsonl`]. A layer's self time is
//! its span's duration minus the durations of its direct children.

use simfabric::telemetry::{SpanLog, SpanRecord};
use std::collections::BTreeMap;
use std::time::Instant;

/// An open span: its id, its parent's id and when it started.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    /// This span's id (never 0).
    pub id: u64,
    parent: u64,
    started: Instant,
}

/// The in-memory span tree of one traced pass.
#[derive(Debug, Default)]
pub struct Tracer {
    log: SpanLog,
    next_id: u64,
}

impl Tracer {
    /// An empty tracer; its epoch is now.
    pub fn new() -> Self {
        Tracer {
            log: SpanLog::new(),
            next_id: 0,
        }
    }

    /// Open a span under `parent` (`None` for a root).
    pub fn open(&mut self, parent: Option<&Open>) -> Open {
        self.next_id += 1;
        Open {
            id: self.next_id,
            parent: parent.map_or(0, |p| p.id),
            started: Instant::now(),
        }
    }

    /// Close `span` as `name`, with `accesses` simulated accesses of
    /// work (0 when the span has no access count).
    pub fn close(&mut self, span: Open, name: &str, accesses: u64) {
        self.log.end(
            span.started,
            name,
            "bench",
            0,
            [
                ("id", span.id as f64),
                ("parent", span.parent as f64),
                ("accesses", accesses as f64),
            ],
        );
    }

    /// Time `f` as a span named `name` under `parent`.
    pub fn time<R>(
        &mut self,
        parent: &Open,
        name: &str,
        accesses: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(Some(parent));
        let out = f();
        self.close(span, name, accesses);
        out
    }

    /// The recorded spans.
    pub fn log(&self) -> &SpanLog {
        &self.log
    }
}

fn arg(r: &SpanRecord, key: &str) -> f64 {
    r.args
        .iter()
        .find(|(k, _)| *k == key)
        .map_or(0.0, |&(_, v)| v)
}

/// Self time (µs) of every record, in record order.
fn self_times_us(records: &[SpanRecord]) -> Vec<f64> {
    let mut child_us: BTreeMap<u64, f64> = BTreeMap::new();
    for r in records {
        *child_us.entry(arg(r, "parent") as u64).or_default() += r.dur_us;
    }
    records
        .iter()
        .map(|r| (r.dur_us - child_us.get(&(arg(r, "id") as u64)).unwrap_or(&0.0)).max(0.0))
        .collect()
}

/// Per span name: (summed duration µs, summed accesses, span count).
pub fn totals_by_name(records: &[SpanRecord]) -> BTreeMap<String, (f64, f64, usize)> {
    let mut out: BTreeMap<String, (f64, f64, usize)> = BTreeMap::new();
    for r in records {
        let e = out.entry(r.name.clone()).or_default();
        e.0 += r.dur_us;
        e.1 += arg(r, "accesses");
        e.2 += 1;
    }
    out
}

/// Summed self time of every non-root span over the root spans' wall
/// time: the share of the traced pass that layer spans account for.
pub fn coverage(records: &[SpanRecord]) -> f64 {
    let selfs = self_times_us(records);
    let (mut covered, mut wall) = (0.0, 0.0);
    for (r, s) in records.iter().zip(selfs) {
        if arg(r, "parent") == 0.0 {
            wall += r.dur_us;
        } else {
            covered += s;
        }
    }
    if wall > 0.0 {
        covered / wall
    } else {
        0.0
    }
}

/// Check the span tree: ids are unique, every parent exists, and every
/// child lies inside its parent's interval.
pub fn check_tree(records: &[SpanRecord]) -> Result<(), String> {
    let mut by_id: BTreeMap<u64, &SpanRecord> = BTreeMap::new();
    for r in records {
        let id = arg(r, "id") as u64;
        if id == 0 || by_id.insert(id, r).is_some() {
            return Err(format!("span {:?}: missing or duplicate id {id}", r.name));
        }
    }
    // Timestamps are rounded to the microsecond's float; allow for it.
    let slack = 1e-3;
    for r in records {
        let parent = arg(r, "parent") as u64;
        if parent == 0 {
            continue;
        }
        let p = by_id
            .get(&parent)
            .ok_or_else(|| format!("span {:?}: parent {parent} does not exist", r.name))?;
        if r.ts_us + slack < p.ts_us || r.ts_us + r.dur_us > p.ts_us + p.dur_us + slack {
            return Err(format!(
                "span {:?} [{}, +{}] escapes its parent {:?} [{}, +{}]",
                r.name, r.ts_us, r.dur_us, p.name, p.ts_us, p.dur_us
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, id: u64, parent: u64, ts: f64, dur: f64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            cat: "bench",
            ts_us: ts,
            dur_us: dur,
            tid: 0,
            args: vec![
                ("id", id as f64),
                ("parent", parent as f64),
                ("accesses", 0.0),
            ],
        }
    }

    #[test]
    fn self_time_coverage_and_tree_checks() {
        let recs = vec![
            rec("a", 2, 1, 0.0, 4.0),
            rec("b", 3, 1, 5.0, 4.0),
            rec("pass", 1, 0, 0.0, 10.0),
        ];
        assert_eq!(self_times_us(&recs), vec![4.0, 4.0, 2.0]);
        assert!((coverage(&recs) - 0.8).abs() < 1e-12);
        check_tree(&recs).expect("well formed");
        let orphan = vec![rec("a", 2, 7, 0.0, 1.0)];
        assert!(check_tree(&orphan).unwrap_err().contains("does not exist"));
        let escapes = vec![rec("pass", 1, 0, 0.0, 1.0), rec("a", 2, 1, 0.5, 1.0)];
        assert!(check_tree(&escapes).unwrap_err().contains("escapes"));
    }
}
