//! Reporters: render figures as aligned text tables and CSV.

use crate::experiment::{Series, TraceReplay};
use crate::figures::FigureData;
use std::fmt::Write as _;

fn fmt_value(v: Option<f64>) -> String {
    match v {
        None => "-".to_string(),
        Some(v) => {
            if v == 0.0 {
                "0".into()
            } else if v.abs() >= 1e6 || v.abs() < 1e-3 {
                format!("{v:.3e}")
            } else if v.abs() >= 100.0 {
                format!("{v:.1}")
            } else if v.abs() < 0.1 {
                format!("{v:.4}")
            } else {
                format!("{v:.3}")
            }
        }
    }
}

/// Render a figure as an aligned text table (x column + one column per
/// series), or its pre-rendered text for table-style entries.
pub fn render_figure(fig: &FigureData) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} [{}] ==", fig.title, fig.id);
    if !fig.text.is_empty() {
        out.push_str(&fig.text);
        return out;
    }
    // Header.
    let mut widths = vec![fig.x_label.len().max(8)];
    for s in &fig.series {
        widths.push(s.label.len().max(10));
    }
    let _ = write!(out, "{:>w$}", fig.x_label, w = widths[0]);
    for (s, w) in fig.series.iter().zip(widths.iter().skip(1)) {
        let _ = write!(out, "  {:>w$}", s.label, w = w);
    }
    out.push('\n');
    // Rows keyed by the first series' x values.
    if let Some(first) = fig.series.first() {
        for p in &first.points {
            let _ = write!(out, "{:>w$}", fmt_value(Some(p.x)), w = widths[0]);
            for (s, w) in fig.series.iter().zip(widths.iter().skip(1)) {
                let _ = write!(out, "  {:>w$}", fmt_value(s.value_at(p.x)), w = w);
            }
            out.push('\n');
        }
    }
    let _ = writeln!(out, "({})", fig.y_label);
    out
}

/// Render trace-replay results as an aligned text table (one row per
/// generator × setup).
pub fn render_trace_replays(rows: &[TraceReplay]) -> String {
    let mut out = String::from(
        "== Trace replay (classified sweep engine) ==\n\
         workload    setup       accesses  mem-acc  avg-lat(ns)  bandwidth(GB/s)\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10}  {:<10}  {:>8}  {:>7}  {:>11.1}  {:>15.2}",
            r.kind.name(),
            r.setup.label(),
            r.report.accesses,
            r.report.memory_accesses,
            r.report.avg_latency.as_ns(),
            r.report.bandwidth_gbs,
        );
    }
    out
}

/// Render series as CSV: `x,label1,label2,...` rows.
pub fn series_csv(series: &[Series]) -> String {
    let mut out = String::from("x");
    for s in series {
        let _ = write!(out, ",{}", s.label.replace(',', ";"));
    }
    out.push('\n');
    if let Some(first) = series.first() {
        for p in &first.points {
            let _ = write!(out, "{}", p.x);
            for s in series {
                match s.value_at(p.x) {
                    Some(v) => {
                        let _ = write!(out, ",{v}");
                    }
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Measurement;

    fn sample() -> Vec<Series> {
        vec![
            Series {
                label: "DRAM".into(),
                points: vec![
                    Measurement {
                        x: 1.0,
                        value: Some(77.0),
                    },
                    Measurement {
                        x: 2.0,
                        value: Some(77.5),
                    },
                ],
            },
            Series {
                label: "HBM".into(),
                points: vec![
                    Measurement {
                        x: 1.0,
                        value: Some(330.0),
                    },
                    Measurement {
                        x: 2.0,
                        value: None,
                    },
                ],
            },
        ]
    }

    #[test]
    fn csv_renders_missing_as_empty() {
        let csv = series_csv(&sample());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,DRAM,HBM");
        assert_eq!(lines[1], "1,77,330");
        assert_eq!(lines[2], "2,77.5,");
    }

    #[test]
    fn table_render_contains_all_labels_and_dashes() {
        let fig = FigureData {
            id: "t".into(),
            title: "Test".into(),
            x_label: "Size".into(),
            y_label: "GB/s".into(),
            series: sample(),
            text: String::new(),
        };
        let txt = render_figure(&fig);
        assert!(txt.contains("DRAM"));
        assert!(txt.contains("HBM"));
        assert!(txt.contains('-'), "missing value should render as dash");
        assert!(txt.contains("(GB/s)"));
    }

    #[test]
    fn prerendered_text_passthrough() {
        let fig = FigureData {
            id: "table2".into(),
            title: "T2".into(),
            x_label: String::new(),
            y_label: String::new(),
            series: vec![],
            text: "Distances: ...\n".into(),
        };
        assert!(render_figure(&fig).contains("Distances: ..."));
    }

    #[test]
    fn value_formatting_scales() {
        assert_eq!(fmt_value(Some(1.5e8)), "1.500e8");
        assert_eq!(fmt_value(Some(330.4)), "330.4");
        assert_eq!(fmt_value(Some(1.06e-2)), "0.0106");
        assert_eq!(fmt_value(Some(0.0)), "0");
        assert_eq!(fmt_value(None), "-");
    }
}
