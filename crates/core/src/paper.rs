//! The paper's published numbers, transcribed, and a point-by-point
//! comparison against the model.
//!
//! Values come from the paper's text where stated exactly (latencies,
//! plateaus, ratios) and are read off the figures elsewhere (marked
//! `FromFigure`, read to the nearest gridline — treat those as ±10 %).
//! `comparison_report` prints paper vs model vs relative deviation for
//! every transcribed point; EXPERIMENTS.md is the curated version of
//! this output.

use crate::figures;

/// Where a transcribed value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Stated numerically in the paper's text.
    Stated,
    /// Read off a figure (±10 % transcription error).
    FromFigure,
}

/// One transcribed reference point.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperPoint {
    /// Figure/table the value comes from.
    pub figure: &'static str,
    /// Series within the figure ("DRAM", "HBM", "Cache Mode", or a
    /// described quantity).
    pub series: &'static str,
    /// X coordinate in the figure's units (GB or threads); NaN for
    /// scalar quantities.
    pub x: f64,
    /// The paper's value.
    pub paper_value: f64,
    /// Source fidelity.
    pub provenance: Provenance,
    /// What the number is (units).
    pub what: &'static str,
}

/// Every number transcribed from the paper.
pub(crate) fn paper_reference() -> Vec<PaperPoint> {
    use Provenance::*;
    vec![
        // §IV-A stated values.
        PaperPoint {
            figure: "latency",
            series: "DRAM",
            x: f64::NAN,
            paper_value: 130.4,
            provenance: Stated,
            what: "idle latency (ns)",
        },
        PaperPoint {
            figure: "latency",
            series: "HBM",
            x: f64::NAN,
            paper_value: 154.0,
            provenance: Stated,
            what: "idle latency (ns)",
        },
        // Fig. 2 stated values.
        PaperPoint {
            figure: "fig2",
            series: "DRAM",
            x: 8.0,
            paper_value: 77.0,
            provenance: Stated,
            what: "STREAM triad (GB/s)",
        },
        PaperPoint {
            figure: "fig2",
            series: "HBM",
            x: 8.0,
            paper_value: 330.0,
            provenance: Stated,
            what: "STREAM triad (GB/s)",
        },
        PaperPoint {
            figure: "fig2",
            series: "Cache Mode",
            x: 8.0,
            paper_value: 260.0,
            provenance: Stated,
            what: "STREAM triad (GB/s)",
        },
        PaperPoint {
            figure: "fig2",
            series: "Cache Mode",
            x: 11.4,
            paper_value: 125.0,
            provenance: Stated,
            what: "STREAM triad (GB/s)",
        },
        // Fig. 5 stated.
        PaperPoint {
            figure: "fig5",
            series: "HBM ht2/ht1",
            x: f64::NAN,
            paper_value: 1.27,
            provenance: Stated,
            what: "bandwidth ratio",
        },
        PaperPoint {
            figure: "fig5",
            series: "HBM max",
            x: f64::NAN,
            paper_value: 420.0,
            provenance: Stated,
            what: "bandwidth (GB/s)",
        },
        // Fig. 4a read off the figure.
        PaperPoint {
            figure: "fig4a",
            series: "DRAM",
            x: 24.0,
            paper_value: 300.0,
            provenance: FromFigure,
            what: "GFLOPS",
        },
        PaperPoint {
            figure: "fig4a",
            series: "HBM",
            x: 6.0,
            paper_value: 600.0,
            provenance: FromFigure,
            what: "GFLOPS",
        },
        PaperPoint {
            figure: "fig4a",
            series: "HBM/DRAM",
            x: 6.0,
            paper_value: 2.0,
            provenance: Stated,
            what: "speedup",
        },
        // Fig. 4b.
        PaperPoint {
            figure: "fig4b",
            series: "HBM/DRAM",
            x: 7.2,
            paper_value: 3.0,
            provenance: Stated,
            what: "speedup",
        },
        PaperPoint {
            figure: "fig4b",
            series: "Cache/DRAM",
            x: 28.8,
            paper_value: 1.05,
            provenance: Stated,
            what: "speedup",
        },
        // Fig. 4c.
        PaperPoint {
            figure: "fig4c",
            series: "DRAM",
            x: 8.0,
            paper_value: 1.08e-2,
            provenance: FromFigure,
            what: "GUPS",
        },
        // Fig. 4d.
        PaperPoint {
            figure: "fig4d",
            series: "DRAM",
            x: 8.8,
            paper_value: 1.7e8,
            provenance: FromFigure,
            what: "TEPS",
        },
        PaperPoint {
            figure: "fig4d",
            series: "DRAM/Cache",
            x: 35.0,
            paper_value: 1.3,
            provenance: Stated,
            what: "speedup",
        },
        // Fig. 4e.
        PaperPoint {
            figure: "fig4e",
            series: "DRAM",
            x: 5.6,
            paper_value: 2.8e6,
            provenance: FromFigure,
            what: "lookups/s",
        },
        // Fig. 6 stated ratios.
        PaperPoint {
            figure: "fig6a",
            series: "HBM 192/64",
            x: f64::NAN,
            paper_value: 1.7,
            provenance: Stated,
            what: "speedup",
        },
        PaperPoint {
            figure: "fig6d",
            series: "HBM 256/64",
            x: f64::NAN,
            paper_value: 2.5,
            provenance: Stated,
            what: "speedup",
        },
        PaperPoint {
            figure: "fig6d",
            series: "DRAM 256/64",
            x: f64::NAN,
            paper_value: 1.5,
            provenance: Stated,
            what: "speedup",
        },
    ]
}

/// A compared point.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The reference point.
    pub point: PaperPoint,
    /// The model's value for the same quantity.
    pub model_value: f64,
    /// Relative deviation `(model - paper) / paper`.
    pub rel_dev: f64,
}

fn series_value(fig: &crate::figures::FigureData, series: &str, x: f64) -> Option<f64> {
    fig.series
        .iter()
        .find(|s| s.label == series)
        .and_then(|s| s.value_at(x))
}

/// Evaluate the model for every transcribed paper point.
pub fn compare_with_model() -> Vec<Comparison> {
    let fig2 = figures::fig2();
    let fig4a = figures::fig4a();
    let fig4b = figures::fig4b();
    let fig4c = figures::fig4c();
    let fig4d = figures::fig4d();
    let fig4e = figures::fig4e();
    let fig5 = figures::fig5();
    let fig6a = figures::fig6a();
    let fig6d = figures::fig6d();
    let model_for = |p: &PaperPoint| -> Option<f64> {
        match (p.figure, p.series) {
            ("latency", "DRAM") => Some(memdev::ddr4_knl().idle_latency.as_ns()),
            ("latency", "HBM") => Some(memdev::mcdram_knl().idle_latency.as_ns()),
            ("fig2", s) => series_value(&fig2, s, p.x),
            ("fig4a", "HBM/DRAM") => {
                Some(series_value(&fig4a, "HBM", p.x)? / series_value(&fig4a, "DRAM", p.x)?)
            }
            ("fig4a", s) => series_value(&fig4a, s, p.x),
            ("fig4b", "HBM/DRAM") => {
                Some(series_value(&fig4b, "HBM", p.x)? / series_value(&fig4b, "DRAM", p.x)?)
            }
            ("fig4b", "Cache/DRAM") => {
                Some(series_value(&fig4b, "Cache Mode", p.x)? / series_value(&fig4b, "DRAM", p.x)?)
            }
            ("fig4c", s) => series_value(&fig4c, s, p.x),
            ("fig4d", "DRAM/Cache") => {
                Some(series_value(&fig4d, "DRAM", p.x)? / series_value(&fig4d, "Cache Mode", p.x)?)
            }
            ("fig4d", s) => series_value(&fig4d, s, p.x),
            ("fig4e", s) => series_value(&fig4e, s, p.x),
            ("fig5", "HBM ht2/ht1") => Some(
                series_value(&fig5, "HBM (ht = 2)", 6.0)?
                    / series_value(&fig5, "HBM (ht = 1)", 6.0)?,
            ),
            ("fig5", "HBM max") => series_value(&fig5, "HBM (ht = 2)", 6.0),
            ("fig6a", "HBM 192/64") => {
                Some(series_value(&fig6a, "HBM", 192.0)? / series_value(&fig6a, "HBM", 64.0)?)
            }
            ("fig6d", "HBM 256/64") => {
                Some(series_value(&fig6d, "HBM", 256.0)? / series_value(&fig6d, "HBM", 64.0)?)
            }
            ("fig6d", "DRAM 256/64") => {
                Some(series_value(&fig6d, "DRAM", 256.0)? / series_value(&fig6d, "DRAM", 64.0)?)
            }
            _ => None,
        }
    };
    paper_reference()
        .into_iter()
        .filter_map(|p| {
            let model_value = model_for(&p)?;
            let rel_dev = (model_value - p.paper_value) / p.paper_value;
            Some(Comparison {
                point: p,
                model_value,
                rel_dev,
            })
        })
        .collect()
}

/// Render the comparison as an aligned table.
pub fn render_comparison(comparisons: &[Comparison]) -> String {
    let mut out =
        String::from("figure   series            x        paper        model     dev    source\n");
    for c in comparisons {
        let x = if c.point.x.is_nan() {
            "-".to_string()
        } else {
            format!("{}", c.point.x)
        };
        out.push_str(&format!(
            "{:<8} {:<16} {:>5} {:>12.4} {:>12.4} {:>+6.1}%  {}\n",
            c.point.figure,
            c.point.series,
            x,
            c.point.paper_value,
            c.model_value,
            c.rel_dev * 100.0,
            match c.point.provenance {
                Provenance::Stated => "stated",
                Provenance::FromFigure => "figure",
            },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reference_point_has_a_model_value() {
        let refs = paper_reference();
        let cmp = compare_with_model();
        assert_eq!(
            refs.len(),
            cmp.len(),
            "some transcribed points were not evaluated"
        );
    }

    #[test]
    fn stated_values_are_matched_tightly() {
        // Quantities the paper states numerically must be reproduced
        // within 15 % (they are what the model is calibrated to).
        for c in compare_with_model() {
            if c.point.provenance == Provenance::Stated {
                assert!(
                    c.rel_dev.abs() < 0.15,
                    "{} {} deviates {:+.1}% (paper {}, model {})",
                    c.point.figure,
                    c.point.series,
                    c.rel_dev * 100.0,
                    c.point.paper_value,
                    c.model_value
                );
            }
        }
    }

    #[test]
    fn figure_read_values_are_matched_loosely() {
        // Figure-read values carry transcription error: within 40 %.
        for c in compare_with_model() {
            if c.point.provenance == Provenance::FromFigure {
                assert!(
                    c.rel_dev.abs() < 0.4,
                    "{} {} deviates {:+.1}%",
                    c.point.figure,
                    c.point.series,
                    c.rel_dev * 100.0
                );
            }
        }
    }

    #[test]
    fn report_renders_all_rows() {
        let cmp = compare_with_model();
        let r = render_comparison(&cmp);
        assert_eq!(r.lines().count(), cmp.len() + 1);
        assert!(r.contains("stated"));
        assert!(r.contains("figure"));
    }
}
