//! Result archives: persist a full set of reproduced figures as JSON
//! and compare two archives point by point.
//!
//! This is how regressions in the model are caught across calibration
//! changes: `repro export results.json` after a change, then
//! `repro diff old.json new.json` shows every figure point that moved
//! by more than a tolerance.

use crate::experiment::{Measurement, Series};
use crate::figures::FigureData;
use crate::json::{self, Json};

/// A saved set of figures plus provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Archive {
    /// Schema version for forward compatibility.
    pub version: u32,
    /// Free-form description (machine preset, code revision, …).
    pub description: String,
    /// The figures.
    pub figures: Vec<FigureData>,
}

/// Current archive schema version.
pub(crate) const ARCHIVE_VERSION: u32 = 1;

impl Archive {
    /// Capture figures into an archive.
    pub fn capture(description: &str, figures: Vec<FigureData>) -> Self {
        Archive {
            version: ARCHIVE_VERSION,
            description: description.to_string(),
            figures,
        }
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        let figures = self.figures.iter().map(figure_to_json).collect();
        Json::obj([
            ("version", Json::Num(self.version as f64)),
            ("description", Json::Str(self.description.clone())),
            ("figures", Json::Arr(figures)),
        ])
        .to_pretty()
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let v = json::parse(s)?;
        let version = v.num_field("version")? as u32;
        if version != ARCHIVE_VERSION {
            return Err(format!(
                "archive version {version} unsupported (expected {ARCHIVE_VERSION})"
            ));
        }
        let figures = v
            .arr_field("figures")?
            .iter()
            .map(figure_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Archive {
            version,
            description: v.str_field("description")?,
            figures,
        })
    }

    /// Find a figure by id.
    pub(crate) fn figure(&self, id: &str) -> Option<&FigureData> {
        self.figures.iter().find(|f| f.id == id)
    }
}

/// One difference between two archives.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Figure id.
    pub figure: String,
    /// Series label.
    pub series: String,
    /// X coordinate.
    pub x: f64,
    /// Value in the baseline (None = missing point).
    pub baseline: Option<f64>,
    /// Value in the candidate.
    pub candidate: Option<f64>,
    /// Relative change (None when either side is missing).
    pub rel_change: Option<f64>,
}

fn series_points(s: &Series) -> impl Iterator<Item = (f64, Option<f64>)> + '_ {
    s.points.iter().map(|p| (p.x, p.value))
}

fn figure_to_json(f: &FigureData) -> Json {
    let series = f
        .series
        .iter()
        .map(|s| {
            let points = s
                .points
                .iter()
                .map(|p| {
                    Json::obj([
                        ("x", Json::Num(p.x)),
                        ("value", p.value.map_or(Json::Null, Json::Num)),
                    ])
                })
                .collect();
            Json::obj([
                ("label", Json::Str(s.label.clone())),
                ("points", Json::Arr(points)),
            ])
        })
        .collect();
    Json::obj([
        ("id", Json::Str(f.id.clone())),
        ("title", Json::Str(f.title.clone())),
        ("x_label", Json::Str(f.x_label.clone())),
        ("y_label", Json::Str(f.y_label.clone())),
        ("series", Json::Arr(series)),
        ("text", Json::Str(f.text.clone())),
    ])
}

fn figure_from_json(v: &Json) -> Result<FigureData, String> {
    let series = v
        .arr_field("series")?
        .iter()
        .map(|s| {
            let points = s
                .arr_field("points")?
                .iter()
                .map(|p| {
                    let value = match p.get("value") {
                        Some(Json::Null) | None => None,
                        Some(other) => Some(
                            other
                                .as_f64()
                                .ok_or_else(|| "non-numeric point value".to_string())?,
                        ),
                    };
                    Ok(Measurement {
                        x: p.num_field("x")?,
                        value,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(Series {
                label: s.str_field("label")?,
                points,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(FigureData {
        id: v.str_field("id")?,
        title: v.str_field("title")?,
        x_label: v.str_field("x_label")?,
        y_label: v.str_field("y_label")?,
        series,
        text: v.str_field("text")?,
    })
}

/// Compare two archives; returns every point whose relative change
/// exceeds `tolerance` (or whose presence changed).
pub fn diff(baseline: &Archive, candidate: &Archive, tolerance: f64) -> Vec<Divergence> {
    let mut out = Vec::new();
    for bf in &baseline.figures {
        let Some(cf) = candidate.figure(&bf.id) else {
            out.push(Divergence {
                figure: bf.id.clone(),
                series: "<figure missing>".into(),
                x: f64::NAN,
                baseline: None,
                candidate: None,
                rel_change: None,
            });
            continue;
        };
        for bs in &bf.series {
            let Some(cs) = cf.series.iter().find(|s| s.label == bs.label) else {
                out.push(Divergence {
                    figure: bf.id.clone(),
                    series: bs.label.clone(),
                    x: f64::NAN,
                    baseline: None,
                    candidate: None,
                    rel_change: None,
                });
                continue;
            };
            for (x, bv) in series_points(bs) {
                let cv = cs.value_at(x);
                match (bv, cv) {
                    (Some(b), Some(c)) => {
                        let rel = if b == 0.0 {
                            if c == 0.0 {
                                0.0
                            } else {
                                f64::INFINITY
                            }
                        } else {
                            (c - b).abs() / b.abs()
                        };
                        if rel > tolerance {
                            out.push(Divergence {
                                figure: bf.id.clone(),
                                series: bs.label.clone(),
                                x,
                                baseline: bv,
                                candidate: cv,
                                rel_change: Some(rel),
                            });
                        }
                    }
                    (None, None) => {}
                    _ => out.push(Divergence {
                        figure: bf.id.clone(),
                        series: bs.label.clone(),
                        x,
                        baseline: bv,
                        candidate: cv,
                        rel_change: None,
                    }),
                }
            }
        }
    }
    out
}

/// Render divergences as a report.
pub fn render_diff(divs: &[Divergence]) -> String {
    if divs.is_empty() {
        return "archives match within tolerance\n".into();
    }
    let mut out = format!("{} divergence(s):\n", divs.len());
    for d in divs {
        out.push_str(&format!(
            "  {:6} {:12} x={:<8} {} -> {} ({})\n",
            d.figure,
            d.series,
            d.x,
            d.baseline.map_or("-".into(), |v| format!("{v:.4}")),
            d.candidate.map_or("-".into(), |v| format!("{v:.4}")),
            d.rel_change
                .map_or("presence changed".into(), |r| format!("{:+.1}%", r * 100.0)),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Measurement;

    fn fig(id: &str, vals: &[(f64, Option<f64>)]) -> FigureData {
        FigureData {
            id: id.into(),
            title: id.into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![Series {
                label: "S".into(),
                points: vals
                    .iter()
                    .map(|&(x, value)| Measurement { x, value })
                    .collect(),
            }],
            text: String::new(),
        }
    }

    #[test]
    fn json_roundtrip() {
        let a = Archive::capture("test", vec![fig("fig2", &[(1.0, Some(77.0))])]);
        let b = Archive::from_json(&a.to_json()).unwrap();
        assert_eq!(a, b);
        assert!(b.figure("fig2").is_some());
        assert!(b.figure("nope").is_none());
    }

    #[test]
    fn identical_archives_have_no_diff() {
        let a = Archive::capture("x", vec![fig("f", &[(1.0, Some(2.0)), (2.0, None)])]);
        assert!(diff(&a, &a, 0.01).is_empty());
        assert!(render_diff(&[]).contains("match"));
    }

    #[test]
    fn value_drift_beyond_tolerance_is_reported() {
        let a = Archive::capture("a", vec![fig("f", &[(1.0, Some(100.0))])]);
        let b = Archive::capture("b", vec![fig("f", &[(1.0, Some(104.0))])]);
        assert!(diff(&a, &b, 0.05).is_empty());
        let d = diff(&a, &b, 0.03);
        assert_eq!(d.len(), 1);
        assert!((d[0].rel_change.unwrap() - 0.04).abs() < 1e-12);
        assert!(render_diff(&d).contains("+4.0%"));
    }

    #[test]
    fn presence_changes_are_reported() {
        let a = Archive::capture("a", vec![fig("f", &[(1.0, Some(1.0))])]);
        let b = Archive::capture("b", vec![fig("f", &[(1.0, None)])]);
        let d = diff(&a, &b, 0.5);
        assert_eq!(d.len(), 1);
        assert!(d[0].rel_change.is_none());
    }

    #[test]
    fn missing_figures_and_series_are_reported() {
        let a = Archive::capture("a", vec![fig("f", &[(1.0, Some(1.0))])]);
        let b = Archive::capture("b", vec![]);
        let d = diff(&a, &b, 0.5);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].series, "<figure missing>");
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut a = Archive::capture("a", vec![]);
        a.version = 99;
        assert!(Archive::from_json(&a.to_json()).is_err());
    }
}
