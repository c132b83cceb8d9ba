//! Table I of the paper: the evaluated applications.

use simfabric::ByteSize;

/// Coarse access-pattern classes used throughout the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessClass {
    /// Regular, prefetcher-friendly sweeps — bandwidth-bound.
    Sequential,
    /// Data-dependent scattered accesses — latency-bound.
    Random,
}

impl AccessClass {
    /// Label as printed in Table I.
    pub(crate) fn label(self) -> &'static str {
        match self {
            AccessClass::Sequential => "Sequential",
            AccessClass::Random => "Random",
        }
    }
}

/// One row of Table I.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CatalogEntry {
    /// Application name.
    pub application: &'static str,
    /// "Scientific" or "Data analytics".
    pub app_type: &'static str,
    /// Access pattern class.
    pub pattern: AccessClass,
    /// Largest problem size evaluated (Table I "Max. Scale").
    pub max_scale: ByteSize,
}

/// Table I, verbatim.
pub(crate) fn catalog() -> Vec<CatalogEntry> {
    vec![
        CatalogEntry {
            application: "DGEMM",
            app_type: "Scientific",
            pattern: AccessClass::Sequential,
            max_scale: ByteSize::gib(24),
        },
        CatalogEntry {
            application: "MiniFE",
            app_type: "Scientific",
            pattern: AccessClass::Sequential,
            max_scale: ByteSize::gib(30),
        },
        CatalogEntry {
            application: "GUPS",
            app_type: "Data analytics",
            pattern: AccessClass::Random,
            max_scale: ByteSize::gib(32),
        },
        CatalogEntry {
            application: "Graph500",
            app_type: "Data analytics",
            pattern: AccessClass::Random,
            max_scale: ByteSize::gib(35),
        },
        CatalogEntry {
            application: "XSBench",
            app_type: "Scientific",
            pattern: AccessClass::Random,
            max_scale: ByteSize::gib(90),
        },
    ]
}

/// Render Table I as aligned text.
pub fn render_table1() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:<15} {:<14} {:>10}\n",
        "Application", "Type", "Access Pattern", "Max. Scale"
    ));
    for e in catalog() {
        out.push_str(&format!(
            "{:<10} {:<15} {:<14} {:>7} GB\n",
            e.application,
            e.app_type,
            e.pattern.label(),
            e.max_scale.as_u64() >> 30,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_applications_as_in_table1() {
        let c = catalog();
        assert_eq!(c.len(), 5);
        let names: Vec<_> = c.iter().map(|e| e.application).collect();
        assert_eq!(names, ["DGEMM", "MiniFE", "GUPS", "Graph500", "XSBench"]);
    }

    #[test]
    fn patterns_match_table1() {
        for e in catalog() {
            let expect = match e.application {
                "DGEMM" | "MiniFE" => AccessClass::Sequential,
                _ => AccessClass::Random,
            };
            assert_eq!(e.pattern, expect, "{}", e.application);
        }
    }

    #[test]
    fn max_scales_match_table1() {
        let sizes: Vec<u64> = catalog()
            .iter()
            .map(|e| e.max_scale.as_u64() >> 30)
            .collect();
        assert_eq!(sizes, [24, 30, 32, 35, 90]);
    }

    #[test]
    fn xsbench_exceeds_dram_minus_hbm() {
        // The 90-GB XSBench cannot fit HBM and barely fits DDR — the
        // reason Fig. 4e's red bars stop early.
        let xs = &catalog()[4];
        assert!(xs.max_scale > ByteSize::gib(16));
        assert!(xs.max_scale < ByteSize::gib(96));
    }

    #[test]
    fn render_contains_all_rows() {
        let t = render_table1();
        for e in catalog() {
            assert!(t.contains(e.application));
        }
        assert!(t.contains("Sequential") && t.contains("Random"));
    }
}
