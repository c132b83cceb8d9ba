//! Allocation kinds, mirroring the memkind library's public kinds.

use numamem::{MemPolicy, NumaTopology};
use std::fmt;

/// A memory kind, in the sense of `memkind_malloc(kind, size)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Kind {
    /// `MEMKIND_DEFAULT` — the OS default policy (local DRAM node).
    #[default]
    Default,
    /// `MEMKIND_HBW` — high-bandwidth memory, strict: allocation fails
    /// when HBM is exhausted or absent.
    Hbw,
    /// `MEMKIND_HBW_PREFERRED` — HBM first, silent fallback to DRAM.
    HbwPreferred,
    /// `MEMKIND_HBW_INTERLEAVE` — pages interleaved across all HBM
    /// nodes (on multi-HBM-node systems; single-node on KNL quadrant).
    HbwInterleave,
    /// `MEMKIND_INTERLEAVE` — pages interleaved across *all* nodes.
    Interleave,
    /// `MEMKIND_REGULAR` — DRAM nodes only, strict (no HBM spill).
    Regular,
}

impl Kind {
    /// Resolve this kind to a NUMA policy on `topo`.
    ///
    /// Returns `None` when the kind is unsatisfiable on this topology
    /// (e.g. any HBW kind in cache mode, where no HBM node exists) —
    /// the same condition under which `hbw_check_available()` fails.
    pub(crate) fn to_policy(self, topo: &NumaTopology) -> Option<MemPolicy> {
        let hbm = topo.hbm_nodes();
        let dram: Vec<u32> = topo
            .nodes
            .iter()
            .filter(|n| n.kind == numamem::NodeKind::Dram)
            .map(|n| n.id)
            .collect();
        match self {
            Kind::Default => Some(MemPolicy::Default),
            Kind::Hbw => {
                if hbm.is_empty() {
                    None
                } else {
                    Some(MemPolicy::Bind(hbm))
                }
            }
            Kind::HbwPreferred => {
                if hbm.is_empty() {
                    None
                } else {
                    Some(MemPolicy::Preferred(hbm[0]))
                }
            }
            Kind::HbwInterleave => {
                if hbm.is_empty() {
                    None
                } else {
                    Some(MemPolicy::Interleave(hbm))
                }
            }
            Kind::Interleave => Some(MemPolicy::Interleave(
                (0..topo.num_nodes() as u32).collect(),
            )),
            Kind::Regular => {
                if dram.is_empty() {
                    None
                } else {
                    Some(MemPolicy::Bind(dram))
                }
            }
        }
    }

    /// Whether HBM is available for this kind on `topo` — the
    /// `hbw_check_available()` entry point.
    pub(crate) fn available(self, topo: &NumaTopology) -> bool {
        self.to_policy(topo).is_some()
    }
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Kind::Default => "MEMKIND_DEFAULT",
            Kind::Hbw => "MEMKIND_HBW",
            Kind::HbwPreferred => "MEMKIND_HBW_PREFERRED",
            Kind::HbwInterleave => "MEMKIND_HBW_INTERLEAVE",
            Kind::Interleave => "MEMKIND_INTERLEAVE",
            Kind::Regular => "MEMKIND_REGULAR",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_resolve_on_flat_topology() {
        let t = NumaTopology::knl_flat();
        assert_eq!(Kind::Default.to_policy(&t), Some(MemPolicy::Default));
        assert_eq!(Kind::Hbw.to_policy(&t), Some(MemPolicy::Bind(vec![1])));
        assert_eq!(
            Kind::HbwPreferred.to_policy(&t),
            Some(MemPolicy::Preferred(1))
        );
        assert_eq!(
            Kind::HbwInterleave.to_policy(&t),
            Some(MemPolicy::Interleave(vec![1]))
        );
        assert_eq!(
            Kind::Interleave.to_policy(&t),
            Some(MemPolicy::Interleave(vec![0, 1]))
        );
        assert_eq!(Kind::Regular.to_policy(&t), Some(MemPolicy::Bind(vec![0])));
    }

    #[test]
    fn hbw_unavailable_in_cache_mode() {
        // In cache mode the OS sees one node; hbw_check_available fails.
        let t = NumaTopology::knl_cache();
        assert!(!Kind::Hbw.available(&t));
        assert!(!Kind::HbwPreferred.available(&t));
        assert!(!Kind::HbwInterleave.available(&t));
        assert!(Kind::Default.available(&t));
        assert!(Kind::Regular.available(&t));
    }

    #[test]
    fn display_uses_memkind_names() {
        assert_eq!(Kind::Hbw.to_string(), "MEMKIND_HBW");
        assert_eq!(Kind::HbwPreferred.to_string(), "MEMKIND_HBW_PREFERRED");
    }
}
