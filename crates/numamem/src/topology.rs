//! NUMA nodes and distances.

use simfabric::ByteSize;

/// Identifier of a NUMA node (the OS-visible index).
pub type NodeId = u32;

/// What backs a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Conventional DRAM with CPUs attached.
    Dram,
    /// High-bandwidth memory exposed as a CPU-less node.
    Hbm,
}

/// One NUMA node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NumaNode {
    /// OS-visible node index.
    pub id: NodeId,
    /// Backing technology.
    pub kind: NodeKind,
    /// Capacity.
    pub size: ByteSize,
    /// Number of CPUs whose local node this is (MCDRAM nodes have 0).
    pub cpus: u32,
}

/// A NUMA topology: nodes plus the distance matrix reported by
/// `numactl --hardware`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NumaTopology {
    /// Nodes, indexed by `NodeId`.
    pub nodes: Vec<NumaNode>,
    /// `distances[i][j]` is the ACPI SLIT distance from node `i` to
    /// node `j` (10 = local).
    pub distances: Vec<Vec<u32>>,
}

impl NumaTopology {
    /// The paper's flat-mode topology (Table II, left): node 0 is the
    /// 96-GB DDR with all 64 CPUs; node 1 is the 16-GB MCDRAM with no
    /// CPUs; distance 31 between them.
    pub fn knl_flat() -> Self {
        NumaTopology {
            nodes: vec![
                NumaNode {
                    id: 0,
                    kind: NodeKind::Dram,
                    size: ByteSize::gib(96),
                    cpus: 64,
                },
                NumaNode {
                    id: 1,
                    kind: NodeKind::Hbm,
                    size: ByteSize::gib(16),
                    cpus: 0,
                },
            ],
            distances: vec![vec![10, 31], vec![31, 10]],
        }
    }

    /// The paper's cache-mode topology (Table II, right): a single
    /// 96-GB node — MCDRAM is invisible to the OS.
    pub fn knl_cache() -> Self {
        NumaTopology {
            nodes: vec![NumaNode {
                id: 0,
                kind: NodeKind::Dram,
                size: ByteSize::gib(96),
                cpus: 64,
            }],
            distances: vec![vec![10]],
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The node local to CPU-bearing sockets (lowest-id node with
    /// CPUs) — what "local allocation" means for the default policy.
    pub(crate) fn local_node(&self) -> NodeId {
        self.nodes
            .iter()
            .find(|n| n.cpus > 0)
            .map(|n| n.id)
            .unwrap_or(0)
    }

    /// All HBM node ids.
    pub fn hbm_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Hbm)
            .map(|n| n.id)
            .collect()
    }

    /// Distance between two nodes (`None` if either is unknown).
    pub(crate) fn distance(&self, a: NodeId, b: NodeId) -> Option<u32> {
        self.distances
            .get(a as usize)
            .and_then(|row| row.get(b as usize))
            .copied()
    }

    /// Validate shape invariants (square symmetric matrix, 10 on the
    /// diagonal, ids consecutive).
    pub(crate) fn validate(&self) -> Result<(), String> {
        let n = self.nodes.len();
        if n == 0 {
            return Err("topology has no nodes".into());
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if node.id as usize != i {
                return Err(format!("node {i} has id {}", node.id));
            }
        }
        if self.distances.len() != n {
            return Err("distance matrix row count mismatch".into());
        }
        for (i, row) in self.distances.iter().enumerate() {
            if row.len() != n {
                return Err(format!("distance row {i} has wrong length"));
            }
            if row[i] != 10 {
                return Err(format!(
                    "self-distance of node {i} is {} (expect 10)",
                    row[i]
                ));
            }
            for (j, &d) in row.iter().enumerate() {
                if self.distances[j][i] != d {
                    return Err(format!("distance matrix not symmetric at ({i},{j})"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_topology_matches_table2_left() {
        let t = NumaTopology::knl_flat();
        t.validate().unwrap();
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.distance(0, 1), Some(31));
        assert_eq!(t.distance(0, 0), Some(10));
        assert_eq!(t.nodes[0].size, ByteSize::gib(96));
        assert_eq!(t.nodes[1].size, ByteSize::gib(16));
        assert_eq!(t.nodes[1].cpus, 0);
        assert_eq!(t.hbm_nodes(), vec![1]);
        assert_eq!(t.local_node(), 0);
    }

    #[test]
    fn cache_topology_matches_table2_right() {
        let t = NumaTopology::knl_cache();
        t.validate().unwrap();
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.distance(0, 0), Some(10));
        assert!(t.hbm_nodes().is_empty());
    }

    #[test]
    fn validation_rejects_malformed() {
        let mut t = NumaTopology::knl_flat();
        t.distances[0][1] = 20; // asymmetric now
        assert!(t.validate().is_err());
        let mut t = NumaTopology::knl_flat();
        t.distances[0][0] = 11;
        assert!(t.validate().is_err());
        let mut t = NumaTopology::knl_flat();
        t.nodes[1].id = 5;
        assert!(t.validate().is_err());
        let t = NumaTopology {
            nodes: vec![],
            distances: vec![],
        };
        assert!(t.validate().is_err());
    }

    #[test]
    fn unknown_distance_is_none() {
        let t = NumaTopology::knl_flat();
        assert_eq!(t.distance(0, 7), None);
        assert!(t.nodes.get(9).is_none());
    }
}
