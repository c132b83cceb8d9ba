//! Page-granular NUMA allocation bookkeeping.
//!
//! [`NumaSystem`] owns the free-space accounting for every node and
//! performs policy-driven allocations. It deals in *page placements*
//! (how many pages of an allocation landed on which node), which is
//! exactly the information the performance model needs: an access's
//! target device is determined by its page's node.

use crate::policy::{MemPolicy, PolicyError};
use crate::topology::{NodeId, NumaTopology};
use simfabric::ByteSize;

/// Default page size used for placement accounting (4 KiB).
pub const PAGE_BYTES: u64 = 4096;

/// The outcome of an allocation: contiguous runs of pages per node, in
/// virtual order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Allocation id.
    pub id: u64,
    /// Requested size.
    pub size: ByteSize,
    /// `(node, pages)` runs in virtual-address order. Interleaved
    /// allocations have many short runs; bound allocations have one.
    pub runs: Vec<(NodeId, u64)>,
}

impl Allocation {
    /// Total pages.
    pub fn pages(&self) -> u64 {
        self.runs.iter().map(|&(_, p)| p).sum()
    }

    /// The node holding the page that contains byte `offset` of this
    /// allocation.
    pub fn node_of_offset(&self, offset: u64) -> Option<NodeId> {
        let mut page = offset / PAGE_BYTES;
        for &(node, pages) in &self.runs {
            if page < pages {
                return Some(node);
            }
            page -= pages;
        }
        None
    }

    /// Fraction of this allocation on `node`.
    pub fn fraction_on(&self, node: NodeId) -> f64 {
        let total = self.pages();
        if total == 0 {
            return 0.0;
        }
        let on: u64 = self
            .runs
            .iter()
            .filter(|&&(n, _)| n == node)
            .map(|&(_, p)| p)
            .sum();
        on as f64 / total as f64
    }
}

/// Free-space accounting and policy-driven allocation over a topology.
#[derive(Debug, Clone)]
pub struct NumaSystem {
    topology: NumaTopology,
    free_pages: Vec<u64>,
    next_id: u64,
    /// Round-robin cursor for interleaved allocations (Linux keeps it
    /// per task; one cursor is equivalent for a single-process model).
    interleave_cursor: usize,
}

impl NumaSystem {
    /// Create a system with all pages free.
    pub fn new(topology: NumaTopology) -> Self {
        topology.validate().expect("invalid topology");
        let free_pages = topology
            .nodes
            .iter()
            .map(|n| n.size.as_u64() / PAGE_BYTES)
            .collect();
        NumaSystem {
            topology,
            free_pages,
            next_id: 1,
            interleave_cursor: 0,
        }
    }

    /// The topology.
    pub fn topology(&self) -> &NumaTopology {
        &self.topology
    }

    /// Free bytes on `node`.
    pub fn free_on(&self, node: NodeId) -> ByteSize {
        ByteSize::bytes(self.free_pages[node as usize] * PAGE_BYTES)
    }

    /// Allocate `size` under `policy`.
    pub fn allocate(
        &mut self,
        size: ByteSize,
        policy: &MemPolicy,
    ) -> Result<Allocation, PolicyError> {
        let pages = size.pages(PAGE_BYTES).max(1);
        let runs = match policy {
            MemPolicy::Default => {
                let local = self.topology.local_node();
                // Local first, overflow to other nodes in id order
                // (Linux zone fallback).
                self.take_with_fallback(pages, local)?
            }
            MemPolicy::Bind(nodes) => {
                // Strict: only the bound nodes, OOM otherwise — the
                // `numactl --membind` semantics the paper relies on to
                // force DRAM-only and HBM-only runs.
                self.take_from_set(pages, nodes)?
            }
            MemPolicy::Preferred(node) => match self.take_from_set(pages, &[*node]) {
                Ok(runs) => runs,
                Err(_) => self.take_with_fallback(pages, *node)?,
            },
            MemPolicy::Interleave(nodes) => self.take_interleaved(pages, nodes)?,
        };
        let id = self.next_id;
        self.next_id += 1;
        Ok(Allocation { id, size, runs })
    }

    /// Migrate an allocation's pages to `target` (the
    /// `migrate_pages(2)` / `move_pages(2)` operation memkind's
    /// rebalancing uses). Moves as many pages as the target has free;
    /// returns the number of pages actually moved. The allocation's
    /// runs are updated in place (coalesced onto the target in virtual
    /// order).
    pub fn migrate(&mut self, alloc: &mut Allocation, target: NodeId) -> Result<u64, PolicyError> {
        if target as usize >= self.free_pages.len() {
            return Err(PolicyError::UnknownNode(target));
        }
        let mut moved = 0;
        let mut spill: Vec<(NodeId, u64)> = Vec::new();
        for run in alloc.runs.iter_mut() {
            if run.0 == target {
                continue;
            }
            let movable = run.1.min(self.free_pages[target as usize]);
            if movable == 0 {
                continue;
            }
            // Give pages back to the source, take them on the target.
            self.free_pages[run.0 as usize] += movable;
            self.free_pages[target as usize] -= movable;
            if movable == run.1 {
                run.0 = target;
            } else {
                run.1 -= movable;
                // Partial move: the moved pages form a new run appended
                // after the loop; this keeps placement fractions exact
                // (page identity is not tracked below run granularity).
                spill.push((target, movable));
            }
            moved += movable;
        }
        alloc.runs.extend(spill);
        // Coalesce adjacent same-node runs.
        let mut coalesced: Vec<(NodeId, u64)> = Vec::with_capacity(alloc.runs.len());
        for &(n, p) in alloc.runs.iter() {
            if p == 0 {
                continue;
            }
            match coalesced.last_mut() {
                Some((last, count)) if *last == n => *count += p,
                _ => coalesced.push((n, p)),
            }
        }
        alloc.runs = coalesced;
        Ok(moved)
    }

    /// Return an allocation's pages to their nodes.
    pub fn free(&mut self, alloc: &Allocation) {
        for &(node, pages) in &alloc.runs {
            self.free_pages[node as usize] += pages;
        }
    }

    fn take_from_set(
        &mut self,
        pages: u64,
        nodes: &[NodeId],
    ) -> Result<Vec<(NodeId, u64)>, PolicyError> {
        if nodes.is_empty() {
            return Err(PolicyError::EmptyNodeSet);
        }
        for &n in nodes {
            if n as usize >= self.free_pages.len() {
                return Err(PolicyError::UnknownNode(n));
            }
        }
        let available: u64 = nodes.iter().map(|&n| self.free_pages[n as usize]).sum();
        if available < pages {
            return Err(PolicyError::OutOfMemory {
                requested: ByteSize::bytes(pages * PAGE_BYTES),
                available: ByteSize::bytes(available * PAGE_BYTES),
            });
        }
        let mut runs = Vec::new();
        let mut remaining = pages;
        for &n in nodes {
            if remaining == 0 {
                break;
            }
            let take = remaining.min(self.free_pages[n as usize]);
            if take > 0 {
                self.free_pages[n as usize] -= take;
                runs.push((n, take));
                remaining -= take;
            }
        }
        debug_assert_eq!(remaining, 0);
        Ok(runs)
    }

    fn take_with_fallback(
        &mut self,
        pages: u64,
        first: NodeId,
    ) -> Result<Vec<(NodeId, u64)>, PolicyError> {
        let mut order: Vec<NodeId> = vec![first];
        // Fall back by increasing distance from `first`, then id.
        let mut rest: Vec<NodeId> = (0..self.topology.num_nodes() as NodeId)
            .filter(|&n| n != first)
            .collect();
        rest.sort_by_key(|&n| (self.topology.distance(first, n).unwrap_or(u32::MAX), n));
        order.extend(rest);
        self.take_from_set(pages, &order)
    }

    fn take_interleaved(
        &mut self,
        pages: u64,
        nodes: &[NodeId],
    ) -> Result<Vec<(NodeId, u64)>, PolicyError> {
        if nodes.is_empty() {
            return Err(PolicyError::EmptyNodeSet);
        }
        for &n in nodes {
            if n as usize >= self.free_pages.len() {
                return Err(PolicyError::UnknownNode(n));
            }
        }
        let available: u64 = nodes.iter().map(|&n| self.free_pages[n as usize]).sum();
        if available < pages {
            return Err(PolicyError::OutOfMemory {
                requested: ByteSize::bytes(pages * PAGE_BYTES),
                available: ByteSize::bytes(available * PAGE_BYTES),
            });
        }
        // Page-by-page round robin, skipping exhausted nodes (Linux
        // behaviour). Runs of equal node are coalesced.
        let mut runs: Vec<(NodeId, u64)> = Vec::new();
        let mut placed = 0;
        while placed < pages {
            let mut advanced = false;
            for _ in 0..nodes.len() {
                let n = nodes[self.interleave_cursor % nodes.len()];
                self.interleave_cursor = (self.interleave_cursor + 1) % nodes.len();
                if self.free_pages[n as usize] > 0 {
                    self.free_pages[n as usize] -= 1;
                    match runs.last_mut() {
                        Some((last, count)) if *last == n => *count += 1,
                        _ => runs.push((n, 1)),
                    }
                    placed += 1;
                    advanced = true;
                    break;
                }
            }
            debug_assert!(advanced, "available was checked above");
        }
        Ok(runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NumaTopology;

    fn sys() -> NumaSystem {
        NumaSystem::new(NumaTopology::knl_flat())
    }

    #[test]
    fn bind_is_strict() {
        let mut s = sys();
        // 17 GB cannot bind to the 16-GB HBM node.
        let err = s
            .allocate(ByteSize::gib(17), &MemPolicy::Bind(vec![1]))
            .unwrap_err();
        assert!(matches!(err, PolicyError::OutOfMemory { .. }));
        // 8 GB can.
        let a = s
            .allocate(ByteSize::gib(8), &MemPolicy::Bind(vec![1]))
            .unwrap();
        assert_eq!(a.runs, vec![(1, ByteSize::gib(8).as_u64() / PAGE_BYTES)]);
        assert_eq!(s.free_on(1), ByteSize::gib(8));
    }

    #[test]
    fn preferred_falls_back() {
        let mut s = sys();
        let a = s
            .allocate(ByteSize::gib(20), &MemPolicy::Preferred(1))
            .unwrap();
        // 16 GB on HBM, 4 GB spill to DDR.
        let bytes_on = |node| {
            a.runs
                .iter()
                .filter(|&&(n, _)| n == node)
                .map(|&(_, p)| p * PAGE_BYTES)
                .sum::<u64>()
        };
        assert_eq!(bytes_on(1), ByteSize::gib(16).as_u64());
        assert_eq!(bytes_on(0), ByteSize::gib(4).as_u64());
    }

    #[test]
    fn default_allocates_local_first() {
        let mut s = sys();
        let a = s.allocate(ByteSize::gib(1), &MemPolicy::Default).unwrap();
        assert_eq!(a.fraction_on(0), 1.0);
    }

    #[test]
    fn interleave_alternates_pages() {
        let mut s = sys();
        let a = s
            .allocate(
                ByteSize::bytes(8 * PAGE_BYTES),
                &MemPolicy::Interleave(vec![0, 1]),
            )
            .unwrap();
        assert_eq!(a.pages(), 8);
        assert!((a.fraction_on(0) - 0.5).abs() < 1e-12);
        assert!((a.fraction_on(1) - 0.5).abs() < 1e-12);
        // Strictly alternating single-page runs.
        assert_eq!(a.runs.len(), 8);
        // Offsets map alternately.
        let n0 = a.node_of_offset(0).unwrap();
        let n1 = a.node_of_offset(PAGE_BYTES).unwrap();
        assert_ne!(n0, n1);
    }

    #[test]
    fn interleave_skips_exhausted_nodes() {
        let mut s = sys();
        // Exhaust HBM.
        s.allocate(ByteSize::gib(16), &MemPolicy::Bind(vec![1]))
            .unwrap();
        let a = s
            .allocate(
                ByteSize::bytes(4 * PAGE_BYTES),
                &MemPolicy::Interleave(vec![0, 1]),
            )
            .unwrap();
        assert_eq!(a.fraction_on(0), 1.0);
    }

    #[test]
    fn free_returns_pages() {
        let mut s = sys();
        let a = s
            .allocate(ByteSize::gib(16), &MemPolicy::Bind(vec![1]))
            .unwrap();
        assert_eq!(s.free_on(1), ByteSize::ZERO);
        s.free(&a);
        assert_eq!(s.free_on(1), ByteSize::gib(16));
    }

    #[test]
    fn node_of_offset_walks_runs() {
        let a = Allocation {
            id: 1,
            size: ByteSize::bytes(3 * PAGE_BYTES),
            runs: vec![(0, 2), (1, 1)],
        };
        assert_eq!(a.node_of_offset(0), Some(0));
        assert_eq!(a.node_of_offset(2 * PAGE_BYTES - 1), Some(0));
        assert_eq!(a.node_of_offset(2 * PAGE_BYTES), Some(1));
        assert_eq!(a.node_of_offset(3 * PAGE_BYTES), None);
    }

    #[test]
    fn unknown_node_and_empty_set_rejected() {
        let mut s = sys();
        assert!(matches!(
            s.allocate(ByteSize::kib(4), &MemPolicy::Bind(vec![9])),
            Err(PolicyError::UnknownNode(9))
        ));
        assert!(matches!(
            s.allocate(ByteSize::kib(4), &MemPolicy::Bind(vec![])),
            Err(PolicyError::EmptyNodeSet)
        ));
    }

    #[test]
    fn migrate_moves_everything_when_target_has_room() {
        let mut s = sys();
        let mut a = s.allocate(ByteSize::gib(4), &MemPolicy::Default).unwrap();
        assert_eq!(a.fraction_on(0), 1.0);
        let moved = s.migrate(&mut a, 1).unwrap();
        assert_eq!(moved, a.pages());
        assert_eq!(a.fraction_on(1), 1.0);
        assert_eq!(s.free_on(1), ByteSize::gib(12));
        assert_eq!(s.free_on(0), ByteSize::gib(96));
        // Freeing after migration returns pages to the *new* node.
        s.free(&a);
        assert_eq!(s.free_on(1), ByteSize::gib(16));
    }

    #[test]
    fn migrate_is_partial_when_target_is_tight() {
        let mut s = sys();
        // Leave only 2 GB free on HBM.
        let _hog = s
            .allocate(ByteSize::gib(14), &MemPolicy::Bind(vec![1]))
            .unwrap();
        let mut a = s.allocate(ByteSize::gib(8), &MemPolicy::Default).unwrap();
        let moved = s.migrate(&mut a, 1).unwrap();
        assert_eq!(moved, ByteSize::gib(2).as_u64() / PAGE_BYTES);
        assert!((a.fraction_on(1) - 0.25).abs() < 1e-9);
        assert_eq!(s.free_on(1), ByteSize::ZERO);
        // Page conservation.
        assert_eq!(a.pages(), ByteSize::gib(8).as_u64() / PAGE_BYTES);
    }

    #[test]
    fn migrate_to_same_node_is_a_noop() {
        let mut s = sys();
        let mut a = s.allocate(ByteSize::gib(1), &MemPolicy::Default).unwrap();
        assert_eq!(s.migrate(&mut a, 0).unwrap(), 0);
        assert!(matches!(
            s.migrate(&mut a, 9),
            Err(PolicyError::UnknownNode(9))
        ));
    }

    #[test]
    fn zero_byte_allocation_takes_one_page() {
        let mut s = sys();
        let a = s.allocate(ByteSize::ZERO, &MemPolicy::Default).unwrap();
        assert_eq!(a.pages(), 1);
    }
}
