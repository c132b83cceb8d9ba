//! The memkind-style heap front end.
//!
//! [`MemkindHeap`] binds the pieces together: a virtual-address arena
//! for stable addresses, the NUMA policy engine for placement, and a
//! per-kind accounting layer. Its `node_of` query is what the machine
//! model uses to decide which device an address's traffic hits.

use crate::arena::Arena;
use crate::kind::Kind;
use numamem::system::PAGE_BYTES;
use numamem::{Allocation, NodeId, NumaSystem, NumaTopology, PolicyError};
use simfabric::ByteSize;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::sync::Mutex;

/// Errors returned by heap operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeapError {
    /// The kind cannot be satisfied on this topology at all
    /// (`hbw_check_available` failure — e.g. HBW in cache mode).
    KindUnavailable(Kind),
    /// The policy engine refused (strict bind out of memory, …).
    Policy(PolicyError),
    /// The virtual address space is exhausted or too fragmented.
    AddressSpace,
    /// `free` of an address that is not a live block start.
    InvalidFree(u64),
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::KindUnavailable(k) => write!(f, "{k} is not available on this system"),
            HeapError::Policy(e) => write!(f, "{e}"),
            HeapError::AddressSpace => write!(f, "virtual address space exhausted"),
            HeapError::InvalidFree(a) => write!(f, "invalid free of {a:#x}"),
        }
    }
}

impl std::error::Error for HeapError {}

impl From<PolicyError> for HeapError {
    fn from(e: PolicyError) -> Self {
        HeapError::Policy(e)
    }
}

/// A live heap block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Start virtual address (page-aligned).
    pub addr: u64,
    /// Requested size.
    pub size: ByteSize,
    /// Kind it was allocated with.
    pub kind: Kind,
}

struct Inner {
    system: NumaSystem,
    arena: Arena,
    /// Live blocks: start address → page placement.
    blocks: BTreeMap<u64, Allocation>,
}

/// The memkind-style heap. Cheap to clone (shared state, internally
/// locked) so workloads and the machine model can both hold it.
///
/// # Example
///
/// ```
/// use memkind_sim::{Kind, MemkindHeap};
/// use numamem::NumaTopology;
/// use simfabric::ByteSize;
///
/// let heap = MemkindHeap::new(NumaTopology::knl_flat());
/// // hbw_malloc puts the block on the MCDRAM node...
/// let b = heap.hbw_malloc(ByteSize::gib(1)).unwrap();
/// assert_eq!(heap.node_of(b.addr), Some(1));
/// // ...and is strict: 16 GB is all there is.
/// assert!(heap.malloc(Kind::Hbw, ByteSize::gib(16)).is_err());
/// ```
#[derive(Clone)]
pub struct MemkindHeap {
    inner: Arc<Mutex<Inner>>,
}

/// Base of the simulated heap VA range (an arbitrary canonical-form
/// address; distinct from null and from typical text/stack addresses).
pub(crate) const HEAP_BASE: u64 = 0x6000_0000_0000;

impl MemkindHeap {
    /// Create a heap over `topology`. The VA arena spans the sum of
    /// all node capacities (you can never place more than that).
    pub fn new(topology: NumaTopology) -> Self {
        let span: u64 = topology.nodes.iter().map(|n| n.size.as_u64()).sum();
        let system = NumaSystem::new(topology);
        MemkindHeap {
            inner: Arc::new(Mutex::new(Inner {
                system,
                arena: Arena::new(HEAP_BASE, span),
                blocks: BTreeMap::new(),
            })),
        }
    }

    /// The topology this heap allocates over.
    pub fn topology(&self) -> NumaTopology {
        self.inner.lock().unwrap().system.topology().clone()
    }

    /// `memkind_malloc(kind, size)`.
    pub fn malloc(&self, kind: Kind, size: ByteSize) -> Result<Block, HeapError> {
        let mut inner = self.inner.lock().unwrap();
        let policy = kind
            .to_policy(inner.system.topology())
            .ok_or(HeapError::KindUnavailable(kind))?;
        let allocation = inner.system.allocate(size, &policy)?;
        let addr = match inner.arena.alloc(size.as_u64()) {
            Some(a) => a,
            None => {
                inner.system.free(&allocation);
                return Err(HeapError::AddressSpace);
            }
        };
        inner.blocks.insert(addr, allocation);
        Ok(Block { addr, size, kind })
    }

    /// `hbw_malloc(size)` — strict HBM.
    pub fn hbw_malloc(&self, size: ByteSize) -> Result<Block, HeapError> {
        self.malloc(Kind::Hbw, size)
    }

    /// `hbw_check_available()` for `kind`.
    pub fn check_available(&self, kind: Kind) -> bool {
        kind.available(self.inner.lock().unwrap().system.topology())
    }

    /// Free a block.
    pub fn free(&self, block: &Block) -> Result<(), HeapError> {
        let mut inner = self.inner.lock().unwrap();
        let allocation = inner
            .blocks
            .remove(&block.addr)
            .ok_or(HeapError::InvalidFree(block.addr))?;
        inner.system.free(&allocation);
        inner.arena.free(block.addr);
        Ok(())
    }

    /// Migrate a live block's pages to `target`
    /// (`memkind`-rebalancing / `move_pages(2)`); returns the number of
    /// pages moved. Partial moves happen when the target is tight.
    pub fn migrate(&self, block: &Block, target: NodeId) -> Result<u64, HeapError> {
        let mut inner = self.inner.lock().unwrap();
        // Split borrows: work on a copy of the allocation.
        let mut allocation = inner
            .blocks
            .get(&block.addr)
            .ok_or(HeapError::InvalidFree(block.addr))?
            .clone();
        let moved = inner
            .system
            .migrate(&mut allocation, target)
            .map_err(HeapError::Policy)?;
        inner.blocks.insert(block.addr, allocation);
        Ok(moved)
    }

    /// The NUMA node backing the page containing `addr`, or `None` for
    /// addresses outside any live block.
    pub fn node_of(&self, addr: u64) -> Option<NodeId> {
        let inner = self.inner.lock().unwrap();
        let (&start, allocation) = inner.blocks.range(..=addr).next_back()?;
        if addr >= start + allocation.pages() * PAGE_BYTES {
            return None;
        }
        allocation.node_of_offset(addr - start)
    }

    /// Fraction of a block's pages on `node`.
    pub fn fraction_on(&self, block: &Block, node: NodeId) -> f64 {
        let inner = self.inner.lock().unwrap();
        inner
            .blocks
            .get(&block.addr)
            .map(|a| a.fraction_on(node))
            .unwrap_or(0.0)
    }

    /// Free bytes remaining on `node`.
    pub fn free_on(&self, node: NodeId) -> ByteSize {
        self.inner.lock().unwrap().system.free_on(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> MemkindHeap {
        MemkindHeap::new(NumaTopology::knl_flat())
    }

    #[test]
    fn hbw_malloc_lands_on_hbm_node() {
        let h = heap();
        let b = h.hbw_malloc(ByteSize::gib(1)).unwrap();
        assert_eq!(h.fraction_on(&b, 1), 1.0);
        assert_eq!(h.node_of(b.addr), Some(1));
        assert_eq!(h.node_of(b.addr + b.size.as_u64() - 1), Some(1));
    }

    #[test]
    fn hbw_is_strict_beyond_capacity() {
        let h = heap();
        let _a = h.hbw_malloc(ByteSize::gib(16)).unwrap();
        let err = h.hbw_malloc(ByteSize::kib(4)).unwrap_err();
        assert!(matches!(
            err,
            HeapError::Policy(PolicyError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn hbw_preferred_spills_to_dram() {
        let h = heap();
        let b = h.malloc(Kind::HbwPreferred, ByteSize::gib(20)).unwrap();
        let on_hbm = h.fraction_on(&b, 1);
        assert!((on_hbm - 16.0 / 20.0).abs() < 1e-9, "fraction {on_hbm}");
        // The spilled tail resolves to node 0.
        assert_eq!(h.node_of(b.addr + b.size.as_u64() - 1), Some(0));
    }

    #[test]
    fn hbw_unavailable_in_cache_mode() {
        let h = MemkindHeap::new(NumaTopology::knl_cache());
        assert!(!h.check_available(Kind::Hbw));
        assert_eq!(
            h.hbw_malloc(ByteSize::kib(4)).unwrap_err(),
            HeapError::KindUnavailable(Kind::Hbw)
        );
        // Default still works.
        assert!(h.malloc(Kind::Default, ByteSize::mib(1)).is_ok());
    }

    #[test]
    fn free_recycles_device_and_va() {
        let h = heap();
        let b = h.hbw_malloc(ByteSize::gib(16)).unwrap();
        h.free(&b).unwrap();
        assert_eq!(h.free_on(1), ByteSize::gib(16));
        let b2 = h.hbw_malloc(ByteSize::gib(16)).unwrap();
        assert_eq!(b2.addr, b.addr);
        assert_eq!(h.free(&b2), Ok(()));
        assert_eq!(h.free(&b2), Err(HeapError::InvalidFree(b2.addr)));
    }

    #[test]
    fn node_of_rejects_gaps_and_foreign_addresses() {
        let h = heap();
        let b = h.malloc(Kind::Default, ByteSize::kib(4)).unwrap();
        assert_eq!(h.node_of(b.addr - 1), None);
        assert_eq!(h.node_of(b.addr + b.size.as_u64()), None);
        assert_eq!(h.node_of(0x10), None);
    }

    #[test]
    fn interleave_kind_spreads_pages() {
        let h = heap();
        let b = h
            .malloc(Kind::Interleave, ByteSize::bytes(16 * PAGE_BYTES))
            .unwrap();
        assert!((h.fraction_on(&b, 0) - 0.5).abs() < 1e-9);
        assert!((h.fraction_on(&b, 1) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn migrate_moves_block_between_nodes() {
        let h = heap();
        let b = h.malloc(Kind::Default, ByteSize::gib(2)).unwrap();
        assert_eq!(h.fraction_on(&b, 0), 1.0);
        let moved = h.migrate(&b, 1).unwrap();
        assert_eq!(moved, ByteSize::gib(2).as_u64() / PAGE_BYTES);
        assert_eq!(h.fraction_on(&b, 1), 1.0);
        assert_eq!(h.node_of(b.addr), Some(1));
        assert_eq!(h.free_on(1), ByteSize::gib(14));
        // Free returns pages to the node they now live on.
        h.free(&b).unwrap();
        assert_eq!(h.free_on(1), ByteSize::gib(16));
        // Migrating a dead block errors.
        assert!(h.migrate(&b, 0).is_err());
    }

    #[test]
    fn regular_kind_never_touches_hbm() {
        let h = heap();
        let b = h.malloc(Kind::Regular, ByteSize::gib(90)).unwrap();
        assert_eq!(h.fraction_on(&b, 0), 1.0);
        // And is strict: 97 GB cannot fit in 96 GB DDR.
        let h2 = heap();
        assert!(h2.malloc(Kind::Regular, ByteSize::gib(97)).is_err());
    }
}
