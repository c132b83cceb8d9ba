//! Virtual-address arena: a first-fit free-list allocator with
//! coalescing.
//!
//! The heap hands every allocation a stable virtual range so that
//! workloads can emit address traces against it. Addresses are always
//! page-aligned; the arena never reuses a range while it is live.

use numamem::system::PAGE_BYTES;
use std::collections::BTreeMap;

/// A page-aligned virtual-address allocator over `[base, base+span)`.
#[derive(Debug, Clone)]
pub struct Arena {
    /// Free extents: start → length (bytes), non-adjacent, sorted.
    free: BTreeMap<u64, u64>,
    /// Live extents: start → length.
    live: BTreeMap<u64, u64>,
}

impl Arena {
    /// Create an arena covering `span` bytes starting at `base`
    /// (both page-aligned).
    pub fn new(base: u64, span: u64) -> Self {
        assert_eq!(base % PAGE_BYTES, 0, "base must be page-aligned");
        assert_eq!(span % PAGE_BYTES, 0, "span must be page-aligned");
        assert!(span > 0);
        let mut free = BTreeMap::new();
        free.insert(base, span);
        Arena {
            free,
            live: BTreeMap::new(),
        }
    }

    /// Bytes currently allocated.
    pub fn live_bytes(&self) -> u64 {
        self.live.values().sum()
    }

    /// Bytes currently free (possibly fragmented).
    pub fn free_bytes(&self) -> u64 {
        self.free.values().sum()
    }

    /// Allocate `size` bytes (rounded up to whole pages); first fit.
    /// Returns the start address, or `None` if no extent fits.
    pub fn alloc(&mut self, size: u64) -> Option<u64> {
        let size = size.div_ceil(PAGE_BYTES).max(1) * PAGE_BYTES;
        let (&start, &len) = self.free.iter().find(|&(_, &len)| len >= size)?;
        self.free.remove(&start);
        if len > size {
            self.free.insert(start + size, len - size);
        }
        self.live.insert(start, size);
        Some(start)
    }

    /// Free the extent starting at `addr`; coalesces with neighbours.
    ///
    /// # Panics
    /// Panics on a double free or an address that was never allocated —
    /// both are caller bugs the simulator should surface loudly.
    pub fn free(&mut self, addr: u64) {
        let len = self
            .live
            .remove(&addr)
            .unwrap_or_else(|| panic!("free of unallocated address {addr:#x}"));
        let mut start = addr;
        let mut size = len;
        // Coalesce with the predecessor.
        if let Some((&prev_start, &prev_len)) = self.free.range(..addr).next_back() {
            if prev_start + prev_len == addr {
                self.free.remove(&prev_start);
                start = prev_start;
                size += prev_len;
            }
        }
        // Coalesce with the successor.
        if let Some(&next_len) = self.free.get(&(addr + len)) {
            self.free.remove(&(addr + len));
            size += next_len;
        }
        self.free.insert(start, size);
    }

    /// Number of live allocations.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    #[test]
    fn alloc_is_page_aligned_and_first_fit() {
        let mut a = Arena::new(0x1000_0000, 16 * MB);
        let p = a.alloc(100).unwrap();
        assert_eq!(p, 0x1000_0000);
        assert_eq!(p % PAGE_BYTES, 0);
        let q = a.alloc(PAGE_BYTES + 1).unwrap();
        assert_eq!(q, p + PAGE_BYTES);
        assert_eq!(a.live_bytes(), PAGE_BYTES + 2 * PAGE_BYTES);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut a = Arena::new(0, 4 * PAGE_BYTES);
        assert!(a.alloc(4 * PAGE_BYTES).is_some());
        assert!(a.alloc(1).is_none());
    }

    #[test]
    fn free_coalesces_both_sides() {
        let mut a = Arena::new(0, 16 * PAGE_BYTES);
        let x = a.alloc(4 * PAGE_BYTES).unwrap();
        let y = a.alloc(4 * PAGE_BYTES).unwrap();
        let z = a.alloc(4 * PAGE_BYTES).unwrap();
        a.free(x);
        a.free(z);
        // Free: [x..y) and [z..end), 4 + 8 pages; nothing spans both.
        assert_eq!(a.free_bytes(), 12 * PAGE_BYTES);
        let mut probe = a.clone();
        assert!(probe.alloc(9 * PAGE_BYTES).is_none());
        a.free(y);
        // Fully coalesced: one extent covers the whole arena.
        assert_eq!(a.free_bytes(), 16 * PAGE_BYTES);
        assert_eq!(a.alloc(16 * PAGE_BYTES), Some(x));
    }

    #[test]
    fn freed_space_is_reused() {
        let mut a = Arena::new(0, 8 * PAGE_BYTES);
        let x = a.alloc(8 * PAGE_BYTES).unwrap();
        a.free(x);
        let y = a.alloc(2 * PAGE_BYTES).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn fragmentation_blocks_large_allocs() {
        let mut a = Arena::new(0, 8 * PAGE_BYTES);
        let blocks: Vec<u64> = (0..4).map(|_| a.alloc(2 * PAGE_BYTES).unwrap()).collect();
        a.free(blocks[0]);
        a.free(blocks[2]);
        // 4 pages free but split 2+2: a 3-page alloc fails.
        assert_eq!(a.free_bytes(), 4 * PAGE_BYTES);
        assert!(a.alloc(3 * PAGE_BYTES).is_none());
        assert!(a.alloc(2 * PAGE_BYTES).is_some());
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn double_free_panics() {
        let mut a = Arena::new(0, 4 * PAGE_BYTES);
        let x = a.alloc(PAGE_BYTES).unwrap();
        a.free(x);
        a.free(x);
    }

    #[test]
    fn zero_byte_alloc_takes_one_page() {
        let mut a = Arena::new(0, 4 * PAGE_BYTES);
        let x = a.alloc(0).unwrap();
        assert_eq!(a.live_bytes(), PAGE_BYTES);
        a.free(x);
        assert_eq!(a.live_bytes(), 0);
    }
}
