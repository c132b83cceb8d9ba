//! A fast hasher for page-number keys.
//!
//! The page-migration scheduler keys hash maps by page numbers on the
//! trace replay's per-access path. The standard
//! library's SipHash defends against adversarial keys, which these
//! maps never see: every key is a page number the simulator derives
//! from a generated trace. [`PageHasher`] replaces it with a single
//! multiplication, and [`PageMap`] / [`PageSet`] name the maps built
//! on it.
//!
//! Nothing observable may depend on the iteration order of these maps;
//! callers sort before an order can reach an outcome, exactly as they
//! would with a randomly seeded `HashMap`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative (Fibonacci) hash for `u64` page numbers. Collision
/// resistance is not needed; the high half is folded down because the
/// map indexes buckets by the low bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PageHasher hashes u64 page numbers only");
    }

    fn write_u64(&mut self, page: u64) {
        let h = page.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by page number.
pub type PageMap<V> = HashMap<u64, V, BuildHasherDefault<PageHasher>>;

/// A set of page numbers.
pub type PageSet = HashSet<u64, BuildHasherDefault<PageHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_collections_behave_like_std_ones() {
        let mut m: PageMap<u32> = PageMap::default();
        let mut s = PageSet::default();
        for p in 0..10_000u64 {
            *m.entry(p % 1_000).or_insert(0) += 1;
            s.insert(p * 4096);
        }
        assert_eq!(m.len(), 1_000);
        assert!(m.values().all(|&n| n == 10));
        assert_eq!(s.len(), 10_000);
        assert!(s.contains(&(9_999 * 4096)) && !s.contains(&1));
    }

    #[test]
    fn consecutive_pages_spread_over_low_bits() {
        // Buckets are picked by the low bits of the hash, so a run of
        // consecutive page numbers must not collapse onto a few.
        let low: PageSet = (0..256u64)
            .map(|p| {
                let mut h = PageHasher::default();
                h.write_u64(p);
                h.finish() & 0xff
            })
            .collect();
        assert!(low.len() > 128, "{} distinct low bytes", low.len());
    }
}
