//! Replacement policies for set-associative caches.
//!
//! Each policy keeps flat per-set state sized by associativity and
//! answers two questions: *which way do I victimize?* and *update on
//! touch*. Both policies are deterministic.

/// Which replacement policy a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplacementPolicy {
    /// True least-recently-used (exact recency stack).
    Lru,
    /// Tree pseudo-LRU, as implemented by most real L1/L2s.
    PseudoLru,
}

/// Replacement engine for one cache (all sets), in flat per-set
/// storage.
#[derive(Debug, Clone)]
pub(crate) enum Replacer {
    /// Exact recency stacks: `ways` entries per set, row-major; entry 0
    /// of a set is its next victim, the last its most recent way.
    Lru { ways: usize, order: Vec<u8> },
    /// Tree pseudo-LRU: one word of tree bits per set. Node `n` of the
    /// implicit tree has children `2n + 1` (left) and `2n + 2` (right),
    /// and its bit set means "next victim is on the left". A touch
    /// points every node on the way's path away from it, which is one
    /// AND and one OR with per-way masks computed at construction.
    Plru {
        /// `log2(ways)`: the depth of the tree.
        levels: u32,
        /// Per way: every bit *not* on its root-to-leaf path.
        keep: Vec<u64>,
        /// Per way: the path bits that a touch sets (the nodes where
        /// the path turns right).
        right: Vec<u64>,
        bits: Vec<u64>,
    },
}

impl Replacer {
    pub(crate) fn new(policy: ReplacementPolicy, num_sets: u32, ways: u16) -> Self {
        assert!(ways > 0);
        let sets = num_sets as usize;
        match policy {
            ReplacementPolicy::Lru => {
                assert!(ways <= 256, "LRU ways are stored as u8, got {ways}");
                let order = (0..ways).map(|w| w as u8).collect::<Vec<_>>().repeat(sets);
                Replacer::Lru {
                    ways: ways as usize,
                    order,
                }
            }
            ReplacementPolicy::PseudoLru => {
                assert!(
                    ways.is_power_of_two() && ways <= 64,
                    "tree PLRU requires power-of-two associativity up to 64, got {ways}"
                );
                let levels = ways.trailing_zeros();
                let (mut keep, mut right) = (Vec::new(), Vec::new());
                for way in 0..ways as usize {
                    let (mut path, mut turns, mut node) = (0u64, 0u64, 0usize);
                    for level in (0..levels).rev() {
                        let go_right = (way >> level) & 1;
                        path |= 1 << node;
                        turns |= (go_right as u64) << node;
                        node = 2 * node + 1 + go_right;
                    }
                    keep.push(!path);
                    right.push(turns);
                }
                Replacer::Plru {
                    levels,
                    keep,
                    right,
                    bits: vec![0; sets],
                }
            }
        }
    }

    /// Note that `way` in `set` was accessed (hit or fill).
    #[inline]
    pub(crate) fn touch(&mut self, set: u32, way: u16) {
        match self {
            Replacer::Lru { ways, order } => {
                // Move to MRU position (end).
                let order = &mut order[set as usize * *ways..][..*ways];
                if let Some(pos) = order.iter().position(|&w| w == way as u8) {
                    order[pos..].rotate_left(1);
                }
            }
            Replacer::Plru {
                keep, right, bits, ..
            } => {
                let b = &mut bits[set as usize];
                *b = *b & keep[way as usize] | right[way as usize];
            }
        }
    }

    /// Choose a victim way for `set`.
    #[inline]
    pub(crate) fn victim(&self, set: u32) -> u16 {
        match self {
            Replacer::Lru { ways, order } => order[set as usize * *ways] as u16,
            Replacer::Plru { levels, bits, .. } => {
                // Follow the bits from the root: left child on 1, right
                // on 0. The walk ends on leaf `ways - 1 + victim`.
                let b = bits[set as usize];
                let mut node = 0u64;
                for _ in 0..*levels {
                    node = 2 * node + 2 - (b >> node & 1);
                }
                (node + 1 - (1 << *levels)) as u16
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_victimizes_least_recent() {
        let mut r = Replacer::new(ReplacementPolicy::Lru, 1, 4);
        for w in 0..4 {
            r.touch(0, w);
        }
        r.touch(0, 0); // order now 1,2,3,0
        assert_eq!(r.victim(0), 1);
        r.touch(0, 1);
        assert_eq!(r.victim(0), 2);
    }

    #[test]
    fn plru_never_victimizes_most_recent() {
        let mut r = Replacer::new(ReplacementPolicy::PseudoLru, 1, 8);
        for w in 0..8 {
            r.touch(0, w);
        }
        for touched in 0..8u16 {
            r.touch(0, touched);
            assert_ne!(r.victim(0), touched, "PLRU victimized the way just touched");
        }
    }

    #[test]
    fn plru_requires_pow2_ways() {
        let result = std::panic::catch_unwind(|| Replacer::new(ReplacementPolicy::PseudoLru, 1, 6));
        assert!(result.is_err());
    }
}
