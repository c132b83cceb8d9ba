//! Replacement policies for set-associative caches.
//!
//! Each policy maintains per-set state sized by associativity and
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

/// Per-set replacement state.
#[derive(Debug, Clone)]
pub(crate) enum SetState {
    /// LRU: order[0] is the next victim.
    Order(Vec<u8>),
    /// Tree PLRU bits (ways must be a power of two).
    Tree(u64),
}

/// Replacement engine for one cache (all sets).
#[derive(Debug, Clone)]
pub(crate) struct Replacer {
    ways: u16,
    /// Depth of the PLRU tree: `log2(ways)`.
    levels: u32,
    sets: Vec<SetState>,
}

impl Replacer {
    pub(crate) fn new(policy: ReplacementPolicy, num_sets: u32, ways: u16) -> Self {
        assert!(ways > 0);
        if policy == ReplacementPolicy::PseudoLru {
            assert!(
                ways.is_power_of_two(),
                "tree PLRU requires power-of-two associativity, got {ways}"
            );
        }
        let state = match policy {
            ReplacementPolicy::Lru => SetState::Order((0..ways as u8).collect()),
            ReplacementPolicy::PseudoLru => SetState::Tree(0),
        };
        Replacer {
            ways,
            levels: ways.trailing_zeros(),
            sets: vec![state; num_sets as usize],
        }
    }

    /// Note that `way` in `set` was accessed (hit or fill).
    pub(crate) fn touch(&mut self, set: u32, way: u16) {
        match &mut self.sets[set as usize] {
            SetState::Order(order) => {
                // Move to MRU position (end).
                if let Some(pos) = order.iter().position(|&w| w == way as u8) {
                    let w = order.remove(pos);
                    order.push(w);
                }
            }
            SetState::Tree(bits) => {
                // Walk from the root; at each level set the bit to point
                // *away* from the touched way.
                let mut node = 0usize; // index within the implicit tree
                let mut lo = 0u16;
                let mut hi = self.ways;
                for _ in 0..self.levels {
                    let mid = (lo + hi) / 2;
                    let go_right = way >= mid;
                    // bit = 1 means "next victim is on the left".
                    if go_right {
                        *bits |= 1 << node;
                    } else {
                        *bits &= !(1 << node);
                    }
                    node = 2 * node + if go_right { 2 } else { 1 };
                    if go_right {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
            }
        }
    }

    /// Choose a victim way for `set`.
    pub(crate) fn victim(&self, set: u32) -> u16 {
        match &self.sets[set as usize] {
            SetState::Order(order) => order[0] as u16,
            SetState::Tree(bits) => {
                let mut node = 0usize;
                let mut lo = 0u16;
                let mut hi = self.ways;
                for _ in 0..self.levels {
                    let mid = (lo + hi) / 2;
                    let go_left = (*bits >> node) & 1 == 1;
                    node = 2 * node + if go_left { 1 } else { 2 };
                    if go_left {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                lo
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
