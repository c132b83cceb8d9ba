//! Replacement policies for set-associative caches.
//!
//! Each policy maintains per-set state sized by associativity and
//! answers two questions: *which way do I victimize?* and *update on
//! touch*. All policies are deterministic given the construction seed.

/// Which replacement policy a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplacementPolicy {
    /// True least-recently-used (exact recency stack).
    Lru,
    /// Tree pseudo-LRU, as implemented by most real L1/L2s.
    PseudoLru,
    /// FIFO (victimize the oldest fill).
    Fifo,
    /// Deterministic pseudo-random (xorshift over set index and clock).
    Random,
}

/// Per-set replacement state.
#[derive(Debug, Clone)]
pub(crate) enum SetState {
    /// LRU / FIFO: order[0] is the next victim.
    Order(Vec<u8>),
    /// Tree PLRU bits (ways must be a power of two).
    Tree(u64),
    /// Random: a per-set xorshift state.
    Rand(u64),
}

/// Replacement engine for one cache (all sets).
#[derive(Debug, Clone)]
pub(crate) struct Replacer {
    policy: ReplacementPolicy,
    ways: u16,
    /// Depth of the PLRU tree: `log2(ways)`.
    levels: u32,
    sets: Vec<SetState>,
}

impl Replacer {
    pub(crate) fn new(policy: ReplacementPolicy, num_sets: u32, ways: u16, seed: u64) -> Self {
        assert!(ways > 0);
        if policy == ReplacementPolicy::PseudoLru {
            assert!(
                ways.is_power_of_two(),
                "tree PLRU requires power-of-two associativity, got {ways}"
            );
        }
        let mk = |set: u32| -> SetState {
            match policy {
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                    SetState::Order((0..ways as u8).collect())
                }
                ReplacementPolicy::PseudoLru => SetState::Tree(0),
                ReplacementPolicy::Random => {
                    // Mix seed and set index thoroughly; xorshift needs a
                    // nonzero state.
                    let mixed = (seed.wrapping_add(1))
                        .wrapping_mul(0x9e3779b97f4a7c15)
                        .wrapping_add((set as u64).wrapping_mul(0xbf58476d1ce4e5b9));
                    SetState::Rand(mixed | 1)
                }
            }
        };
        Replacer {
            policy,
            ways,
            levels: ways.trailing_zeros(),
            sets: (0..num_sets).map(mk).collect(),
        }
    }

    /// Note that `way` in `set` was accessed (hit or fill).
    pub(crate) fn touch(&mut self, set: u32, way: u16) {
        match &mut self.sets[set as usize] {
            SetState::Order(order) => {
                if self.policy == ReplacementPolicy::Lru {
                    // Move to MRU position (end).
                    if let Some(pos) = order.iter().position(|&w| w == way as u8) {
                        let w = order.remove(pos);
                        order.push(w);
                    }
                }
                // FIFO ignores touches.
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
            SetState::Rand(_) => {}
        }
    }

    /// Note that `way` in `set` was filled with a new line.
    pub(crate) fn fill(&mut self, set: u32, way: u16) {
        match &mut self.sets[set as usize] {
            SetState::Order(order) => {
                // Both LRU and FIFO move a fresh fill to MRU position.
                if let Some(pos) = order.iter().position(|&w| w == way as u8) {
                    let w = order.remove(pos);
                    order.push(w);
                }
            }
            _ => self.touch(set, way),
        }
    }

    /// Choose a victim way for `set`.
    pub(crate) fn victim(&mut self, set: u32) -> u16 {
        match &mut self.sets[set as usize] {
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
            SetState::Rand(state) => {
                // xorshift64*
                let mut x = *state;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                *state = x;
                (x.wrapping_mul(0x2545F4914F6CDD1D) >> 32) as u16 % self.ways
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_victimizes_least_recent() {
        let mut r = Replacer::new(ReplacementPolicy::Lru, 1, 4, 0);
        for w in 0..4 {
            r.fill(0, w);
        }
        r.touch(0, 0); // order now 1,2,3,0
        assert_eq!(r.victim(0), 1);
        r.touch(0, 1);
        assert_eq!(r.victim(0), 2);
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut r = Replacer::new(ReplacementPolicy::Fifo, 1, 4, 0);
        for w in 0..4 {
            r.fill(0, w);
        }
        r.touch(0, 0);
        r.touch(0, 0);
        assert_eq!(r.victim(0), 0); // still the oldest fill
    }

    #[test]
    fn plru_never_victimizes_most_recent() {
        let mut r = Replacer::new(ReplacementPolicy::PseudoLru, 1, 8, 0);
        for w in 0..8 {
            r.fill(0, w);
        }
        for touched in 0..8u16 {
            r.touch(0, touched);
            assert_ne!(r.victim(0), touched, "PLRU victimized the way just touched");
        }
    }

    #[test]
    fn plru_requires_pow2_ways() {
        let result =
            std::panic::catch_unwind(|| Replacer::new(ReplacementPolicy::PseudoLru, 1, 6, 0));
        assert!(result.is_err());
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut a = Replacer::new(ReplacementPolicy::Random, 4, 8, 42);
        let mut b = Replacer::new(ReplacementPolicy::Random, 4, 8, 42);
        let va: Vec<u16> = (0..32).map(|i| a.victim(i % 4)).collect();
        let vb: Vec<u16> = (0..32).map(|i| b.victim(i % 4)).collect();
        assert_eq!(va, vb);
        let mut c = Replacer::new(ReplacementPolicy::Random, 4, 8, 43);
        let vc: Vec<u16> = (0..32).map(|i| c.victim(i % 4)).collect();
        assert_ne!(va, vc);
    }

    #[test]
    fn random_victims_cover_all_ways() {
        let mut r = Replacer::new(ReplacementPolicy::Random, 1, 4, 7);
        let mut seen = [false; 4];
        for _ in 0..256 {
            seen[r.victim(0) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "victims {seen:?}");
    }
}
