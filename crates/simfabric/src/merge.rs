//! Fixed-size tournament tree for deterministic k-way timing merges.
//!
//! The trace replay engines repeatedly ask "which core has the
//! earliest clock?", advance that core, and update its key. A binary
//! heap answers this with a pop/push pair per access — two O(log k)
//! sift passes plus branchy slot shuffling. The classic alternative
//! from external sorting is a tournament tree: a fixed array of match
//! results over the k sources where replacing one source's key costs a
//! single leaf-to-root replay and selection is O(1).
//!
//! [`LoserTree`] (named for the structure it descends from) is a
//! *winner* tree: every node caches its match's winner, which answers
//! arbitrary single-slot updates (not just champion replacement) with
//! the same one-path replay — the streaming replay path needs that
//! when an empty source receives new work mid-merge. Each node, leaves
//! included, is one packed `u128`:
//!
//! ```text
//! closed << 127 | key << 32 | slot
//! ```
//!
//! A closed slot (and every padding leaf up to the power-of-two leaf
//! count) is `1 << 127 | slot`. Plain integer order on that word is
//! the whole match rule, so a replay level is one compare of the
//! carried winner against its sibling, done on the two `u64` halves
//! and resolved with [`std::hint::select_unpredictable`] into
//! conditional moves. In a merge the popped core rarely stays the
//! winner, so a branch at each level would mispredict about half the
//! time.
//!
//! Ordering contract: the winner is the open slot with the smallest
//! `(key, slot index)` pair, so ties break toward the lower slot —
//! exactly the order `BinaryHeap<Reverse<(u64, usize)>>` pops, which
//! keeps heap-based and tree-based merges bit-identical.

use std::hint::select_unpredictable;

/// Top bit of a node: set when the node's slot is closed, so every
/// open slot compares below every closed one.
const CLOSED: u128 = 1 << 127;

/// A fixed-size k-way selection winner tree over `n` slots keyed by
/// `u64`, with packed `(closed, key, slot)` nodes.
///
/// Slots are *closed* (excluded from selection) until [`set`] assigns
/// them a key; [`close`] excludes them again. [`winner`] returns the
/// open slot with the minimal `(key, slot)` pair in O(1).
///
/// [`set`]: LoserTree::set
/// [`close`]: LoserTree::close
/// [`winner`]: LoserTree::winner
#[derive(Debug, Clone)]
pub struct LoserTree {
    /// Leaf count: `n.next_power_of_two()`, at least 1.
    m: usize,
    /// Packed match results; `node[1]` is the root (overall winner),
    /// `node[m + i]` the leaf for slot `i`. Leaves past `n` are closed
    /// padding and never open.
    node: Vec<u128>,
    /// Slot count `n` (the padding is not a slot).
    slots: usize,
    /// Open-slot count.
    open: usize,
}

impl LoserTree {
    /// Build a tree over `n` slots, all initially closed.
    ///
    /// # Panics
    /// If `n >= 2^32`: a node keeps its slot index in 32 bits.
    pub fn new(n: usize) -> Self {
        assert!(u32::try_from(n).is_ok(), "{n} slots exceed 2^32 - 1");
        let m = n.next_power_of_two().max(1);
        let mut node = vec![0u128; 2 * m];
        for (i, leaf) in node[m..].iter_mut().enumerate() {
            *leaf = CLOSED | i as u128;
        }
        for j in (1..m).rev() {
            node[j] = node[2 * j].min(node[2 * j + 1]);
        }
        LoserTree {
            m,
            node,
            slots: n,
            open: 0,
        }
    }

    /// Number of slots (open or closed).
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of open slots.
    pub fn len(&self) -> usize {
        self.open
    }

    /// Whether every slot is closed.
    pub fn is_empty(&self) -> bool {
        self.open == 0
    }

    /// The key currently assigned to `slot` (`None` when closed).
    pub fn key(&self, slot: usize) -> Option<u64> {
        let w = self.node[self.leaf(slot)];
        (w & CLOSED == 0).then_some((w >> 32) as u64)
    }

    /// Open `slot` with `key`, or update its key if already open, and
    /// replay its matches to the root. O(log n).
    pub fn set(&mut self, slot: usize, key: u64) {
        let leaf = self.leaf(slot);
        self.open += usize::from(self.node[leaf] & CLOSED != 0);
        self.replay(leaf, u128::from(key) << 32 | slot as u128);
    }

    /// Close `slot` (it no longer participates in selection). O(log n).
    pub fn close(&mut self, slot: usize) {
        let leaf = self.leaf(slot);
        self.open -= usize::from(self.node[leaf] & CLOSED == 0);
        self.replay(leaf, CLOSED | slot as u128);
    }

    /// The open slot with the smallest `(key, slot)` pair, or `None`
    /// when every slot is closed. O(1).
    pub fn winner(&self) -> Option<usize> {
        let w = self.node[1];
        (w & CLOSED == 0).then_some(w as u32 as usize)
    }

    /// Node index of `slot`'s leaf.
    fn leaf(&self, slot: usize) -> usize {
        assert!(slot < self.slots, "slot {slot} out of {}", self.slots);
        self.m + slot
    }

    /// Store `word` at leaf `j` and recompute the match results on the
    /// path to the root. Each level keeps the carried winner or takes
    /// its sibling (off-path, so unchanged) by conditional moves: the
    /// word compare is split into `u64` halves because `u128::min` and
    /// plain `if`s compile to a data-dependent jump.
    fn replay(&mut self, mut j: usize, word: u128) {
        self.node[j] = word;
        let (mut hi, mut lo) = ((word >> 64) as u64, word as u64);
        while j > 1 {
            let s = self.node[j ^ 1];
            let (shi, slo) = ((s >> 64) as u64, s as u64);
            let keep = (hi < shi) | ((hi == shi) & (lo < slo));
            hi = select_unpredictable(keep, hi, shi);
            lo = select_unpredictable(keep, lo, slo);
            j >>= 1;
            self.node[j] = u128::from(hi) << 64 | u128::from(lo);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference selection: minimal `(key, slot)` over open slots.
    fn naive_winner(keys: &[Option<u64>]) -> Option<usize> {
        keys.iter()
            .enumerate()
            .filter_map(|(i, k)| k.map(|k| (k, i)))
            .min()
            .map(|(_, i)| i)
    }

    #[test]
    fn single_slot_tree() {
        let mut t: LoserTree = LoserTree::new(1);
        assert_eq!(t.winner(), None);
        t.set(0, 42);
        assert_eq!(t.winner(), Some(0));
        assert_eq!(t.key(0), Some(42));
        t.close(0);
        assert_eq!(t.winner(), None);
        assert!(t.is_empty());
    }

    #[test]
    fn empty_and_all_closed_trees_have_no_winner() {
        let t: LoserTree = LoserTree::new(0);
        assert_eq!(t.winner(), None);
        let mut t: LoserTree = LoserTree::new(5);
        assert_eq!(t.winner(), None);
        t.set(3, 7);
        t.close(3);
        assert_eq!(t.winner(), None);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn equal_keys_tie_break_toward_lower_slot() {
        // The heap the tree replaces popped `Reverse<(key, index)>`, so
        // equal keys must select the lowest index, in every arrival
        // order.
        for order in [[0usize, 1, 2], [2, 1, 0], [1, 2, 0]] {
            let mut t: LoserTree = LoserTree::new(3);
            for &s in &order {
                t.set(s, 100);
            }
            assert_eq!(t.winner(), Some(0), "order {order:?}");
            t.close(0);
            assert_eq!(t.winner(), Some(1));
            t.close(1);
            assert_eq!(t.winner(), Some(2));
        }
    }

    #[test]
    fn non_power_of_two_slot_counts() {
        for n in [1usize, 2, 3, 5, 6, 7, 9, 64, 65] {
            let mut t: LoserTree = LoserTree::new(n);
            for i in 0..n {
                t.set(i, (i as u64 * 37) % 11);
            }
            let keys: Vec<Option<u64>> = (0..n).map(|i| Some((i as u64 * 37) % 11)).collect();
            assert_eq!(t.winner(), naive_winner(&keys), "n={n}");
        }
    }

    #[test]
    fn matches_binary_heap_merge_order() {
        // Drain a synthetic multiway merge both ways; sequences must be
        // identical, including ties and interleaved reopen.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut streams: Vec<Vec<u64>> = vec![
            vec![1, 4, 4, 9],
            vec![1, 2, 9],
            vec![],
            vec![3, 3, 3],
            vec![0, 11],
        ];
        for s in &mut streams {
            s.reverse(); // pop from the back
        }

        let mut heap_order = Vec::new();
        {
            let mut streams = streams.clone();
            let mut heap: BinaryHeap<Reverse<(u64, usize)>> = streams
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.is_empty())
                .map(|(i, s)| Reverse((*s.last().unwrap(), i)))
                .collect();
            while let Some(Reverse((k, i))) = heap.pop() {
                heap_order.push((k, i));
                streams[i].pop();
                if let Some(&next) = streams[i].last() {
                    heap.push(Reverse((next, i)));
                }
            }
        }

        let mut tree_order = Vec::new();
        {
            let mut t: LoserTree = LoserTree::new(streams.len());
            for (i, s) in streams.iter().enumerate() {
                if let Some(&k) = s.last() {
                    t.set(i, k);
                }
            }
            while let Some(i) = t.winner() {
                let k = streams[i].pop().unwrap();
                tree_order.push((k, i));
                match streams[i].last() {
                    Some(&next) => t.set(i, next),
                    None => t.close(i),
                }
            }
        }
        assert_eq!(tree_order, heap_order);
    }

    #[test]
    fn reopening_a_closed_slot_mid_merge() {
        // The streaming replay closes a drained core and reopens it when
        // a later chunk delivers more work; selection must stay exact.
        let mut t: LoserTree = LoserTree::new(4);
        t.set(0, 10);
        t.set(1, 20);
        assert_eq!(t.winner(), Some(0));
        t.close(0);
        assert_eq!(t.winner(), Some(1));
        t.set(0, 15); // reopened with a key between the others
        assert_eq!(t.winner(), Some(0));
        t.set(2, 5);
        assert_eq!(t.winner(), Some(2));
        t.close(2);
        t.close(0);
        t.close(1);
        assert_eq!(t.winner(), None);
    }

    #[test]
    fn empty_shards_at_construction_never_win() {
        // A tiny trace at many workers leaves some cores with zero
        // accesses: those slots are never `set`, and the merge must
        // behave as if they did not exist — in every tree size,
        // including the n=1 tree whose replay loop body never runs.
        for n in [1usize, 2, 3, 8, 9] {
            let mut t: LoserTree = LoserTree::new(n);
            assert_eq!(t.winner(), None, "n={n} with all shards empty");
            // Open only the last slot (worst case for the tie-break
            // padding: every virtual sibling must lose to it).
            t.set(n - 1, 7);
            assert_eq!(t.winner(), Some(n - 1), "n={n}");
            assert_eq!(t.len(), 1);
            t.close(n - 1);
            assert_eq!(t.winner(), None);
        }
    }

    #[test]
    fn zero_and_one_element_shards_merge_correctly() {
        // Shard lengths 0 and 1 mixed with longer ones: the drained
        // sequence must equal the globally sorted-by-(key, slot) order.
        let shards: Vec<Vec<u64>> = vec![vec![], vec![5], vec![], vec![1, 9], vec![5], vec![]];
        let mut cursors = vec![0usize; shards.len()];
        let mut t: LoserTree = LoserTree::new(shards.len());
        for (i, s) in shards.iter().enumerate() {
            if let Some(&k) = s.first() {
                t.set(i, k);
            }
        }
        assert_eq!(t.len(), 3, "only non-empty shards are open");
        let mut drained = Vec::new();
        while let Some(i) = t.winner() {
            drained.push((shards[i][cursors[i]], i));
            cursors[i] += 1;
            match shards[i].get(cursors[i]) {
                Some(&k) => t.set(i, k),
                None => t.close(i),
            }
        }
        assert_eq!(drained, vec![(1, 3), (5, 1), (5, 4), (9, 3)]);
        let mut expect = drained.clone();
        expect.sort();
        assert_eq!(drained, expect);
    }

    #[test]
    fn randomized_against_naive_selection() {
        // Seeded stress: random set/close operations, winner always
        // equals the naive minimum.
        let mut rng = crate::prng::Rng::seed_from_u64(0xCAFE);
        for n in [1usize, 3, 8, 17] {
            let mut t: LoserTree = LoserTree::new(n);
            let mut keys: Vec<Option<u64>> = vec![None; n];
            for _ in 0..2_000 {
                let slot = rng.gen_range(0..n as u64) as usize;
                if rng.gen_bool(0.3) {
                    t.close(slot);
                    keys[slot] = None;
                } else {
                    let k = rng.gen_range(0..50);
                    t.set(slot, k);
                    keys[slot] = Some(k);
                }
                assert_eq!(t.winner(), naive_winner(&keys));
                assert_eq!(t.len(), keys.iter().flatten().count());
            }
        }
    }
}
