//! Reference-model tests: the packed branch-free winner tree against
//! the `Option`-keyed tree it replaced, on seeded set/close/reopen
//! streams from the in-tree PRNG.

use simfabric::merge::LoserTree;
use simfabric::prng::Rng;

/// Naive tournament tree: slot-index nodes over an `Option<K>` key
/// array padded with `None` to the leaf count, matched by [`beats`].
///
/// [`beats`]: RefTree::beats
struct RefTree<K> {
    m: usize,
    node: Vec<usize>,
    keys: Vec<Option<K>>,
    slots: usize,
    open: usize,
}

impl<K: Ord + Copy> RefTree<K> {
    fn new(n: usize) -> Self {
        let m = n.next_power_of_two().max(1);
        let mut node = vec![0usize; 2 * m];
        for (i, leaf) in node[m..].iter_mut().enumerate() {
            *leaf = i;
        }
        for j in (1..m).rev() {
            node[j] = node[2 * j].min(node[2 * j + 1]);
        }
        RefTree {
            m,
            node,
            keys: vec![None; m],
            slots: n,
            open: 0,
        }
    }

    fn key(&self, slot: usize) -> Option<K> {
        self.keys[..self.slots][slot]
    }

    fn set(&mut self, slot: usize, key: K) {
        assert!(slot < self.slots);
        if self.keys[slot].is_none() {
            self.open += 1;
        }
        self.keys[slot] = Some(key);
        self.replay(slot);
    }

    fn close(&mut self, slot: usize) {
        assert!(slot < self.slots);
        if self.keys[slot].take().is_some() {
            self.open -= 1;
        }
        self.replay(slot);
    }

    fn winner(&self) -> Option<usize> {
        let w = self.node[1];
        self.keys[w].map(|_| w)
    }

    fn replay(&mut self, slot: usize) {
        let mut j = (self.m + slot) >> 1;
        while j >= 1 {
            let (a, b) = (self.node[2 * j], self.node[2 * j + 1]);
            self.node[j] = if self.beats(a, b) { a } else { b };
            j >>= 1;
        }
    }

    /// Smaller `(key, index)` wins; a closed slot loses to any open
    /// one; between two closed slots the lower index wins.
    fn beats(&self, a: usize, b: usize) -> bool {
        match (&self.keys[a], &self.keys[b]) {
            (Some(ka), Some(kb)) => (ka, a) < (kb, b),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => a < b,
        }
    }
}

/// A key over the whole `u64` range: the extremes, a handful of
/// small values that tie often, values near the top, and uniform
/// draws that set the high bits.
fn key(rng: &mut Rng) -> u64 {
    match rng.gen_range(0..6u32) {
        0 => 0,
        1 => u64::MAX,
        2 => rng.gen_range(0..4u64),
        3 => u64::MAX - rng.gen_range(0..4u64),
        4 => rng.next_u64() | 1 << 63,
        _ => rng.next_u64(),
    }
}

/// Assert the two trees agree on everything the public API shows.
fn assert_same(tree: &LoserTree, reference: &RefTree<u64>, what: &str) {
    assert_eq!(tree.winner(), reference.winner(), "{what}: winner");
    assert_eq!(tree.len(), reference.open, "{what}: len");
    assert_eq!(tree.is_empty(), reference.open == 0, "{what}: is_empty");
    for slot in 0..reference.slots {
        assert_eq!(
            tree.key(slot),
            reference.key(slot),
            "{what}: key of slot {slot}"
        );
    }
}

/// `LoserTree` reproduces the reference tree's winner, open count and
/// per-slot keys after every operation of a seeded stream of sets,
/// key updates, closes, reopens and whole-tree closes, at slot counts
/// on both sides of a power of two.
#[test]
fn winner_tree_matches_reference() {
    let mut rng = Rng::seed_from_u64(0x7ee5_0018);
    for n in [1usize, 2, 3, 63, 64, 65] {
        assert_eq!(LoserTree::new(n).slots(), n);
        for case in 0..4 {
            let mut tree = LoserTree::new(n);
            let mut reference = RefTree::new(n);
            assert_same(&tree, &reference, &format!("n={n} case {case} new"));
            for op in 0..4_000 {
                let slot = rng.gen_range(0..n as u64) as usize;
                match rng.gen_range(0..100u32) {
                    // Close every slot, then reopen a few with one
                    // shared key (all-closed roots and full ties).
                    0 => {
                        for s in 0..n {
                            tree.close(s);
                            reference.close(s);
                        }
                        assert_same(&tree, &reference, &format!("n={n} case {case} op {op}"));
                        let k = key(&mut rng);
                        for s in (0..n).filter(|_| rng.gen_bool(0.3)) {
                            tree.set(s, k);
                            reference.set(s, k);
                        }
                    }
                    1..=24 => {
                        tree.close(slot);
                        reference.close(slot);
                    }
                    _ => {
                        let k = key(&mut rng);
                        tree.set(slot, k);
                        reference.set(slot, k);
                    }
                }
                assert_same(&tree, &reference, &format!("n={n} case {case} op {op}"));
            }
        }
    }
}

/// A merge drained through both trees pops the same `(key, slot)`
/// sequence, with keys drawn across the whole `u64` range and clocks
/// that only move forward, as in a replay.
#[test]
fn drained_merge_matches_reference() {
    let mut rng = Rng::seed_from_u64(0x7ee5_0019);
    for n in [1usize, 2, 3, 63, 64, 65] {
        let mut tree = LoserTree::new(n);
        let mut reference = RefTree::new(n);
        let mut left = vec![0u32; n];
        for (s, left) in left.iter_mut().enumerate() {
            *left = rng.gen_range(0..200u32);
            if *left > 0 {
                let k = key(&mut rng) >> 8;
                tree.set(s, k);
                reference.set(s, k);
            }
        }
        let total: u32 = left.iter().sum();
        let mut popped = 0u32;
        while let Some(s) = tree.winner() {
            assert_eq!(Some(s), reference.winner(), "n={n} pop {popped}");
            let k = tree.key(s).expect("winner is open");
            left[s] -= 1;
            if left[s] == 0 {
                tree.close(s);
                reference.close(s);
            } else {
                let next = k.saturating_add(rng.gen_range(0..3u64));
                tree.set(s, next);
                reference.set(s, next);
            }
            popped += 1;
        }
        assert_eq!(reference.winner(), None, "n={n}");
        assert_eq!(popped, total, "n={n}: every access popped once");
    }
}
