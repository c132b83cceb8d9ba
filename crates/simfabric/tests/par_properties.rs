//! Seeded property tests for `simfabric::par`: every primitive must
//! return the same result no matter the thread-count override —
//! including overrides far beyond the item count, and empty inputs.
//! The contract is determinism of the *partitioning*, checked
//! bit-for-bit here.

use simfabric::par;
use simfabric::prng::Rng;

const THREAD_COUNTS: [usize; 6] = [1, 2, 3, 5, 8, 200];
const SEEDS: [u64; 4] = [1, 0xBAD5EED, 42, 0xFEED_F00D];

fn random_lens(rng: &mut Rng) -> Vec<usize> {
    let mut lens = vec![0, 1, 2, 7];
    for _ in 0..4 {
        lens.push(rng.gen_range(8..600) as usize);
    }
    lens
}

#[test]
fn par_map_independent_of_thread_count() {
    for seed in SEEDS {
        let mut rng = Rng::seed_from_u64(seed);
        for len in random_lens(&mut rng) {
            let data: Vec<u64> = (0..len).map(|_| rng.gen_range(0..u64::MAX)).collect();
            let serial: Vec<u64> = data.iter().map(|&x| x.rotate_left(7) ^ 0xA5).collect();
            for threads in THREAD_COUNTS {
                let got = par::with_threads(threads, || {
                    par::par_map(&data, |&x| x.rotate_left(7) ^ 0xA5)
                });
                assert_eq!(
                    got, serial,
                    "par_map(len={len}) at {threads} threads, seed {seed:#x}"
                );
            }
        }
    }
}

#[test]
fn empty_inputs_are_identical_across_thread_counts() {
    for threads in THREAD_COUNTS {
        par::with_threads(threads, || {
            let empty: Vec<u32> = Vec::new();
            assert!(par::par_map(&empty, |_| 1u8).is_empty());
        });
    }
}

#[test]
fn more_threads_than_items_is_exact() {
    // 200-thread override over tiny inputs: every element visited once.
    let mut data: Vec<u32> = (0..5).collect();
    par::with_threads(200, || {
        par::par_update(&mut data, |i, x| *x += 10 * i as u32);
    });
    assert_eq!(data, vec![0, 11, 22, 33, 44]);
}
