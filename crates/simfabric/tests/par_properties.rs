//! Seeded property tests for `simfabric::par`: every primitive must
//! return the same result no matter the thread-count override —
//! including overrides far beyond the item count, and empty inputs.
//! (Float inputs are integer-valued so sums are exact; the contract is
//! determinism of the *partitioning*, checked bit-for-bit here.)

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
fn par_sum_independent_of_thread_count() {
    for seed in SEEDS {
        let mut rng = Rng::seed_from_u64(seed);
        for len in random_lens(&mut rng) {
            let data: Vec<u64> = (0..len).map(|_| rng.gen_range(0..1 << 20)).collect();
            let serial: f64 = data.iter().map(|&x| x as f64).sum();
            for threads in THREAD_COUNTS {
                let got = par::with_threads(threads, || par::par_sum(len, |i| data[i] as f64));
                assert_eq!(
                    got.to_bits(),
                    serial.to_bits(),
                    "par_sum(len={len}) at {threads} threads, seed {seed:#x}"
                );
            }
        }
    }
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
fn par_chunks_mut_independent_of_thread_count() {
    for seed in SEEDS {
        let mut rng = Rng::seed_from_u64(seed);
        for len in random_lens(&mut rng) {
            let base: Vec<u64> = (0..len).map(|_| rng.gen_range(0..1 << 30)).collect();
            let chunk_len = rng.gen_range(1..20) as usize;
            let apply = |data: &mut [u64]| {
                par::par_chunks_mut(data, chunk_len, |ci, ch| {
                    for (i, x) in ch.iter_mut().enumerate() {
                        *x = x.wrapping_mul(ci as u64 + 1).wrapping_add(i as u64);
                    }
                })
            };
            let mut serial = base.clone();
            par::with_threads(1, || apply(&mut serial));
            for threads in THREAD_COUNTS {
                let mut got = base.clone();
                par::with_threads(threads, || apply(&mut got));
                assert_eq!(
                    got, serial,
                    "par_chunks_mut(len={len}, chunk={chunk_len}) at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn empty_inputs_are_identical_across_thread_counts() {
    for threads in THREAD_COUNTS {
        par::with_threads(threads, || {
            assert_eq!(par::par_sum(0, |_| unreachable!()), 0.0);
            let empty: Vec<u32> = Vec::new();
            assert!(par::par_map(&empty, |_| 1u8).is_empty());
            let mut none: Vec<u8> = Vec::new();
            par::par_chunks_mut(&mut none, 3, |_, _| unreachable!());
        });
    }
}

#[test]
fn more_threads_than_items_is_exact() {
    // 200-thread override over tiny inputs: every element visited once.
    let mut data: Vec<u32> = (0..5).collect();
    par::with_threads(200, || {
        par::par_update(&mut data, |i, x| *x += 10 * i as u32);
        assert_eq!(par::par_sum(3, |i| i as f64), 3.0);
        assert_eq!(par::par_map_range(2, |i| i * i), vec![0, 1]);
    });
    assert_eq!(data, vec![0, 11, 22, 33, 44]);
}
