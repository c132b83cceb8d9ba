//! In-tree data parallelism over `std::thread::scope`.
//!
//! Replaces the `rayon` dependency for the handful of shapes the
//! testbed actually uses: element-wise updates over slices, chunked
//! owner-computes loops, parallel reductions, and ordered map /
//! flat-map. Work is split into one contiguous range per worker, so
//! results are deterministic regardless of scheduling.
//!
//! Every worker count in the workspace comes from [`num_threads`]: the
//! innermost [`with_threads`] scope on the calling thread, otherwise
//! the machine's available parallelism (which on Linux honours
//! `taskset` and cgroup CPU limits). A caller that needs a specific
//! parallelism level (the native measurement harness, the equivalence
//! suites) wraps its region in [`with_threads`].

use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Condvar, Mutex};
use std::thread;

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Worker count for parallel regions started from this thread: the
/// innermost [`with_threads`] override, or the machine's available
/// parallelism.
pub fn num_threads() -> usize {
    THREAD_OVERRIDE
        .with(|o| o.get())
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Run `f` with parallel regions on this thread capped at `threads`
/// workers (the stand-in for installing a sized rayon pool).
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let threads = threads.max(1);
    THREAD_OVERRIDE.with(|o| {
        let prev = o.replace(Some(threads));
        let out = f();
        o.set(prev);
        out
    })
}

/// Split `0..len` into at most `workers` contiguous ranges covering it.
fn split_ranges(len: usize, workers: usize) -> Vec<Range<usize>> {
    let workers = workers.clamp(1, len.max(1));
    let chunk = len.div_ceil(workers);
    (0..len)
        .step_by(chunk.max(1))
        .map(|start| start..(start + chunk).min(len))
        .collect()
}

/// Run `f` over contiguous sub-ranges of `0..len` on scoped threads;
/// per-range results come back in range order.
fn run_ranges<R: Send>(len: usize, f: impl Fn(Range<usize>) -> R + Sync) -> Vec<R> {
    let ranges = split_ranges(len, num_threads());
    if ranges.len() <= 1 {
        return ranges.into_iter().map(f).collect();
    }
    thread::scope(|s| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|r| {
                let f = &f;
                s.spawn(move || f(r))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// `data[i] = f(i, data[i])` in parallel (the `par_iter_mut` shape).
pub fn par_update<T: Send>(data: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
    let len = data.len();
    let workers = num_threads().clamp(1, len.max(1));
    let chunk = len.div_ceil(workers).max(1);
    if workers <= 1 || len <= 1 {
        for (i, x) in data.iter_mut().enumerate() {
            f(i, x);
        }
        return;
    }
    thread::scope(|s| {
        for (w, ch) in data.chunks_mut(chunk).enumerate() {
            let f = &f;
            s.spawn(move || {
                let base = w * chunk;
                for (i, x) in ch.iter_mut().enumerate() {
                    f(base + i, x);
                }
            });
        }
    });
}

/// Run `f(chunk_index, chunk)` over `chunk_len`-sized pieces of `data`
/// in parallel (the `par_chunks_mut` shape). Chunks are handed to a
/// bounded worker set through a shared queue, so a long slice never
/// spawns more than [`num_threads`] threads.
pub fn par_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(chunk_len > 0, "par_chunks_mut: zero chunk length");
    let mut chunks: Vec<(usize, &mut [T])> = data.chunks_mut(chunk_len).enumerate().collect();
    let workers = num_threads().clamp(1, chunks.len().max(1));
    if workers <= 1 {
        for (i, ch) in chunks {
            f(i, ch);
        }
        return;
    }
    let queue = Mutex::new(chunks.drain(..).collect::<Vec<_>>());
    thread::scope(|s| {
        for _ in 0..workers {
            let (queue, f) = (&queue, &f);
            s.spawn(move || loop {
                let item = queue.lock().unwrap().pop();
                match item {
                    Some((i, ch)) => f(i, ch),
                    None => break,
                }
            });
        }
    });
}

/// Occupancy and stall telemetry for one [`pipelined`] run, collected
/// for free under the channel mutex (one integer bump per blocking
/// episode / enqueue — never per element).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipeStats {
    /// Times the producer blocked on a full queue (consumer-bound
    /// pipeline: production outpaces consumption).
    pub producer_stalls: u64,
    /// Times the consumer blocked on an empty queue (producer-bound
    /// pipeline: consumption outpaces production).
    pub consumer_stalls: u64,
    /// High-water mark of queued chunks (≤ the configured depth).
    pub queue_high_water: usize,
}

/// Shared state of the bounded [`pipelined`] channel.
struct PipeState<T> {
    queue: VecDeque<T>,
    producer_done: bool,
    consumer_gone: bool,
    stats: PipeStats,
}

struct Pipe<T> {
    state: Mutex<PipeState<T>>,
    /// Signalled when the queue gains an item or the producer finishes.
    filled: Condvar,
    /// Signalled when the queue loses an item or the consumer leaves.
    drained: Condvar,
    depth: usize,
}

/// Marks the producer finished when dropped.
struct ProducerDone<'a, T>(&'a Pipe<T>);

impl<T> Drop for ProducerDone<'_, T> {
    fn drop(&mut self) {
        // A poisoned lock still guards a consistent queue: no producer
        // code panics while holding it.
        let mut st = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
        st.producer_done = true;
        self.0.filled.notify_one();
    }
}

/// Consumer handle passed to the `consume` closure of [`pipelined`]:
/// call [`recv`](ChunkReceiver::recv) until it returns `None`.
///
/// Dropping the receiver early (consumer returns or panics before the
/// stream ends) releases a producer blocked on a full queue, so the
/// pipeline can never deadlock on early exit.
pub struct ChunkReceiver<'a, T> {
    pipe: &'a Pipe<T>,
}

impl<T> ChunkReceiver<'_, T> {
    /// Next item in production order, or `None` once the producer is
    /// done and the queue is drained. Blocks while the queue is empty
    /// and the producer is still running.
    pub fn recv(&mut self) -> Option<T> {
        let mut st = self.pipe.state.lock().unwrap();
        let mut blocked = false;
        loop {
            if let Some(item) = st.queue.pop_front() {
                self.pipe.drained.notify_one();
                return Some(item);
            }
            if st.producer_done {
                return None;
            }
            if !blocked {
                // One stall per blocking episode, not per wakeup.
                blocked = true;
                st.stats.consumer_stalls += 1;
            }
            st = self.pipe.filled.wait(st).unwrap();
        }
    }
}

impl<T> Drop for ChunkReceiver<'_, T> {
    fn drop(&mut self) {
        let mut st = self.pipe.state.lock().unwrap();
        st.consumer_gone = true;
        st.queue.clear();
        self.pipe.drained.notify_one();
    }
}

/// Overlap production and consumption of a chunk stream on two threads
/// through a bounded queue of `depth` slots (the double-buffering
/// shape at `depth == 2`).
///
/// `produce` runs on a scoped worker thread and is polled until it
/// returns `None`; each `Some(chunk)` is enqueued, blocking while the
/// queue is full. `consume` runs on the calling thread (it may borrow
/// the caller's state mutably) and pulls chunks in production order
/// via [`ChunkReceiver::recv`].
///
/// With `depth == 0` or on a stream the consumer abandons early, the
/// pipeline still terminates: depth is clamped to 1, and dropping the
/// receiver unblocks and cancels the producer.
pub fn pipelined<T: Send, R>(
    depth: usize,
    produce: impl FnMut() -> Option<T> + Send,
    consume: impl FnOnce(&mut ChunkReceiver<'_, T>) -> R,
) -> R {
    pipelined_stats(depth, produce, consume).0
}

/// [`pipelined`], additionally returning the channel's [`PipeStats`]
/// (producer/consumer stall counts and the queue high-water mark) so
/// callers can tell which side of the pipeline bounds throughput.
pub fn pipelined_stats<T: Send, R>(
    depth: usize,
    mut produce: impl FnMut() -> Option<T> + Send,
    consume: impl FnOnce(&mut ChunkReceiver<'_, T>) -> R,
) -> (R, PipeStats) {
    let pipe = Pipe {
        state: Mutex::new(PipeState {
            queue: VecDeque::new(),
            producer_done: false,
            consumer_gone: false,
            stats: PipeStats::default(),
        }),
        filled: Condvar::new(),
        drained: Condvar::new(),
        depth: depth.max(1),
    };
    let out = thread::scope(|s| {
        let pipe = &pipe;
        s.spawn(move || {
            // Ends the stream however the producer exits — a panic in
            // `produce` included — so the consumer drains and returns
            // instead of waiting forever; the scope re-raises the panic.
            let _done = ProducerDone(pipe);
            loop {
                let item = match produce() {
                    Some(item) => item,
                    None => break,
                };
                let mut st = pipe.state.lock().unwrap();
                if st.queue.len() >= pipe.depth && !st.consumer_gone {
                    st.stats.producer_stalls += 1;
                }
                while st.queue.len() >= pipe.depth && !st.consumer_gone {
                    st = pipe.drained.wait(st).unwrap();
                }
                if st.consumer_gone {
                    return;
                }
                st.queue.push_back(item);
                st.stats.queue_high_water = st.stats.queue_high_water.max(st.queue.len());
                pipe.filled.notify_one();
            }
        });
        let mut rx = ChunkReceiver { pipe };
        consume(&mut rx)
    });
    let stats = pipe.state.into_inner().unwrap().stats;
    (out, stats)
}

/// Ordered parallel map over `items` through a bounded worker pool
/// pulling from a shared index queue. Unlike [`par_map`], which hands
/// each worker one contiguous range, workers here claim items one at
/// a time — the right shape when per-item cost varies wildly (a query
/// engine's cache misses, say) and a contiguous split would leave
/// most workers idle behind the slowest range. Results come back in
/// item order regardless of which worker computed what.
///
/// `workers` is clamped to `[1, items.len()]`; a single worker (or a
/// single item) runs inline on the calling thread. Worker threads are
/// fresh, so the caller's [`num_threads`] is carried into each of them:
/// parallel regions inside `f` see the caller's [`with_threads`] scope
/// on every worker, as they would inline.
pub fn par_queued<T: Sync, U: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(usize, &T) -> U + Sync,
) -> Vec<U> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let workers = workers.clamp(1, items.len().max(1));
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let threads = num_threads();
    let next = AtomicUsize::new(0);
    let mut labelled: Vec<(usize, U)> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, f) = (&next, &f);
                s.spawn(move || {
                    with_threads(threads, || {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            out.push((i, f(i, &items[i])));
                        }
                        out
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    labelled.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(labelled.len(), items.len());
    labelled.into_iter().map(|(_, u)| u).collect()
}

/// Parallel sum of `f(i)` for `i in 0..len`.
pub fn par_sum(len: usize, f: impl Fn(usize) -> f64 + Sync) -> f64 {
    run_ranges(len, |r| r.map(&f).sum::<f64>())
        .into_iter()
        .sum()
}

/// Parallel ordered map over a slice.
pub fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let nested = run_ranges(items.len(), |r| items[r].iter().map(&f).collect::<Vec<U>>());
    nested.into_iter().flatten().collect()
}

/// Parallel ordered map over an index range.
pub fn par_map_range<U: Send>(n: usize, f: impl Fn(usize) -> U + Sync) -> Vec<U> {
    run_ranges(n, |r| r.map(&f).collect::<Vec<U>>())
        .into_iter()
        .flatten()
        .collect()
}

/// Parallel flat-map over a slice: `f` pushes any number of outputs
/// per item; outputs keep item order within and across workers.
pub fn par_flat_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T, &mut Vec<U>) + Sync) -> Vec<U> {
    let nested = run_ranges(items.len(), |r| {
        let mut out = Vec::new();
        for item in &items[r] {
            f(item, &mut out);
        }
        out
    });
    nested.into_iter().flatten().collect()
}

/// Parallel flat-map over an index range.
pub fn par_flat_map_range<U: Send>(n: usize, f: impl Fn(usize, &mut Vec<U>) + Sync) -> Vec<U> {
    let nested = run_ranges(n, |r| {
        let mut out = Vec::new();
        for i in r {
            f(i, &mut out);
        }
        out
    });
    nested.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ranges_cover_exactly() {
        for len in [0usize, 1, 2, 7, 64, 1000] {
            for workers in [1usize, 2, 3, 8, 200] {
                let ranges = split_ranges(len, workers);
                assert!(ranges.len() <= workers.max(1));
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(r.end > r.start);
                    next = r.end;
                }
                assert_eq!(next, len.max(0));
                if len == 0 {
                    assert!(ranges.is_empty());
                }
            }
        }
    }

    #[test]
    fn par_update_matches_serial() {
        let mut a: Vec<u64> = (0..1000).collect();
        par_update(&mut a, |i, x| *x += i as u64);
        assert!(a.iter().enumerate().all(|(i, &x)| x == 2 * i as u64));
    }

    #[test]
    fn par_chunks_mut_visits_every_chunk_once() {
        let mut a = vec![0u32; 103];
        par_chunks_mut(&mut a, 10, |ci, ch| {
            for x in ch.iter_mut() {
                *x += ci as u32 + 1;
            }
        });
        for (i, &x) in a.iter().enumerate() {
            assert_eq!(x, (i / 10) as u32 + 1, "element {i}");
        }
    }

    #[test]
    fn par_sum_matches_serial() {
        let s = par_sum(10_000, |i| i as f64);
        assert_eq!(s, (9999.0 * 10_000.0) / 2.0);
    }

    #[test]
    fn par_map_preserves_order() {
        let v: Vec<usize> = (0..500).collect();
        assert_eq!(
            par_map(&v, |&x| x * 2),
            (0..500).map(|x| x * 2).collect::<Vec<_>>()
        );
        assert_eq!(par_map_range(500, |i| i + 1), (1..=500).collect::<Vec<_>>());
    }

    #[test]
    fn par_flat_map_preserves_order() {
        let v: Vec<usize> = (0..100).collect();
        let out = par_flat_map(&v, |&x, out| {
            if x % 2 == 0 {
                out.push(x);
                out.push(x);
            }
        });
        let expect: Vec<usize> = (0..100)
            .filter(|x| x % 2 == 0)
            .flat_map(|x| [x, x])
            .collect();
        assert_eq!(out, expect);
        assert_eq!(
            par_flat_map_range(10, |i, out| out.push(i * i)),
            (0..10).map(|i| i * i).collect::<Vec<_>>()
        );
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = num_threads();
        with_threads(3, || {
            assert_eq!(num_threads(), 3);
            with_threads(1, || assert_eq!(num_threads(), 1));
            assert_eq!(num_threads(), 3);
        });
        assert_eq!(num_threads(), outer);
    }

    #[test]
    fn pipelined_preserves_production_order() {
        for depth in [0usize, 1, 2, 8] {
            let mut next = 0u32;
            let got = pipelined(
                depth,
                move || {
                    if next < 100 {
                        next += 1;
                        Some(next - 1)
                    } else {
                        None
                    }
                },
                |rx| {
                    let mut out = Vec::new();
                    while let Some(x) = rx.recv() {
                        out.push(x);
                    }
                    out
                },
            );
            assert_eq!(got, (0..100).collect::<Vec<_>>(), "depth {depth}");
        }
    }

    #[test]
    fn pipelined_stats_track_occupancy_and_stalls() {
        // A slow consumer behind a fast producer: the queue fills, so
        // the producer stalls and the high-water mark hits the depth.
        let mut next = 0u32;
        let ((), stats) = pipelined_stats(
            2,
            move || {
                next += 1;
                (next <= 50).then_some(next)
            },
            |rx| {
                while let Some(_x) = rx.recv() {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            },
        );
        assert!(stats.queue_high_water >= 1 && stats.queue_high_water <= 2);
        assert!(stats.producer_stalls > 0, "{stats:?}");
        // An empty stream records nothing but a consumer stall or two.
        let ((), stats) = pipelined_stats(2, || None::<u32>, |rx| while rx.recv().is_some() {});
        assert_eq!(stats.queue_high_water, 0);
        assert_eq!(stats.producer_stalls, 0);
    }

    #[test]
    fn pipelined_empty_stream() {
        let n = pipelined(
            2,
            || None::<u32>,
            |rx| {
                let mut n = 0;
                while rx.recv().is_some() {
                    n += 1;
                }
                n
            },
        );
        assert_eq!(n, 0);
    }

    #[test]
    fn pipelined_consumer_can_exit_early() {
        // The producer has far more chunks than the queue holds; the
        // consumer takes three and leaves. Must not deadlock.
        let mut next = 0u64;
        let got = pipelined(
            2,
            move || {
                next += 1;
                (next <= 1_000).then_some(next)
            },
            |rx| {
                let mut out = Vec::new();
                for _ in 0..3 {
                    out.extend(rx.recv());
                }
                out
            },
        );
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn pipelined_producer_panic_ends_the_stream() {
        // The consumer must see the stream end and return, and the
        // producer's panic must surface — never a consumer blocked
        // forever on an empty queue.
        let mut next = 0u32;
        let seen = std::sync::Mutex::new(Vec::new());
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pipelined(
                2,
                move || {
                    next += 1;
                    assert!(next <= 3, "producer failed");
                    Some(next)
                },
                |rx| {
                    while let Some(x) = rx.recv() {
                        seen.lock().unwrap().push(x);
                    }
                },
            )
        }));
        assert!(out.is_err(), "the producer's panic must propagate");
        assert_eq!(*seen.lock().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn par_queued_preserves_order_and_covers_every_item() {
        let items: Vec<usize> = (0..257).collect();
        for workers in [1usize, 2, 3, 8] {
            let got = par_queued(&items, workers, |i, &x| {
                assert_eq!(i, x);
                x * x
            });
            assert_eq!(
                got,
                (0..257).map(|x| x * x).collect::<Vec<_>>(),
                "workers {workers}"
            );
        }
        assert!(par_queued(&[] as &[u8], 4, |_, _| 0u8).is_empty());
    }

    #[test]
    fn par_queued_workers_inherit_the_callers_thread_count() {
        let items: Vec<usize> = (0..8).collect();
        for workers in [2usize, 4] {
            let seen = with_threads(3, || par_queued(&items, workers, |_, _| num_threads()));
            assert_eq!(seen, vec![3; items.len()], "workers {workers}");
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        let mut empty: Vec<u8> = Vec::new();
        par_update(&mut empty, |_, _| unreachable!());
        assert_eq!(par_sum(0, |_| 1.0), 0.0);
        assert!(par_map_range(0, |i| i).is_empty());
    }
}
