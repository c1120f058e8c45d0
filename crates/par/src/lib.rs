//! Scoped-thread data parallelism for ktudc.
//!
//! rayon cannot be vendored in the offline build, so the hot loops of the
//! explorer and the experiment harness parallelize through this crate
//! instead: ordered `par_map` over owned items, and `par_map_steal` for
//! items of wildly uneven cost.
//!
//! All functions preserve sequential semantics exactly — results are
//! returned in input order and each worker owns a contiguous range — so
//! flipping the `threads` feature (or setting `KTUDC_THREADS=1`) changes
//! wall-clock time only, never output. With the `threads` feature off,
//! every helper runs inline on the calling thread.
//!
//! One rule decides where a fork/join runs: **a job running on a [`Pool`]
//! worker runs every helper inline, on its own thread.** The pool is
//! already the parallelism its jobs get — a server's pool has one worker
//! per core — so fanning a job out again would only oversubscribe the
//! cores and pay a spawn and join per job. Callers outside a pool (e.g. the
//! main thread of an exploration) keep their fan-out. A panic
//! on a fork/join thread reaches the caller with its original payload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;

pub use pool::{Pool, PoolStats, SubmitError};
use std::sync::OnceLock;

/// Worker count: `KTUDC_THREADS` env override if set, else the machine's
/// available parallelism. Always at least 1.
///
/// Resolved on first use and fixed for the life of the process — the
/// environment read and the cgroup probe behind `available_parallelism`
/// cost microseconds, and every `par_map` asks. Set `KTUDC_THREADS`
/// before the process starts, not from inside it.
#[must_use]
pub fn thread_count() -> usize {
    if !cfg!(feature = "threads") {
        return 1;
    }
    static COUNT: OnceLock<usize> = OnceLock::new();
    *COUNT.get_or_init(|| {
        std::env::var("KTUDC_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .map(|n| n.max(1))
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// Threads a fork/join over `len` items runs on: [`thread_count`], at
/// most one per item — and just the caller's own on a [`Pool`] worker,
/// whose pool is already all the parallelism its jobs get.
fn fan_out(len: usize) -> usize {
    if pool::ON_WORKER.get() {
        1
    } else {
        thread_count().min(len)
    }
}

/// Joins a fork/join thread; a panic in it goes on unwinding in the
/// caller with its original payload.
fn join<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    handle
        .join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// Maps `f` over owned `items` in input order, splitting the work across
/// threads when that is enabled and worthwhile.
pub fn par_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let threads = fan_out(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Contiguous chunks, one per worker; concatenating in chunk order
    // restores input order.
    let chunk_len = items.len().div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut rest = items;
    while rest.len() > chunk_len {
        let tail = rest.split_off(chunk_len);
        chunks.push(rest);
        rest = tail;
    }
    chunks.push(rest);
    let f = &f;
    let parts: Vec<Vec<U>> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| s.spawn(move || c.into_iter().map(f).collect::<Vec<U>>()))
            .collect();
        handles.into_iter().map(join).collect()
    });
    parts.into_iter().flatten().collect()
}

/// What a [`par_map_steal`] call did: how many workers ran and how many
/// items were taken from a sibling's share rather than the taker's own.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Worker threads that participated.
    pub workers: usize,
    /// Items a worker claimed from another worker's share. Zero when the
    /// work divided evenly; rising counts mean uneven item costs were
    /// actually rebalanced instead of serializing on the slowest chunk.
    pub steals: u64,
}

/// Like [`par_map`], but with work stealing: items are striped across
/// per-worker deques and an idle worker steals from busy siblings instead
/// of going home early. Results still come back in **input order** and
/// the output is identical to `par_map`'s for any thread count — only the
/// schedule differs.
///
/// Use this instead of [`par_map`] when item costs are wildly uneven
/// (e.g. explorer subtrees, where one subtree can hold most of the run
/// tree): contiguous chunking makes wall-clock time the *sum* of the
/// unluckiest worker's items, stealing makes it track the single largest
/// item. The deques sit behind one mutex — the items this repo feeds here
/// are orders of magnitude coarser than a lock round-trip.
pub fn par_map_steal<T, U, F>(items: Vec<T>, f: F) -> (Vec<U>, StealStats)
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    let workers = fan_out(items.len());
    if workers <= 1 {
        let out: Vec<U> = items.into_iter().map(&f).collect();
        return (
            out,
            StealStats {
                workers: 1,
                steals: 0,
            },
        );
    }
    // Stripe indexed items across per-worker deques: worker w starts with
    // items w, w+workers, w+2·workers, … so early (often larger) items
    // spread across workers instead of all landing on worker 0.
    let mut queues: Vec<VecDeque<(usize, T)>> = (0..workers).map(|_| VecDeque::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        queues[i % workers].push_back((i, item));
    }
    let queues = Mutex::new(queues);
    let steals = AtomicU64::new(0);
    let f = &f;
    let queues = &queues;
    let steals = &steals;
    let mut parts: Vec<Vec<(usize, U)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|me| {
                s.spawn(move || {
                    let mut out: Vec<(usize, U)> = Vec::new();
                    loop {
                        // Claim under the lock, compute outside it.
                        let claimed = {
                            let mut qs = queues.lock().expect("steal-map lock poisoned");
                            if let Some(item) = qs[me].pop_front() {
                                Some(item)
                            } else {
                                let victim = (1..workers)
                                    .map(|off| (me + off) % workers)
                                    .find(|&v| !qs[v].is_empty());
                                victim.map(|v| {
                                    // Steal the victim's *last* item: its
                                    // owner works front-to-back, so the
                                    // back is what it would reach latest.
                                    let item = qs[v].pop_back().expect("victim checked nonempty");
                                    steals.fetch_add(1, Ordering::Relaxed);
                                    item
                                })
                            }
                        };
                        match claimed {
                            Some((i, item)) => out.push((i, f(item))),
                            None => return out,
                        }
                    }
                })
            })
            .collect();
        handles.into_iter().map(join).collect()
    });
    let mut indexed: Vec<(usize, U)> = parts.drain(..).flatten().collect();
    indexed.sort_by_key(|&(i, _)| i);
    (
        indexed.into_iter().map(|(_, u)| u).collect(),
        StealStats {
            workers,
            steals: steals.load(Ordering::Relaxed),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;
    use std::collections::HashSet;
    use std::panic::catch_unwind;
    use std::sync::{mpsc, Mutex};
    use std::thread::ThreadId;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(items.clone(), |x| x * 3);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        assert_eq!(par_map(Vec::<u64>::new(), |x| x), Vec::<u64>::new());
        assert_eq!(par_map(vec![7u64], |x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_steal_matches_par_map_output() {
        let items: Vec<u64> = (0..1017).collect();
        let (out, stats) = par_map_steal(items.clone(), |x| x * 7 + 1);
        assert_eq!(out, items.iter().map(|x| x * 7 + 1).collect::<Vec<_>>());
        assert!(stats.workers >= 1);
        let (empty, _) = par_map_steal(Vec::<u64>::new(), |x| x);
        assert_eq!(empty, Vec::<u64>::new());
        let (one, stats) = par_map_steal(vec![9u64], |x| x + 1);
        assert_eq!(one, vec![10]);
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.steals, 0);
    }

    #[cfg(feature = "threads")]
    #[test]
    fn par_map_steal_rebalances_uneven_items() {
        if thread_count() < 2 {
            return; // single-core host: nothing to steal
        }
        // One item dwarfs the rest; with striping its owner is pinned on
        // it, so every other item on that owner's deque must be stolen.
        let items: Vec<u64> = (0..256).collect();
        let (out, stats) = par_map_steal(items, |x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            x
        });
        assert_eq!(out.len(), 256);
        assert!(
            stats.steals > 0,
            "siblings must steal the pinned worker's backlog"
        );
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    /// The distinct threads that `run`'s `record` callback was called on.
    fn threads_used(run: impl FnOnce(&(dyn Fn() + Sync))) -> HashSet<ThreadId> {
        let seen = Mutex::new(HashSet::new());
        run(&|| {
            seen.lock().unwrap().insert(std::thread::current().id());
        });
        seen.into_inner().unwrap()
    }

    #[test]
    fn pool_jobs_run_every_helper_inline() {
        let pool = Pool::new(2, 4);
        let (tx, rx) = mpsc::channel();
        pool.try_execute(move || {
            let items: Vec<u64> = (0..64).collect();
            let mut stats = StealStats::default();
            let used = [
                threads_used(|record| {
                    par_map(items.clone(), |_| record());
                }),
                threads_used(|record| {
                    stats = par_map_steal(items.clone(), |_| record()).1;
                }),
            ];
            tx.send((std::thread::current().id(), used, stats)).unwrap();
        })
        .unwrap();
        let (job, used, stats) = rx.recv().expect("the job ran");
        pool.shutdown();
        let helpers = ["par_map", "par_map_steal"];
        for (name, used) in helpers.iter().zip(used) {
            assert_eq!(used, HashSet::from([job]), "{name} left the job's thread");
        }
        assert_eq!(
            stats,
            StealStats {
                workers: 1,
                steals: 0
            }
        );
    }

    #[test]
    fn the_main_thread_keeps_its_fan_out() {
        if thread_count() < 2 {
            return; // single-core host or `threads` off: nothing to fan out
        }
        let used = threads_used(|record| {
            par_map((0..64).collect::<Vec<u64>>(), |_| record());
        });
        assert!(used.len() >= 2, "par_map must still fan out");
    }

    /// The message a panic payload carries, whether it was raised with a
    /// literal or a formatted string.
    fn message(payload: &(dyn Any + Send)) -> &str {
        payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("<not a string>")
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        let items: Vec<u64> = (0..64).collect();
        let boom = |x: u64| {
            if x == 7 {
                panic!("boom {x}");
            }
            x
        };
        let payloads = [
            catch_unwind(|| par_map(items.clone(), boom)).unwrap_err(),
            catch_unwind(|| par_map_steal(items.clone(), boom)).unwrap_err(),
        ];
        for payload in &payloads {
            assert_eq!(message(payload.as_ref()), "boom 7");
        }
    }
}
