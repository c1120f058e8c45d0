//! A bounded worker pool with per-worker deques and work stealing.
//!
//! The `par_map` family in this crate is built for one-shot fork/join over
//! a known work list; a daemon needs the opposite shape — a fixed set of
//! worker threads draining an *open-ended* stream of jobs. [`Pool`]
//! provides that with two properties the service layer relies on:
//!
//! * **Explicit backpressure** — the queue has a hard capacity and
//!   [`Pool::try_execute`] fails fast with [`SubmitError::Full`] instead of
//!   buffering without bound. The caller turns that into a typed
//!   `overloaded` response; the pool never blocks a submitter.
//! * **Draining shutdown** — [`Pool::shutdown`] closes the queue to new
//!   jobs, lets the workers finish everything already accepted (queued and
//!   in flight), and joins them before returning.
//!
//! # Work stealing
//!
//! Jobs land round-robin on **per-worker deques** instead of one shared
//! FIFO. A worker services its own deque LIFO (newest first — the job
//! whose inputs are still cache-warm) and, when its deque runs dry, steals
//! from a sibling's deque FIFO (oldest first — the job that has waited
//! longest and is least likely to be touched by its owner soon). This is
//! the classic deque discipline (Blumofe–Leiserson); it keeps deep, uneven
//! job streams from serializing behind a single queue while preserving the
//! pool's external semantics exactly: every accepted job runs once, and
//! capacity bounds the *total* queued jobs across all deques. Steals are
//! counted and surfaced via [`Pool::stats`] for observability.
//!
//! All deques sit behind one mutex — pool jobs are coarse (an explorer
//! subtree, a serve request), so contention on the lock is dwarfed by job
//! runtime; what stealing buys is *placement*, not lock-freedom.
//!
//! Unlike the `par_map` helpers, the pool always spawns real threads — it
//! exists to serve concurrent callers, so it is independent of the
//! `threads` feature (which only governs the fork/join helpers).
//!
//! A job is the unit of parallelism here: its worker marks itself as one,
//! and the fork/join helpers called from a job run inline on that worker
//! instead of spawning threads of their own (see the crate docs).

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

thread_local! {
    /// Whether this thread is a [`Pool`] worker, so that a fork/join
    /// helper called here is inside a pool job; set once, as it starts.
    pub(crate) static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// A job: any one-shot closure.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why a submission was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; retry later or shed the request.
    Full,
    /// The pool is shutting down and accepts no new work.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full => f.write_str("worker pool queue is full"),
            SubmitError::Closed => f.write_str("worker pool is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A point-in-time snapshot of the pool's load, for stats/health
/// reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Jobs queued across all per-worker deques, not yet started.
    pub queued: usize,
    /// Jobs popped by workers but not yet finished.
    pub in_flight: usize,
    /// Total queued-job capacity.
    pub capacity: usize,
    /// Jobs a worker took from a sibling's deque since the pool started.
    /// A rising count under load means the stealing path is actually
    /// balancing uneven work, not just sitting there.
    pub steals: u64,
    /// The deepest single per-worker deque right now — a skew indicator
    /// (`deepest_queue` far above `queued / workers` means one worker is
    /// a hotspot and siblings will be stealing from it).
    pub deepest_queue: usize,
}

struct PoolState {
    /// One deque per worker. The owner pops its back (LIFO); thieves pop a
    /// victim's front (FIFO). Submissions round-robin across deques.
    queues: Vec<VecDeque<Job>>,
    /// Total jobs across all deques (kept so capacity checks and
    /// `queue_depth` do not scan).
    queued: usize,
    /// Jobs popped but not yet finished, tracked so shutdown can certify a
    /// complete drain.
    in_flight: usize,
    /// Lifetime count of cross-deque steals.
    steals: u64,
    /// Round-robin cursor for submissions.
    next: usize,
    closed: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signaled when a job arrives, a job finishes, or the pool closes.
    signal: Condvar,
}

/// A fixed-size worker pool over bounded per-worker deques with stealing.
pub struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    capacity: usize,
}

impl Pool {
    /// Spawns `workers` threads (at least 1), each with its own deque; the
    /// deques together hold at most `capacity` pending jobs (at least 1).
    #[must_use]
    pub fn new(workers: usize, capacity: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queues: (0..workers).map(|_| VecDeque::new()).collect(),
                queued: 0,
                in_flight: 0,
                steals: 0,
                next: 0,
                closed: false,
            }),
            signal: Condvar::new(),
        });
        let workers = (0..workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, me))
            })
            .collect();
        Pool {
            shared,
            workers,
            capacity: capacity.max(1),
        }
    }

    /// Enqueues a job, failing fast when the queues are at total capacity
    /// or the pool is closed. A job that panics ends there: its worker
    /// lives on and the job counts as finished.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] at capacity, [`SubmitError::Closed`] after
    /// [`Pool::shutdown`] began.
    pub fn try_execute<F>(&self, job: F) -> Result<(), SubmitError>
    where
        F: FnOnce() + Send + 'static,
    {
        let mut state = self.shared.state.lock().expect("pool lock poisoned");
        if state.closed {
            return Err(SubmitError::Closed);
        }
        if state.queued >= self.capacity {
            return Err(SubmitError::Full);
        }
        let slot = state.next % state.queues.len();
        state.next = state.next.wrapping_add(1);
        state.queues[slot].push_back(Box::new(job));
        state.queued += 1;
        drop(state);
        self.shared.signal.notify_one();
        Ok(())
    }

    /// Number of jobs queued (across all deques) but not yet started.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().expect("pool lock poisoned").queued
    }

    /// Number of jobs popped by workers but not yet finished.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("pool lock poisoned")
            .in_flight
    }

    /// The total queue capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lifetime count of cross-deque steals.
    #[must_use]
    pub fn steals(&self) -> u64 {
        self.shared.state.lock().expect("pool lock poisoned").steals
    }

    /// A consistent snapshot of the pool's load (one lock acquisition, so
    /// the fields are mutually coherent, unlike separate accessor calls).
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let state = self.shared.state.lock().expect("pool lock poisoned");
        PoolStats {
            workers: state.queues.len(),
            queued: state.queued,
            in_flight: state.in_flight,
            capacity: self.capacity,
            steals: state.steals,
            deepest_queue: state.queues.iter().map(VecDeque::len).max().unwrap_or(0),
        }
    }

    /// Closes the queue, drains every accepted job (queued and in flight),
    /// and joins the workers. New submissions fail with
    /// [`SubmitError::Closed`] as soon as this is called.
    pub fn shutdown(mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool lock poisoned");
            state.closed = true;
        }
        self.shared.signal.notify_all();
        for w in self.workers.drain(..) {
            w.join().expect("pool worker panicked");
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // A dropped (not shut down) pool still drains: close and join.
        {
            let mut state = self.shared.state.lock().expect("pool lock poisoned");
            state.closed = true;
        }
        self.shared.signal.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, me: usize) {
    ON_WORKER.set(true);
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool lock poisoned");
            loop {
                // Own deque first, newest job first (LIFO).
                if let Some(job) = state.queues[me].pop_back() {
                    state.queued -= 1;
                    state.in_flight += 1;
                    break job;
                }
                // Dry: scan siblings from the next index around, stealing
                // their oldest job (FIFO) so owner and thief stay at
                // opposite ends of the deque.
                let n = state.queues.len();
                let victim = (1..n)
                    .map(|off| (me + off) % n)
                    .find(|&v| !state.queues[v].is_empty());
                if let Some(v) = victim {
                    let job = state.queues[v]
                        .pop_front()
                        .expect("victim checked nonempty");
                    state.queued -= 1;
                    state.in_flight += 1;
                    state.steals += 1;
                    break job;
                }
                if state.closed {
                    return;
                }
                state = shared.signal.wait(state).expect("pool lock poisoned");
            }
        };
        // A panicking job ends itself, not its worker: the panic is
        // reported by the hook and the worker goes on serving, so
        // `in_flight` drains and `shutdown` still joins a live thread.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        let mut state = shared.state.lock().expect("pool lock poisoned");
        state.in_flight -= 1;
        drop(state);
        // Wake shutdown waiters (and idle peers) so drain progress is seen.
        shared.signal.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn runs_every_accepted_job() {
        let pool = Pool::new(4, 64);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let c = Arc::clone(&counter);
            pool.try_execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn rejects_when_full_then_recovers() {
        let pool = Pool::new(1, 1);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        // Occupy the single worker until released.
        pool.try_execute(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        })
        .unwrap();
        started_rx.recv().unwrap();
        assert_eq!(pool.in_flight(), 1);
        // Fill the queue slot, then overflow it.
        pool.try_execute(|| {}).unwrap();
        let overflow = pool.try_execute(|| {});
        assert_eq!(overflow, Err(SubmitError::Full));
        assert_eq!(pool.queue_depth(), 1);
        // After releasing the worker, capacity frees up again.
        release_tx.send(()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if pool.try_execute(|| {}).is_ok() {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "queue never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_and_in_flight_work() {
        let pool = Pool::new(2, 32);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let c = Arc::clone(&counter);
            pool.try_execute(move || {
                std::thread::sleep(Duration::from_millis(2));
                c.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.shutdown();
        // Every job accepted before shutdown completed.
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn closed_pool_rejects_submissions() {
        let pool = Pool::new(1, 4);
        let shared = Arc::clone(&pool.shared);
        pool.shutdown();
        // The pool value is consumed; verify through the shared state that
        // a late submission would be refused.
        assert!(shared.state.lock().unwrap().closed);
    }

    #[test]
    fn idle_workers_steal_a_busy_siblings_backlog() {
        // 4 workers, but every deque except one is starved: submissions
        // round-robin, so park 3 workers on blocking jobs first, then pile
        // quick jobs up. The only way the backlog drains in time is by
        // stealing across deques.
        let pool = Pool::new(4, 64);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        let parked = Arc::new(AtomicUsize::new(0));
        for _ in 0..3 {
            let rx = Arc::clone(&release_rx);
            let parked = Arc::clone(&parked);
            pool.try_execute(move || {
                parked.fetch_add(1, Ordering::SeqCst);
                rx.lock().unwrap().recv().unwrap();
            })
            .unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while parked.load(Ordering::SeqCst) < 3 {
            assert!(std::time::Instant::now() < deadline, "workers never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..40 {
            let d = Arc::clone(&done);
            pool.try_execute(move || {
                d.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        // One free worker, 40 jobs spread over 4 deques: it must steal
        // roughly 3/4 of them from siblings.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while done.load(Ordering::SeqCst) < 40 {
            assert!(
                std::time::Instant::now() < deadline,
                "backlog never drained"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = pool.stats();
        assert!(stats.steals > 0, "draining siblings' deques must steal");
        assert_eq!(stats.workers, 4);
        for _ in 0..3 {
            release_tx.send(()).unwrap();
        }
        pool.shutdown();
    }

    #[test]
    fn stats_snapshot_is_coherent() {
        let pool = Pool::new(2, 8);
        let stats = pool.stats();
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.capacity, 8);
        assert_eq!(stats.queued, 0);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.deepest_queue, 0);
        pool.shutdown();
    }

    #[test]
    fn error_display() {
        assert!(SubmitError::Full.to_string().contains("full"));
        assert!(SubmitError::Closed.to_string().contains("shut down"));
    }
}
