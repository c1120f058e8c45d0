//! The serving pool survives a panicking job: through the public
//! `ktudc_par::Pool` API only, a job that panics must not take its
//! worker with it, leave `in_flight` stuck, or make `shutdown` fail.

use ktudc_par::Pool;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Generous bound on anything the single worker has to do here.
const PATIENCE: Duration = Duration::from_secs(5);

#[test]
fn a_panicking_job_leaves_its_worker_serving() {
    let pool = Pool::new(1, 4);
    pool.try_execute(|| panic!("a job that panics on purpose"))
        .expect("the queue has room");

    // The one worker must still be there to run the next job.
    let (tx, rx) = mpsc::channel();
    pool.try_execute(move || tx.send(7u32).expect("the test is listening"))
        .expect("the queue has room");
    assert_eq!(
        rx.recv_timeout(PATIENCE),
        Ok(7),
        "the job after a panic never ran"
    );

    // The panicked job is accounted as finished.
    let t0 = Instant::now();
    while pool.stats().in_flight != 0 {
        assert!(
            t0.elapsed() < PATIENCE,
            "in_flight stuck at {:?}",
            pool.stats()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = pool.stats();
    assert_eq!((stats.workers, stats.queued, stats.in_flight), (1, 0, 0));

    // And the drain joins a worker that is still alive.
    pool.shutdown();
}
