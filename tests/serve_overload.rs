//! Overload soak of the `ktudc-serve` daemon: a deliberately tiny server
//! (one worker, short queue, adaptive admission armed) is saturated from
//! several connections at once, with a mix of plain, deadline-carrying,
//! and partial-accepting requests.
//!
//! The degradation contract under test:
//!
//! * **No hangs, no silent drops** — every submitted request resolves to
//!   a successful payload, a typed [`ErrorCode::Overloaded`] or
//!   [`ErrorCode::DeadlineExceeded`] shed, or a typed
//!   [`ResponseKind::Aborted`] partial. Nothing else, ever.
//! * **Typed sheds are accounted** — the server's shed counters equal
//!   the sheds clients observed (no retry layer in this test, so the
//!   counts must match exactly).
//! * **Admitted work stays fast** — the p99 of admitted requests stays
//!   within a small factor of the uncontended p99 (with an absolute
//!   floor so scheduler noise on tiny boxes cannot flake the build).
//! * **Nothing wedges** — after the storm the watchdog reports zero
//!   stuck workers and the queue drains to empty.

use ktudc::core::harness::{CellSpec, FdChoice, ProtocolChoice};
use ktudc::model::AbortReason;
use ktudc::sim::{run_explore_spec, ExploreSpec, WireProtocol};
use ktudc_serve::{
    serve, Call, Client, ErrorCode, RequestKind, RequestOptions, Response, ResponseKind,
    ServeConfig, ServerCall,
};
use std::net::SocketAddr;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// One worker and a short queue: saturation is reached with a handful of
/// clients, and the AIMD controller plus deadline estimator do the
/// shedding instead of an unbounded backlog.
fn overload_server() -> (ktudc_serve::ServerHandle, SocketAddr) {
    let handle = serve(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 4,
        cache_capacity: 256,
        target_p99_ms: 50,
        watchdog_tick_ms: 5,
        stuck_after_ticks: 400,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr();
    (handle, addr)
}

/// A cheap cell, distinct per `i` so the cache cannot absorb the load.
fn cell(i: usize) -> CellSpec {
    CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable)
        .trials(2)
        .horizon(100 + (i as u64))
}

/// An exploration demonstrably too large for the millisecond-scale
/// deadlines below: the horizon is grown (once, then memoized) until the
/// *uninterrupted* walk takes ≥ 50 ms on this machine, so a 2 ms budget
/// is guaranteed to trip whatever the host's speed.
fn big_exploration() -> ExploreSpec {
    static SPEC: OnceLock<ExploreSpec> = OnceLock::new();
    SPEC.get_or_init(|| {
        for horizon in 6..=30 {
            let mut spec = ExploreSpec::new(3, horizon);
            spec.protocol = WireProtocol::OneShot {
                from: 0,
                to: 1,
                msg: 7,
            };
            let started = Instant::now();
            run_explore_spec(&spec).expect("valid spec");
            if started.elapsed() >= Duration::from_millis(50) {
                return spec;
            }
        }
        panic!("no horizon produced a 50ms exploration");
    })
    .clone()
}

/// Polls `health` until queued and in-flight work drain (workers finish
/// strictly after their response line is written, so a client that has
/// every response can still observe the last job as in flight).
fn await_drained(client: &mut Client) -> ktudc_serve::HealthReport {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let health = client.health().expect("health");
        if (health.in_flight == 0 && health.queue_depth == 0) || Instant::now() >= deadline {
            return health;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Classifies a response under the degradation contract; panics on
/// anything outside it. Returns the shed code observed, if any.
fn classify(response: &Response) -> Option<ErrorCode> {
    match &response.result {
        ResponseKind::Cell(_) | ResponseKind::Explore(_) | ResponseKind::Check(_) => None,
        ResponseKind::Aborted(aborted) => {
            assert_eq!(
                aborted.reason,
                AbortReason::Deadline,
                "the only budgets armed in this test are deadlines"
            );
            None
        }
        ResponseKind::Error(e) => match e.code {
            ErrorCode::Overloaded | ErrorCode::DeadlineExceeded => {
                assert!(
                    e.retry_after_ms > 0,
                    "a shed must carry a retry hint: {e:?}"
                );
                Some(e.code)
            }
            other => panic!("untyped degradation: {other:?}: {}", e.message),
        },
        other => panic!("unexpected payload under overload: {other:?}"),
    }
}

fn p99(mut micros: Vec<u64>) -> u64 {
    assert!(!micros.is_empty());
    micros.sort_unstable();
    micros[(micros.len() - 1) * 99 / 100]
}

#[test]
fn saturation_sheds_typed_and_admitted_requests_stay_fast() {
    let (handle, addr) = overload_server();

    // Uncontended baseline: distinct cells, one at a time.
    let mut probe = Client::connect(addr).expect("connect");
    let uncontended: Vec<u64> = (0..8)
        .map(|i| {
            probe
                .request(RequestKind::Cell(cell(1000 + i)))
                .expect("uncontended request")
                .micros
        })
        .collect();
    let uncontended_p99 = p99(uncontended);

    // The storm: parallel connections, each pipelining a batch that
    // mixes plain requests, tight deadlines, and partial acceptance.
    const THREADS: usize = 4;
    const PER_THREAD: usize = 12;
    let stormers: Vec<_> = (0..THREADS)
        .map(|thread| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let kinds: Vec<(RequestKind, RequestOptions)> = (0..PER_THREAD)
                    .map(|i| {
                        let id = thread * PER_THREAD + i;
                        match i % 3 {
                            // Plain v2-style request: may be admitted or
                            // shed Overloaded by the AIMD gate.
                            0 => (RequestKind::Cell(cell(id)), RequestOptions::default()),
                            // Deadline-carrying: may be shed up front,
                            // aborted at the deadline, or completed.
                            1 => (
                                RequestKind::Cell(cell(id)),
                                RequestOptions {
                                    deadline_ms: Some(100),
                                    ..RequestOptions::default()
                                },
                            ),
                            // Hopeless deadline + accept_partial: resolves
                            // as a typed Aborted (or an up-front shed).
                            _ => (
                                RequestKind::Explore(big_exploration()),
                                RequestOptions {
                                    deadline_ms: Some(2),
                                    accept_partial: true,
                                    ..RequestOptions::default()
                                },
                            ),
                        }
                    })
                    .collect();
                let n = kinds.len();
                let responses = client.batch_with_options(kinds).expect("storm batch");
                assert_eq!(responses.len(), n, "a request was lost under overload");
                responses
            })
        })
        .collect();

    let mut admitted_micros = Vec::new();
    let mut observed_overloaded = 0u64;
    let mut observed_deadline = 0u64;
    for stormer in stormers {
        for response in stormer.join().expect("storm thread") {
            match classify(&response) {
                Some(ErrorCode::Overloaded) => observed_overloaded += 1,
                Some(ErrorCode::DeadlineExceeded) => observed_deadline += 1,
                Some(_) => unreachable!("classify only returns shed codes"),
                None => admitted_micros.push(response.micros),
            }
        }
    }

    // Sheds the clients saw are exactly the sheds the server counted.
    let stats = probe.stats().expect("stats");
    assert_eq!(stats.overloaded, observed_overloaded, "{stats:?}");
    assert_eq!(stats.deadline_exceeded, observed_deadline, "{stats:?}");

    // Admission kept the latency of admitted work bounded: within 2× of
    // uncontended p99, with an absolute floor absorbing timer noise and
    // the one-worker queue on slow CI boxes.
    assert!(!admitted_micros.is_empty(), "the storm admitted nothing");
    let admitted_p99 = p99(admitted_micros);
    let bound = (2 * uncontended_p99).max(200_000);
    assert!(
        admitted_p99 <= bound,
        "admitted p99 {admitted_p99}µs exceeds bound {bound}µs (uncontended {uncontended_p99}µs)"
    );

    // The storm is over: nothing is wedged and nothing leaked.
    let health = await_drained(&mut probe);
    assert_eq!(health.stuck_workers, 0, "{health:?}");
    assert_eq!(health.in_flight, 0, "{health:?}");
    assert_eq!(health.queue_depth, 0, "{health:?}");

    handle.shutdown();
    handle.join();
}

#[test]
fn hopeless_deadline_with_accept_partial_is_a_typed_abort() {
    let (handle, addr) = overload_server();
    let mut client = Client::connect(addr).expect("connect");

    // Unloaded server, so the wait estimate admits the request; the
    // in-compute budget then trips at the deadline.
    let response = client
        .batch_with_options(vec![(
            RequestKind::Explore(big_exploration()),
            RequestOptions {
                deadline_ms: Some(2),
                accept_partial: true,
                ..RequestOptions::default()
            },
        )])
        .expect("request")
        .remove(0);
    let ResponseKind::Aborted(aborted) = &response.result else {
        panic!("expected a typed abort, got {:?}", response.result);
    };
    assert_eq!(aborted.reason, AbortReason::Deadline);
    assert!(
        response.compute_ms > 0.0,
        "an aborted compute still reports its timings: {response:?}"
    );
    assert!(!response.cached, "deadline results must never be cached");

    // The same hopeless request without accept_partial is a typed
    // DeadlineExceeded error carrying a retry hint.
    let response = client
        .batch_with_options(vec![(
            RequestKind::Explore(big_exploration()),
            RequestOptions {
                deadline_ms: Some(2),
                ..RequestOptions::default()
            },
        )])
        .expect("request")
        .remove(0);
    let ResponseKind::Error(e) = &response.result else {
        panic!("expected DeadlineExceeded, got {:?}", response.result);
    };
    assert_eq!(e.code, ErrorCode::DeadlineExceeded);
    assert!(e.retry_after_ms > 0);

    // And the abort never poisoned the cache: a fresh unbounded request
    // for the same exploration computes the full answer.
    let full = client
        .request(RequestKind::Explore({
            let mut spec = big_exploration();
            spec.max_runs = 50; // keep the unbounded pass cheap
            spec
        }))
        .expect("full request");
    assert!(matches!(full.result, ResponseKind::Explore(_)));

    handle.shutdown();
    handle.join();
}
