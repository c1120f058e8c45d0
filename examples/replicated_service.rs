//! The paper's motivating scenario (§1) as a *service*: a replicated,
//! fault-tolerant system whose members execute client operations, where
//! **UDC** guarantees non-repudiation — if any member executed an
//! operation, every correct member did too, so failures stay masked from
//! clients.
//!
//! Earlier revisions of this example ran the Proposition 4.1 protocol
//! in-process; now that the workspace ships `ktudc-serve`, the example
//! *drives the daemon* the way an operations team would. It boots a
//! server on an ephemeral port, has several deployment reviewers ask it
//! concurrently whether a `t < n/2` deployment achieves UDC with the
//! oracle-free cycling detector (Corollary 4.2: no real failure
//! detection needed), and then repeats the question to show the scenario
//! cache answering byte-identically, orders of magnitude faster.
//!
//! ```text
//! cargo run --example replicated_service
//! ```

use ktudc::core::harness::{CellSpec, FdChoice, ProtocolChoice};
use ktudc_serve::{serve, Call, Client, RequestKind, ResponseKind, ServeConfig, ServerCall};

fn main() {
    let n = 5; // five replicas
    let t = 2; // deployment promise: at most 2 replicas fail (t < n/2)

    // The deployment under review: lossy WAN-like channels, the
    // Proposition 4.1 protocol, and the oracle-free cycling (S, 0)
    // detector. Every trial randomizes crash schedules of up to t
    // replicas; UDC must hold in all of them for sign-off.
    let deployment = CellSpec::new(
        n,
        t,
        Some(0.25),
        FdChoice::Cycling,
        ProtocolChoice::Generalized,
    )
    .trials(6)
    .horizon(900);

    let handle = serve(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port");
    let addr = handle.addr();
    println!("replicated-service review daemon on {addr}");

    // Three reviewers ask concurrently (separate connections). Identical
    // requests already in flight each compute — the cache memoizes
    // completions, it does not coalesce — so the cache pays off on every
    // request *after* the first completion.
    let reviewers: Vec<_> = (0..3)
        .map(|reviewer| {
            let spec = deployment.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let response = client.request(RequestKind::Cell(spec)).expect("request");
                (reviewer, response)
            })
        })
        .collect();
    let mut cold_micros = 0u64;
    for join in reviewers {
        let (reviewer, response) = join.join().expect("reviewer thread");
        let ResponseKind::Cell(outcome) = &response.result else {
            panic!("unexpected payload: {:?}", response.result);
        };
        println!(
            "reviewer {reviewer}: {}/{} trials achieved UDC ({}, {} µs)",
            outcome.satisfied,
            outcome.trials(),
            if response.cached { "cache" } else { "computed" },
            response.micros
        );
        assert!(
            outcome.achieved(),
            "service repudiated an operation: {outcome}"
        );
        if !response.cached {
            cold_micros = cold_micros.max(response.micros);
        }
    }
    assert!(cold_micros > 0, "someone must have computed the cell");

    // The follow-up audit asks the identical question; it must be a
    // cache hit, byte-identical, and faster than the cold computation.
    let mut auditor = Client::connect(addr).expect("connect");
    let warm = auditor
        .request(RequestKind::Cell(deployment))
        .expect("warm request");
    assert!(warm.cached, "follow-up audit was not served from cache");
    assert!(
        warm.micros < cold_micros,
        "cached answer ({} µs) not faster than computed one ({cold_micros} µs)",
        warm.micros
    );
    println!(
        "follow-up audit: answered from cache in {} µs (computed: {cold_micros} µs)",
        warm.micros
    );

    let stats = auditor.stats().expect("stats");
    println!(
        "server: {} cell requests, hit rate {:.2}, p50 {} µs",
        stats.endpoints[0].requests, stats.cache_hit_rate, stats.endpoints[0].p50_micros
    );

    auditor.shutdown_server().expect("shutdown");
    handle.join();
    println!("\nUDC held on every randomized crash schedule: no operation was");
    println!("repudiated, and clients never see the failures. (Daemon drained.)");
}
