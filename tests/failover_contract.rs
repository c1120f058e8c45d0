//! The failover contract, pinned at the wire against stub shards.
//!
//! The router (`serve_router`), `ClusterClient::request` and
//! `ClusterClient::batch` all route a request along its ring replica
//! order and fail over the same way. Every test below lays out a
//! three-shard cluster *in replica order* of one fixed key, sends that
//! key down each of the three paths, and pins what comes back:
//!
//! * the `shard` stamp on the answer;
//! * the exact `failovers` count (each replica tried after the first);
//! * a typed `DeadlineExceeded` shed moves on but is the answer of last
//!   resort — when every replica sheds, the *last* replica's shed
//!   returns as `Ok`;
//! * only when every replica is unreachable does an error surface
//!   (the router answers typed `Internal` "every replica failed");
//! * one generation bump on a shard is exactly one observed restart.
//!
//! The stubs speak the public wire types over a plain `TcpListener`, so
//! nothing here depends on what a real worker computes. A *live* stub
//! answers every request with a fixed `Pong` payload stamped with a
//! generation the test can change; a *shedding* stub answers a typed
//! `DeadlineExceeded` naming its shard (`HardenedClient` retries
//! `Overloaded` by itself, so only `DeadlineExceeded` reaches the
//! last-resort path); a *dead* shard is `127.0.0.1:1`, where nothing
//! listens.

use ktudc::core::harness::{CellSpec, FdChoice, ProtocolChoice};
use ktudc_serve::{
    serve_router, Client, ClientError, ClusterClient, ErrorCode, HashRing, Membership, Request,
    RequestKind, Response, ResponseKind, RetryPolicy, RouterConfig, RouterHandle,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SHARDS: usize = 3;
const DEAD: &str = "127.0.0.1:1";

#[derive(Clone, Copy)]
enum Stub {
    Live,
    Shedding,
    Dead,
}

/// The three ways a request reaches the fleet.
#[derive(Clone, Copy, Debug)]
enum Path {
    Router,
    Request,
    Batch,
}

const PATHS: [Path; 3] = [Path::Router, Path::Request, Path::Batch];

fn key() -> RequestKind {
    RequestKind::Cell(
        CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable)
            .trials(1)
            .horizon(40),
    )
}

/// The key's replica order: owner first, then its failover targets.
fn replica_order() -> Vec<usize> {
    HashRing::new(SHARDS).replicas(ClusterClient::shard_key(&key()))
}

/// One fail-fast try per replica: no retries, millisecond backoff.
fn policy() -> RetryPolicy {
    RetryPolicy {
        request_timeout: Duration::from_secs(5),
        max_retries: 0,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        ..RetryPolicy::default()
    }
}

fn serve_stub_connection(stream: TcpStream, shard: usize, shed: bool, generation: &AtomicU64) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    for line in BufReader::new(read_half).lines() {
        let Ok(line) = line else { return };
        let Ok(request) = serde_json::from_str::<Request>(&line) else {
            return;
        };
        let mut response = if shed {
            Response::error(
                request.id,
                ErrorCode::DeadlineExceeded,
                format!("shard {shard} shed"),
            )
        } else {
            Response::new(request.id, false, 0, ResponseKind::Pong)
        };
        response.generation = generation.load(Ordering::SeqCst);
        let encoded = serde_json::to_string(&response).expect("encode stub response");
        if writeln!(writer, "{encoded}").is_err() {
            return;
        }
    }
}

/// Starts a listening stub for `shard`; returns its address. The
/// accept thread lives as long as the test process.
fn start_stub(shard: usize, shed: bool, generation: Arc<AtomicU64>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().expect("stub addr").to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let generation = Arc::clone(&generation);
            std::thread::spawn(move || serve_stub_connection(stream, shard, shed, &generation));
        }
    });
    addr
}

/// A cluster laid out in the key's replica order: `layout[0]` is the
/// owner. Returns the membership and each shard's generation knob.
fn cluster(layout: [Stub; SHARDS]) -> (Arc<Membership>, Vec<Arc<AtomicU64>>) {
    let order = replica_order();
    let generations: Vec<Arc<AtomicU64>> =
        (0..SHARDS).map(|_| Arc::new(AtomicU64::new(1))).collect();
    let mut addrs = vec![String::new(); SHARDS];
    for (position, stub) in layout.into_iter().enumerate() {
        let shard = order[position];
        let generation = Arc::clone(&generations[shard]);
        addrs[shard] = match stub {
            Stub::Live => start_stub(shard, false, generation),
            Stub::Shedding => start_stub(shard, true, generation),
            Stub::Dead => DEAD.to_string(),
        };
    }
    (Arc::new(Membership::new(addrs)), generations)
}

/// A router or a cluster client over one membership, sending the key
/// down one [`Path`].
enum Sender {
    Router(RouterHandle, Client),
    Cluster(ClusterClient, Path),
}

impl Sender {
    fn new(path: Path, membership: Arc<Membership>) -> Sender {
        match path {
            Path::Router => {
                let router = serve_router(
                    &RouterConfig {
                        policy: policy(),
                        workers: 1,
                        detector: None,
                        ..RouterConfig::default()
                    },
                    membership,
                )
                .expect("router binds");
                let client = Client::connect(router.addr()).expect("connect to router");
                Sender::Router(router, client)
            }
            Path::Request | Path::Batch => {
                Sender::Cluster(ClusterClient::new(membership, policy()), path)
            }
        }
    }

    fn send(&mut self) -> Result<Response, ClientError> {
        match self {
            Sender::Router(_, client) => client.request(key()),
            Sender::Cluster(cluster, Path::Batch) => {
                let mut responses = cluster.batch(vec![key()])?;
                assert_eq!(responses.len(), 1);
                Ok(responses.remove(0))
            }
            Sender::Cluster(cluster, _) => cluster.request(key()),
        }
    }

    fn failovers(&self) -> u64 {
        match self {
            Sender::Router(router, _) => router.failovers(),
            Sender::Cluster(cluster, _) => cluster.metrics().failovers,
        }
    }

    fn restarts(&self) -> u64 {
        match self {
            Sender::Router(router, _) => router.restarts_observed(),
            Sender::Cluster(cluster, _) => cluster.metrics().worker_restarts,
        }
    }
}

/// Sends the key once down every path over `layout`; returns, per path,
/// the outcome and the failovers counted.
fn each_path(layout: [Stub; SHARDS]) -> Vec<(Path, Result<Response, ClientError>, u64)> {
    PATHS
        .iter()
        .map(|&path| {
            let (membership, _) = cluster(layout);
            let mut sender = Sender::new(path, membership);
            let outcome = sender.send();
            (path, outcome, sender.failovers())
        })
        .collect()
}

/// Asserts every path answered `Pong` from replica `position` after
/// exactly `failovers` failovers.
fn assert_answered_by(layout: [Stub; SHARDS], position: usize, failovers: u64) {
    let shard = replica_order()[position];
    for (path, outcome, counted) in each_path(layout) {
        let resp = outcome.unwrap_or_else(|e| panic!("{path:?}: expected an answer, got {e}"));
        assert_eq!(resp.result, ResponseKind::Pong, "{path:?}");
        assert_eq!(resp.shard, Some(shard), "{path:?}: shard stamp");
        assert_eq!(counted, failovers, "{path:?}: failovers");
    }
}

/// Asserts every path returned replica `position`'s typed shed as `Ok`
/// after trying every replica; returns each path's answer.
fn assert_shed_by(layout: [Stub; SHARDS], position: usize) -> Vec<(Path, Response)> {
    let shard = replica_order()[position];
    each_path(layout)
        .into_iter()
        .map(|(path, outcome, counted)| {
            let resp =
                outcome.unwrap_or_else(|e| panic!("{path:?}: expected a typed shed, got {e}"));
            let ResponseKind::Error(e) = &resp.result else {
                panic!("{path:?}: expected a typed shed, got {:?}", resp.result);
            };
            assert_eq!(e.code, ErrorCode::DeadlineExceeded, "{path:?}");
            assert_eq!(e.message, format!("shard {shard} shed"), "{path:?}");
            assert_eq!(counted, 2, "{path:?}: every replica was tried");
            (path, resp)
        })
        .collect()
}

#[test]
fn a_live_owner_answers_without_failover() {
    assert_answered_by([Stub::Live, Stub::Live, Stub::Live], 0, 0);
}

#[test]
fn a_dead_owner_fails_over_to_the_next_replica() {
    assert_answered_by([Stub::Dead, Stub::Live, Stub::Live], 1, 1);
}

#[test]
fn a_shedding_owner_fails_over_to_the_next_replica() {
    assert_answered_by([Stub::Shedding, Stub::Live, Stub::Live], 1, 1);
}

#[test]
fn failover_walks_past_a_dead_and_a_shedding_replica() {
    assert_answered_by([Stub::Dead, Stub::Shedding, Stub::Live], 2, 2);
}

#[test]
fn every_replica_shedding_returns_the_last_replicas_shed() {
    let last = replica_order()[2];
    for (path, resp) in assert_shed_by([Stub::Shedding, Stub::Shedding, Stub::Shedding], 2) {
        assert_eq!(resp.shard, Some(last), "{path:?}: shard stamp");
    }
}

#[test]
fn a_shed_outlives_unreachable_replicas() {
    let owner = replica_order()[0];
    for (path, resp) in assert_shed_by([Stub::Shedding, Stub::Dead, Stub::Dead], 0) {
        // The batch path's stamp on an owner shed kept through its
        // sub-batch is pinned by the cluster module's unit tests.
        if !matches!(path, Path::Batch) {
            assert_eq!(resp.shard, Some(owner), "{path:?}: shard stamp");
        }
    }
}

#[test]
fn every_replica_dead_is_an_error() {
    for (path, outcome, counted) in each_path([Stub::Dead, Stub::Dead, Stub::Dead]) {
        match path {
            Path::Router => {
                let resp = outcome.expect("the router itself answers");
                let ResponseKind::Error(e) = &resp.result else {
                    panic!("router: expected a typed error, got {:?}", resp.result);
                };
                assert_eq!(e.code, ErrorCode::Internal);
                assert!(
                    e.message.starts_with("every replica failed"),
                    "router: {}",
                    e.message
                );
                assert_eq!(resp.shard, None, "no shard answered");
            }
            Path::Request | Path::Batch => {
                assert!(outcome.is_err(), "{path:?}: expected an error");
            }
        }
        assert_eq!(counted, 2, "{path:?}: every replica was tried");
    }
}

#[test]
fn one_generation_bump_is_one_restart() {
    let owner = replica_order()[0];
    for path in PATHS {
        let (membership, generations) = cluster([Stub::Live, Stub::Live, Stub::Live]);
        let mut sender = Sender::new(path, membership);
        for _ in 0..2 {
            let resp = sender.send().expect("live answer");
            assert_eq!(resp.generation, 1, "{path:?}");
        }
        assert_eq!(sender.restarts(), 0, "{path:?}: no restart yet");
        generations[owner].store(2, Ordering::SeqCst);
        for _ in 0..2 {
            let resp = sender.send().expect("live answer");
            assert_eq!(resp.generation, 2, "{path:?}");
            assert_eq!(resp.shard, Some(owner), "{path:?}");
        }
        assert_eq!(sender.restarts(), 1, "{path:?}: exactly one restart");
        assert_eq!(sender.failovers(), 0, "{path:?}");
    }
}
