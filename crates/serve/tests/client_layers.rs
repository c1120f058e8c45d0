//! The three client layers speak one request surface, pinned at the
//! wire against a recording stub server.
//!
//! `Client`, `HardenedClient` and a one-member `ClusterClient` each send
//! the same batches (default options, then per-request options) and the
//! same single request to a stub of their own. Every request line each
//! stub reads must be byte-identical across the three layers, ignoring
//! only the client-chosen `id`, and every layer must hand back the same
//! answers in request order. The stub echoes each line (without its id)
//! back as the message of a typed `BadRequest`: a final answer that no
//! layer retries or fails over, so the answers pin the ordering too.
//!
//! The single-server accessors (`stats`, `health`, `cluster_health`,
//! `classify`, `ping`, `shutdown_server`) of the one-connection layers
//! are pinned against a stub that answers each kind with its matching
//! payload, and against one that answers every kind with a wrong one:
//! a wrong payload kind is `ClientError::Protocol`.
//!
//! The root package includes this file (`tests/client_layers.rs`), so
//! `cargo test -q` at the root runs it.

use ktudc_core::harness::{CellSpec, FdChoice, ProtocolChoice};
use ktudc_fd::{classify_detector, ClassifySpec, DetectorKind, FaultRegime};
use ktudc_serve::metrics::{Metrics, PoolCounters};
// A glob import: the pins hold whichever way the crate spells the
// request surface, as inherent methods or as methods of traits it
// exports.
use ktudc_serve::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The generation every stub stamps on its answers.
const STUB_GENERATION: u64 = 7;

/// A stub server: records every request line it reads, in arrival
/// order, and answers each with `answer(request, line)`.
struct Stub {
    addr: String,
    lines: Arc<Mutex<Vec<String>>>,
}

type Answer = fn(&Request, &str) -> ResponseKind;

impl Stub {
    fn start(answer: Answer) -> Stub {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
        let addr = listener.local_addr().expect("stub addr").to_string();
        let lines = Arc::new(Mutex::new(Vec::new()));
        let recorded = Arc::clone(&lines);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                let recorded = Arc::clone(&recorded);
                std::thread::spawn(move || serve_connection(stream, answer, &recorded));
            }
        });
        Stub { addr, lines }
    }

    /// The request lines read so far, with their ids blanked.
    fn lines(&self) -> Vec<String> {
        self.lines
            .lock()
            .expect("stub lines lock")
            .iter()
            .map(|line| without_id(line))
            .collect()
    }
}

fn serve_connection(stream: TcpStream, answer: Answer, recorded: &Mutex<Vec<String>>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    for line in BufReader::new(read_half).lines() {
        let Ok(line) = line else { return };
        recorded.lock().expect("stub lines lock").push(line.clone());
        let Ok(request) = serde_json::from_str::<Request>(&line) else {
            return;
        };
        let mut response = Response::new(request.id, false, 0, answer(&request, &line));
        response.generation = STUB_GENERATION;
        let encoded = serde_json::to_string(&response).expect("encode stub response");
        if writeln!(writer, "{encoded}").is_err() {
            return;
        }
    }
}

/// A request line with the value of its `"id"` key blanked.
fn without_id(line: &str) -> String {
    let key = "\"id\":";
    let start = line.find(key).expect("every request line has an id") + key.len();
    let digits = line[start..]
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(line.len() - start);
    format!("{}{}", &line[..start], &line[start + digits..])
}

/// Answers every request with its own line, id blanked, as a typed
/// `BadRequest` message.
fn echo(_: &Request, line: &str) -> ResponseKind {
    ResponseKind::Error(WireError {
        code: ErrorCode::BadRequest,
        message: without_id(line),
        retry_after_ms: 0,
    })
}

fn tiny_classify() -> ClassifySpec {
    ClassifySpec::new(DetectorKind::Heartbeat, FaultRegime::Clean)
        .trials(1)
        .horizon(60)
}

fn stats_payload() -> StatsReport {
    let mut report = Metrics::default().report(PoolCounters::default(), 0, 0);
    report.uptime_micros = 1;
    report
}

fn health_payload() -> HealthReport {
    HealthReport {
        generation: STUB_GENERATION,
        durable: false,
        recovered_cache_entries: 0,
        corrupt_snapshots_skipped: 0,
        store_corrupt_candidates: 0,
        snapshots_written: 0,
        cache_entries: 0,
        queue_depth: 0,
        in_flight: 0,
        stuck_workers: 0,
        steals: 0,
        deepest_queue: 0,
        uptime_micros: 1,
    }
}

fn cluster_health_payload() -> ClusterHealthReport {
    ClusterHealthReport::aggregate(Vec::new())
}

/// Answers each kind with its matching payload.
fn matching(request: &Request, _: &str) -> ResponseKind {
    match &request.kind {
        RequestKind::Stats => ResponseKind::Stats(stats_payload()),
        RequestKind::Health => ResponseKind::Health(health_payload()),
        RequestKind::ClusterHealth => ResponseKind::ClusterHealth(cluster_health_payload()),
        RequestKind::Classify(spec) => ResponseKind::Classify(classify_detector(spec)),
        RequestKind::Shutdown => ResponseKind::Shutdown,
        _ => ResponseKind::Pong,
    }
}

/// Answers every kind with a payload of some other kind.
fn mismatched(request: &Request, _: &str) -> ResponseKind {
    match &request.kind {
        RequestKind::Ping => ResponseKind::Shutdown,
        _ => ResponseKind::Pong,
    }
}

fn cell(horizon: u64) -> RequestKind {
    RequestKind::Cell(
        CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable)
            .trials(1)
            .horizon(horizon),
    )
}

fn kinds() -> Vec<RequestKind> {
    vec![
        cell(40),
        RequestKind::Classify(tiny_classify()),
        cell(41),
        cell(42),
    ]
}

/// The same kinds, each with different non-default options.
fn optioned() -> Vec<(RequestKind, RequestOptions)> {
    let options = [
        RequestOptions {
            deadline_ms: Some(250),
            ..RequestOptions::default()
        },
        RequestOptions {
            priority: 3,
            ..RequestOptions::default()
        },
        RequestOptions {
            accept_partial: true,
            deadline_ms: Some(1_000),
            priority: 1,
        },
        RequestOptions::default(),
    ];
    kinds().into_iter().zip(options).collect()
}

/// No retries and millisecond backoff, so a pin never waits.
fn policy() -> RetryPolicy {
    RetryPolicy {
        request_timeout: Duration::from_secs(5),
        max_retries: 0,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        ..RetryPolicy::default()
    }
}

/// What one layer sends and gets back: a default-option batch, an
/// optioned batch, and one request.
macro_rules! drive {
    ($client:expr) => {{
        let mut answers: Vec<Response> = Vec::new();
        answers.extend($client.batch(kinds()).expect("default batch"));
        answers.extend(
            $client
                .batch_with_options(optioned())
                .expect("optioned batch"),
        );
        answers.push($client.request(cell(43)).expect("one request"));
        answers
            .into_iter()
            .map(|r| (r.result, r.generation))
            .collect::<Vec<_>>()
    }};
}

#[test]
fn every_layer_sends_the_same_lines_and_returns_the_same_answers() {
    let direct = Stub::start(echo);
    let hardened = Stub::start(echo);
    let clustered = Stub::start(echo);

    let mut client = Client::connect(&direct.addr).expect("connect");
    let from_client = drive!(client);
    let mut hardened_client = HardenedClient::new(hardened.addr.clone(), policy());
    let from_hardened = drive!(hardened_client);
    let cluster = ClusterClient::new(
        Arc::new(Membership::new(vec![clustered.addr.clone()])),
        policy(),
    );
    let from_cluster = drive!((&cluster));

    let sent = direct.lines();
    let n = kinds().len();
    assert_eq!(sent.len(), 2 * n + 1);
    assert_eq!(hardened.lines(), sent, "HardenedClient request lines");
    assert_eq!(clustered.lines(), sent, "ClusterClient request lines");

    // The pin is only as strong as the options actually reaching the
    // wire: an optioned line differs from its default one exactly when
    // its options are set.
    let (defaults, optioned_lines) = (&sent[..n], &sent[n..2 * n]);
    for (i, (plain, with_options)) in defaults.iter().zip(optioned_lines).enumerate() {
        let has_options = !optioned()[i].1.is_default();
        assert_eq!(
            plain != with_options,
            has_options,
            "line {i}: {with_options}"
        );
    }
    assert!(optioned_lines[0].contains("\"deadline_ms\":250"));

    // Answers come back in request order, each echoing its own line.
    let echoed: Vec<String> = from_client
        .iter()
        .map(|(result, _)| match result {
            ResponseKind::Error(e) => e.message.clone(),
            other => panic!("expected an echo, got {other:?}"),
        })
        .collect();
    assert_eq!(echoed, sent, "Client answers in request order");
    assert_eq!(from_hardened, from_client, "HardenedClient answers");
    assert_eq!(from_cluster, from_client, "ClusterClient answers");
}

/// Every single-server accessor that both one-connection layers have
/// (`ping` is pinned on `Client` below): the matching payload comes
/// back, a wrong payload kind is a protocol error.
macro_rules! check_accessors {
    ($layer:literal, $good:expr, $bad:expr) => {{
        let (good, bad) = (&mut $good, &mut $bad);
        assert_eq!(good.stats().expect("stats"), stats_payload(), $layer);
        assert_eq!(good.health().expect("health"), health_payload(), $layer);
        assert_eq!(
            good.cluster_health().expect("cluster health"),
            cluster_health_payload(),
            $layer
        );
        assert_eq!(
            good.classify(tiny_classify()).expect("classify"),
            classify_detector(&tiny_classify()),
            $layer
        );
        good.shutdown_server().expect("shutdown acknowledgement");

        let protocol = |e: ClientError| matches!(e, ClientError::Protocol(_));
        assert!(protocol(bad.stats().unwrap_err()), "{} stats", $layer);
        assert!(protocol(bad.health().unwrap_err()), "{} health", $layer);
        assert!(
            protocol(bad.cluster_health().unwrap_err()),
            "{} cluster health",
            $layer
        );
        assert!(
            protocol(bad.classify(tiny_classify()).unwrap_err()),
            "{} classify",
            $layer
        );
        assert!(
            protocol(bad.shutdown_server().unwrap_err()),
            "{} shutdown",
            $layer
        );
    }};
}

#[test]
fn single_server_accessors_take_their_payload_or_refuse_a_wrong_kind() {
    let good = Stub::start(matching);
    let bad = Stub::start(mismatched);
    check_accessors!(
        "Client",
        Client::connect(&good.addr).expect("connect"),
        Client::connect(&bad.addr).expect("connect")
    );
    let mut client = Client::connect(&good.addr).expect("connect");
    assert_eq!(client.ping().expect("ping"), STUB_GENERATION);
    let mut client = Client::connect(&bad.addr).expect("connect");
    assert!(matches!(client.ping(), Err(ClientError::Protocol(_))));
    check_accessors!(
        "HardenedClient",
        HardenedClient::new(good.addr.clone(), policy()),
        HardenedClient::new(bad.addr.clone(), policy())
    );
}
