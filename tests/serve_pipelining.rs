//! The pipelining contract of the serving connection, on a worker and
//! through a router: however a batch is written and however its answers
//! are coalesced on the way back, every request line gets exactly one
//! answer, no answer waits for further input, the test-only response
//! faults still hit the response they count to (after everything queued
//! ahead of it), and the frame cap is the line's own length.

use ktudc::core::harness::{run_cell, CellSpec, FdChoice, ProtocolChoice};
use ktudc_serve::{
    serve, serve_router, Client, ClusterClient, ErrorCode, HashRing, Membership, Request,
    RequestKind, Response, ResponseKind, RetryPolicy, RouterConfig, RouterHandle, ServeConfig,
    ServerFaults, ServerHandle, MAX_REQUEST_LINE_BYTES,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn worker(faults: ServerFaults) -> ServerHandle {
    serve(&ServeConfig {
        workers: 2,
        queue_capacity: 512,
        faults,
        ..ServeConfig::default()
    })
    .expect("bind worker")
}

/// A router over two fresh workers, with room to queue a whole batch.
fn router() -> (RouterHandle, Vec<ServerHandle>) {
    let workers: Vec<_> = (0..2).map(|_| worker(ServerFaults::default())).collect();
    let membership = Arc::new(Membership::new(
        workers.iter().map(|w| w.addr().to_string()).collect(),
    ));
    let router = serve_router(
        &RouterConfig {
            policy: RetryPolicy::default(),
            workers: 4,
            queue_capacity: 512,
            ..RouterConfig::default()
        },
        membership,
    )
    .expect("bind router");
    (router, workers)
}

/// A cheap, always-valid cell, distinct per `i`.
fn cell(i: u64) -> CellSpec {
    CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable)
        .trials(1)
        .horizon(40 + i)
}

fn raw(addr: SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    BufReader::new(stream)
}

fn line_of(id: u64, kind: RequestKind) -> String {
    let mut line = serde_json::to_string(&Request::new(id, kind)).expect("encode");
    line.push('\n');
    line
}

fn read_response(conn: &mut BufReader<TcpStream>) -> Response {
    let mut line = String::new();
    let n = conn.read_line(&mut line).expect("an answer, not a hang");
    assert!(n > 0, "the connection closed with answers outstanding");
    serde_json::from_str(line.trim_end()).expect("a typed response line")
}

/// Everything the peer sends until it closes (a reset counts as a close).
fn read_to_close(conn: &mut BufReader<TcpStream>) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match conn.read(&mut chunk) {
            Ok(0) | Err(_) => return bytes,
            Ok(n) => bytes.extend_from_slice(&chunk[..n]),
        }
    }
}

/// 255 requests and one malformed line in a single write, nothing read
/// until it is all written: hits, misses, in-flight duplicates and pings
/// interleaved. Exactly one answer per id, each the right one.
fn one_answer_per_id(addr: SocketAddr) {
    // Warm eight specs so the batch has real cache hits.
    let mut client = Client::connect(addr).expect("connect");
    for i in 0..8 {
        client
            .request(RequestKind::Cell(cell(i)))
            .expect("warm request");
    }
    drop(client);

    let mut sent: HashMap<u64, RequestKind> = HashMap::new();
    let mut blob = String::new();
    for id in 1..=255u64 {
        let kind = match id % 4 {
            0 => RequestKind::Ping,
            1 => RequestKind::Cell(cell(id % 8)), // warmed: a hit
            // A fresh spec, then the same spec again right behind it: the
            // second joins the first's computation or hits its result.
            2 => RequestKind::Cell(cell(1_000 + id)),
            _ => RequestKind::Cell(cell(1_000 + id - 1)),
        };
        blob.push_str(&line_of(id, kind.clone()));
        sent.insert(id, kind);
        if id == 100 {
            blob.push_str("this is not json\n");
        }
    }
    let mut conn = raw(addr);
    conn.get_mut()
        .write_all(blob.as_bytes())
        .expect("one write");

    let mut direct: HashMap<u64, _> = HashMap::new();
    let mut refusals = 0;
    for _ in 0..256 {
        let response = read_response(&mut conn);
        if response.id == 0 {
            let ResponseKind::Error(e) = &response.result else {
                panic!("id 0 must be the refusal, got {response:?}");
            };
            assert_eq!(e.code, ErrorCode::BadRequest);
            refusals += 1;
            continue;
        }
        let kind = sent
            .remove(&response.id)
            .unwrap_or_else(|| panic!("a second or unasked answer: {response:?}"));
        match (kind, &response.result) {
            (RequestKind::Ping, ResponseKind::Pong) => {}
            (RequestKind::Cell(spec), ResponseKind::Cell(outcome)) => {
                let want = direct
                    .entry(spec.horizon)
                    .or_insert_with(|| run_cell(&spec));
                assert_eq!(outcome, want, "wrong answer for {spec:?}");
                if response.id % 4 == 1 {
                    assert!(response.cached, "a warmed spec must hit: {response:?}");
                }
            }
            (kind, other) => panic!("{kind:?} answered by {other:?}"),
        }
    }
    assert_eq!(refusals, 1, "the malformed line gets exactly one answer");
    assert!(sent.is_empty(), "unanswered ids: {:?}", sent.keys());

    // Nothing further is owed: the next exchange is the next answer.
    conn.get_mut()
        .write_all(line_of(999, RequestKind::Ping).as_bytes())
        .expect("write");
    assert_eq!(read_response(&mut conn).id, 999);
}

/// A hit and a miss in one write: the hit's answer arrives, the
/// connection thread goes back to `read`, and the miss — finished by a
/// worker while nobody sends anything — still arrives.
fn a_worker_answer_needs_no_further_input(addr: SocketAddr) {
    let mut client = Client::connect(addr).expect("connect");
    client
        .request(RequestKind::Cell(cell(0)))
        .expect("warm request");
    drop(client);

    let slow = CellSpec::new(4, 1, None, FdChoice::None, ProtocolChoice::Reliable)
        .trials(12)
        .horizon(400);
    let mut conn = raw(addr);
    let blob = line_of(1, RequestKind::Cell(cell(0))) + &line_of(2, RequestKind::Cell(slow));
    conn.get_mut().write_all(blob.as_bytes()).expect("write");
    // Matched by id, not by position: a router forwards both from its
    // pool, so the hit is only nearly always the first one back.
    let mut answers = [read_response(&mut conn), read_response(&mut conn)];
    answers.sort_by_key(|r| r.id);
    let [hit, miss] = answers;
    assert_eq!((hit.id, hit.cached), (1, true));
    assert_eq!((miss.id, miss.cached), (2, false));
    assert!(matches!(miss.result, ResponseKind::Cell(_)));
}

#[test]
fn a_worker_answers_each_line_of_a_one_write_batch_exactly_once() {
    let handle = worker(ServerFaults::default());
    one_answer_per_id(handle.addr());
    // The batch's inline answers shared writes; nothing else could make
    // responses outnumber flushes.
    let stats = Client::connect(handle.addr())
        .expect("connect")
        .stats()
        .expect("stats");
    assert!(stats.responses >= 256 + 8, "{stats:?}");
    assert!(stats.flushes < stats.responses, "{stats:?}");
    handle.shutdown();
    handle.join();
}

#[test]
fn a_router_answers_each_line_of_a_one_write_batch_exactly_once() {
    let (router, workers) = router();
    one_answer_per_id(router.addr());
    router.shutdown();
    router.join();
    for w in workers {
        w.shutdown();
    }
}

#[test]
fn a_worker_delivers_a_late_answer_without_further_input() {
    let handle = worker(ServerFaults::default());
    a_worker_answer_needs_no_further_input(handle.addr());
    handle.shutdown();
    handle.join();
}

#[test]
fn a_router_delivers_a_late_answer_without_further_input() {
    let (router, workers) = router();
    a_worker_answer_needs_no_further_input(router.addr());
    router.shutdown();
    router.join();
    for w in workers {
        w.shutdown();
    }
}

/// A `ClusterHealth` behind other requests in one write, to a router
/// whose second shard is a black hole: the health fan-out sits out the
/// dead shard's timeout on the connection thread, and no answer but its
/// own waits with it — not the connection thread's own pong queued ahead
/// of it, not a forwarded answer a pool thread brings back meanwhile.
#[test]
fn a_slow_inline_handler_holds_no_answer_but_its_own() {
    let live = worker(ServerFaults::default());
    // Accepts in the kernel, never answers.
    let hole = TcpListener::bind("127.0.0.1:0").expect("bind black hole");
    let timeout = Duration::from_millis(1_000);
    let router = serve_router(
        &RouterConfig {
            policy: RetryPolicy {
                request_timeout: timeout,
                max_retries: 0,
                ..RetryPolicy::default()
            },
            workers: 2,
            // No suspicion: the health probe must find the hole itself.
            detector: None,
            ..RouterConfig::default()
        },
        Arc::new(Membership::new(vec![
            live.addr().to_string(),
            hole.local_addr().expect("addr").to_string(),
        ])),
    )
    .expect("bind router");
    // A cell the live shard owns, so its forward never meets the hole.
    let ring = HashRing::new(2);
    let owned = (0..)
        .map(|i| RequestKind::Cell(cell(i)))
        .find(|kind| ring.shard_for(ClusterClient::shard_key(kind)) == 0)
        .expect("some cell hashes to shard 0");

    let mut conn = raw(router.addr());
    for ahead in [RequestKind::Ping, owned] {
        let blob = line_of(1, ahead.clone()) + &line_of(2, RequestKind::ClusterHealth);
        let sent = Instant::now();
        conn.get_mut().write_all(blob.as_bytes()).expect("write");
        let early = read_response(&mut conn);
        let waited = sent.elapsed();
        assert_eq!(early.id, 1);
        assert!(
            waited < timeout / 2,
            "the answer to {ahead:?} waited {waited:?} for a blocked ClusterHealth"
        );
        let health = read_response(&mut conn);
        assert!(sent.elapsed() >= timeout, "the probe of the hole timed out");
        assert_eq!(health.id, 2);
        let ResponseKind::ClusterHealth(report) = &health.result else {
            panic!("expected the fleet view, got {health:?}");
        };
        let reachable: Vec<bool> = report.shards.iter().map(|s| s.reachable).collect();
        assert_eq!(reachable, [true, false]);
    }

    router.shutdown();
    router.join();
    live.shutdown();
    live.join();
}

/// Eight pings in one write to a server with `faults` armed on the fifth
/// response; returns what came back before the close, split into lines.
fn eight_pings_against(faults: ServerFaults) -> Vec<String> {
    let handle = worker(faults);
    let mut conn = raw(handle.addr());
    let blob: String = (1..=8).map(|id| line_of(id, RequestKind::Ping)).collect();
    conn.get_mut().write_all(blob.as_bytes()).expect("write");
    let bytes = read_to_close(&mut conn);
    handle.shutdown();
    handle.join();
    String::from_utf8(bytes)
        .expect("utf-8")
        .split_inclusive('\n')
        .map(str::to_string)
        .collect()
}

fn assert_pongs(lines: &[String], ids: std::ops::RangeInclusive<u64>) {
    assert_eq!(lines.len() as u64, ids.end() - ids.start() + 1, "{lines:?}");
    for (line, id) in lines.iter().zip(ids) {
        let response: Response = serde_json::from_str(line.trim_end()).expect("a whole line");
        assert_eq!(response.id, id);
        assert_eq!(response.result, ResponseKind::Pong);
    }
}

#[test]
fn a_sever_fires_on_its_response_after_the_buffered_ones_are_delivered() {
    let lines = eight_pings_against(ServerFaults {
        sever_every: Some(5),
        ..ServerFaults::default()
    });
    // Four whole answers, then the close — the fifth is never written.
    assert_pongs(&lines, 1..=4);
}

#[test]
fn a_short_write_tears_its_response_after_the_buffered_ones_are_delivered() {
    let lines = eight_pings_against(ServerFaults {
        short_write_every: Some(5),
        ..ServerFaults::default()
    });
    assert_eq!(lines.len(), 5, "{lines:?}");
    assert_pongs(&lines[..4], 1..=4);
    let torn = &lines[4];
    assert!(!torn.ends_with('\n') && torn.starts_with("{\"schema_version\""));
    assert!(serde_json::from_str::<Response>(torn).is_err(), "{torn}");
}

#[test]
fn a_delay_holds_its_response_but_not_the_ones_buffered_before_it() {
    let delay = Duration::from_millis(1_500);
    let handle = worker(ServerFaults {
        delay_every: Some((3, delay)),
        ..ServerFaults::default()
    });
    let mut conn = raw(handle.addr());
    let blob: String = (1..=4).map(|id| line_of(id, RequestKind::Ping)).collect();
    let sent = Instant::now();
    conn.get_mut().write_all(blob.as_bytes()).expect("write");
    // The first two are written before the server sleeps on the third…
    assert_eq!(read_response(&mut conn).id, 1);
    assert_eq!(read_response(&mut conn).id, 2);
    let early = sent.elapsed();
    // …which still comes, with the fourth, once the delay has passed.
    assert_eq!(read_response(&mut conn).id, 3);
    assert!(sent.elapsed() >= delay);
    assert_eq!(read_response(&mut conn).id, 4);
    assert!(
        early < delay,
        "answers buffered ahead of a delayed one waited {early:?} for it"
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn the_frame_cap_is_the_lines_own_length() {
    let handle = worker(ServerFaults::default());
    let mut conn = raw(handle.addr());
    let ping = serde_json::to_string(&Request::new(7, RequestKind::Ping)).expect("encode");
    let padded = |len: usize| format!("{ping}{}", " ".repeat(len - ping.len()));

    // Exactly at the cap: served, and the connection keeps serving.
    let mut at_cap = padded(MAX_REQUEST_LINE_BYTES);
    at_cap.push('\n');
    conn.get_mut()
        .write_all(at_cap.as_bytes())
        .expect("line at the cap");
    let response = read_response(&mut conn);
    assert_eq!((response.id, &response.result), (7, &ResponseKind::Pong));
    conn.get_mut()
        .write_all(line_of(8, RequestKind::Ping).as_bytes())
        .expect("write");
    assert_eq!(read_response(&mut conn).id, 8);

    // One byte over: refused as soon as it is over, then closed. (No
    // newline is sent, so the server has consumed every byte and the
    // close is a clean FIN the refusal survives.)
    conn.get_mut()
        .write_all(padded(MAX_REQUEST_LINE_BYTES + 1).as_bytes())
        .expect("line over the cap");
    let response = read_response(&mut conn);
    assert_eq!(response.id, 0);
    let ResponseKind::Error(e) = &response.result else {
        panic!("expected a typed refusal, got {response:?}");
    };
    assert_eq!(e.code, ErrorCode::BadRequest);
    assert!(read_to_close(&mut conn).is_empty());

    let stats = Client::connect(handle.addr())
        .expect("connect")
        .stats()
        .expect("stats");
    assert_eq!(stats.oversized_rejected, 1, "{stats:?}");
    handle.shutdown();
    handle.join();
}

#[test]
fn invalid_utf8_is_refused_not_repaired_and_the_connection_survives() {
    let (router, workers) = router();
    for addr in [workers[0].addr(), router.addr()] {
        let mut conn = raw(addr);
        // A well-formed request but for one byte inside a string: lossy
        // decoding would have served (and cached) a different body.
        let mut line = line_of(5, RequestKind::Cell(cell(0))).into_bytes();
        let at = line
            .windows(8)
            .position(|w| w == b"Reliable")
            .expect("the protocol name is in the body");
        line[at] = 0xff;
        conn.get_mut().write_all(&line).expect("write");
        let response = read_response(&mut conn);
        assert_eq!(
            response.id, 0,
            "no id is recovered from a line refused whole"
        );
        let ResponseKind::Error(e) = &response.result else {
            panic!("expected a typed refusal, got {response:?}");
        };
        assert_eq!(e.code, ErrorCode::BadRequest);

        conn.get_mut()
            .write_all(line_of(6, RequestKind::Ping).as_bytes())
            .expect("write");
        assert_eq!(read_response(&mut conn).id, 6);
        let stats = Client::connect(addr)
            .expect("connect")
            .stats()
            .expect("stats");
        assert_eq!(stats.malformed_lines, 1, "{stats:?}");
    }
    router.shutdown();
    router.join();
    for w in workers {
        w.shutdown();
    }
}
