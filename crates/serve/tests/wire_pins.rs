//! Byte pins of the serve wire encoding, through the public API only.
//!
//! Every string here is part of the wire schema (`SCHEMA_VERSION` 6):
//! repin deliberately with a version bump, never silently. The optional
//! fields — the response `shard` stamp, the per-shard suspicion
//! annotations, `suspected_shards` and the stats `suspicion` block — are
//! pinned both present and absent, and a line that omits them must still
//! decode. A present key decodes strictly: a wrong-typed value under an
//! optional key is refused, not defaulted.
//!
//! The root package includes this file (`tests/wire_pins.rs`), so
//! `cargo test -q` at the root runs it.

use ktudc_core::harness::{CellSpec, FdChoice, ProtocolChoice};
use ktudc_fd::ClassifySpec;
use ktudc_serve::metrics::{EndpointStats, Metrics, PoolCounters};
use ktudc_serve::{
    ClusterHealthReport, ErrorCode, Request, RequestKind, RequestOptions, Response, ResponseKind,
    ShardHealth, StatsReport, SuspicionStats,
};

#[test]
fn envelope_encoding_is_pinned() {
    // The envelope shape is the serve wire schema (schema_version 6:
    // v3's optional deadline/priority/accept_partial on requests,
    // queue and compute timings on responses, retry_after_ms on
    // errors, the v4 Classify endpoint, the v5 ClusterHealth
    // endpoint + optional response `shard` stamp, and the v6 Ping
    // probe + suspicion annotations).
    let req = Request::new(7, RequestKind::Stats);
    assert_eq!(
        serde_json::to_string(&req).unwrap(),
        r#"{"schema_version":6,"id":7,"kind":"Stats"}"#
    );
    let req = Request::new(8, RequestKind::Health);
    assert_eq!(
        serde_json::to_string(&req).unwrap(),
        r#"{"schema_version":6,"id":8,"kind":"Health"}"#
    );

    let spec = CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable)
        .trials(2)
        .horizon(100);
    let req = Request::new(1, RequestKind::Cell(spec.clone()));
    assert_eq!(
        serde_json::to_string(&req).unwrap(),
        r#"{"schema_version":6,"id":1,"kind":{"Cell":{"n":3,"t":1,"drop_prob":null,"fd":"None","protocol":"Reliable","horizon":100,"trials":2}}}"#
    );

    // Non-default options are appended after the v2-compatible core.
    let req = Request::with_options(
        2,
        RequestKind::Cell(spec),
        RequestOptions {
            deadline_ms: Some(250),
            priority: 1,
            accept_partial: true,
        },
    );
    assert_eq!(
        serde_json::to_string(&req).unwrap(),
        r#"{"schema_version":6,"id":2,"kind":{"Cell":{"n":3,"t":1,"drop_prob":null,"fd":"None","protocol":"Reliable","horizon":100,"trials":2}},"deadline_ms":250,"priority":1,"accept_partial":true}"#
    );

    // The v4 Classify endpoint (body encoding pinned in ktudc-fd).
    let req = Request::new(
        3,
        RequestKind::Classify(ClassifySpec::new(
            ktudc_fd::DetectorKind::Heartbeat,
            ktudc_fd::FaultRegime::Clean,
        )),
    );
    assert_eq!(
        serde_json::to_string(&req).unwrap(),
        r#"{"schema_version":6,"id":3,"kind":{"Classify":{"detector":"Heartbeat","regime":"Clean","n":4,"trials":6,"horizon":240,"seed":0}}}"#
    );

    let resp = Response::error(9, ErrorCode::Overloaded, "queue full");
    assert_eq!(
        serde_json::to_string(&resp).unwrap(),
        r#"{"schema_version":6,"id":9,"cached":false,"micros":0,"queue_wait_ms":0.0,"compute_ms":0.0,"generation":0,"result":{"Error":{"code":"Overloaded","message":"queue full","retry_after_ms":0}}}"#
    );
}

#[test]
fn ping_encoding_is_pinned() {
    // The v6 heartbeat probe: both directions deliberately minimal — a
    // Ping line is the cheapest thing the detector plane can put on the
    // wire, and the Pong carries nothing because the envelope already
    // has the arrival time implicitly and `generation` explicitly.
    let req = Request::new(12, RequestKind::Ping);
    assert_eq!(
        serde_json::to_string(&req).unwrap(),
        r#"{"schema_version":6,"id":12,"kind":"Ping"}"#
    );
    let resp = Response::new(12, false, 0, ResponseKind::Pong);
    assert_eq!(
        serde_json::to_string(&resp).unwrap(),
        r#"{"schema_version":6,"id":12,"cached":false,"micros":0,"queue_wait_ms":0.0,"compute_ms":0.0,"generation":0,"result":"Pong"}"#
    );
    let json = serde_json::to_string(&resp).unwrap();
    assert_eq!(serde_json::from_str::<Response>(&json).unwrap(), resp);
}

#[test]
fn cluster_health_encoding_is_pinned() {
    // The v5 endpoint itself.
    let req = Request::new(11, RequestKind::ClusterHealth);
    assert_eq!(
        serde_json::to_string(&req).unwrap(),
        r#"{"schema_version":6,"id":11,"kind":"ClusterHealth"}"#
    );

    // A one-shard cluster (what a direct single-process server answers):
    // the unreachable-row and reachable-row shapes are both part of the
    // schema.
    let report = ClusterHealthReport::aggregate(vec![
        ShardHealth::new(0, "127.0.0.1:7001".to_string(), true, 3, None),
        ShardHealth::new(1, "127.0.0.1:7002".to_string(), false, 2, None),
    ]);
    // No detector plane annotations: a v6 report with healthy rows is
    // byte-identical to its v5 encoding (no phi/suspected/probation keys,
    // no suspected_shards aggregate).
    assert_eq!(
        serde_json::to_string(&report).unwrap(),
        r#"{"shards":[{"shard":0,"addr":"127.0.0.1:7001","reachable":true,"generation":3,"report":null},{"shard":1,"addr":"127.0.0.1:7002","reachable":false,"generation":2,"report":null}],"reachable_shards":1,"total_cache_entries":0,"total_queue_depth":0,"total_in_flight":0,"total_stuck_workers":0,"max_generation":3}"#
    );
    let resp = Response::new(11, false, 0, ResponseKind::ClusterHealth(report));
    let json = serde_json::to_string(&resp).unwrap();
    assert_eq!(serde_json::from_str::<Response>(&json).unwrap(), resp);
}

#[test]
fn suspicion_annotations_are_pinned_and_v5_compatible() {
    // A detector-plane-annotated row: phi appears after report,
    // suspected/probation only when true.
    let mut suspect = ShardHealth::new(1, "127.0.0.1:7002".to_string(), true, 2, None);
    suspect.phi = Some(8.5);
    suspect.suspected = true;
    let mut healthy = ShardHealth::new(0, "127.0.0.1:7001".to_string(), true, 3, None);
    healthy.phi = Some(0.25);
    let report = ClusterHealthReport::aggregate(vec![healthy, suspect]);
    assert_eq!(report.suspected_shards, 1);
    assert_eq!(
        serde_json::to_string(&report).unwrap(),
        r#"{"shards":[{"shard":0,"addr":"127.0.0.1:7001","reachable":true,"generation":3,"report":null,"phi":0.25},{"shard":1,"addr":"127.0.0.1:7002","reachable":true,"generation":2,"report":null,"phi":8.5,"suspected":true}],"reachable_shards":2,"total_cache_entries":0,"total_queue_depth":0,"total_in_flight":0,"total_stuck_workers":0,"max_generation":3,"suspected_shards":1}"#
    );
    let json = serde_json::to_string(&report).unwrap();
    assert_eq!(
        serde_json::from_str::<ClusterHealthReport>(&json).unwrap(),
        report
    );

    // A probationary row round-trips too.
    let mut probation = ShardHealth::new(2, "127.0.0.1:7003".to_string(), true, 4, None);
    probation.phi = Some(0.1);
    probation.probation = true;
    let json = serde_json::to_string(&probation).unwrap();
    assert!(json.contains(r#""probation":true"#));
    assert_eq!(
        serde_json::from_str::<ShardHealth>(&json).unwrap(),
        probation
    );

    // A v5 row (no suspicion keys) still parses, defaulting them.
    let legacy =
        r#"{"shard":0,"addr":"127.0.0.1:7001","reachable":true,"generation":3,"report":null}"#;
    let parsed: ShardHealth = serde_json::from_str(legacy).unwrap();
    assert_eq!(parsed.phi, None);
    assert!(!parsed.suspected);
    assert!(!parsed.probation);
    let legacy_report = r#"{"shards":[],"reachable_shards":0,"total_cache_entries":0,"total_queue_depth":0,"total_in_flight":0,"total_stuck_workers":0,"max_generation":0}"#;
    let parsed: ClusterHealthReport = serde_json::from_str(legacy_report).unwrap();
    assert_eq!(parsed.suspected_shards, 0);
}

#[test]
fn response_shard_stamp_is_pinned_and_v4_compatible() {
    // Unstamped responses omit the key entirely — byte-identical to a
    // v4 response line apart from the version number.
    let mut resp = Response::error(9, ErrorCode::Overloaded, "queue full");
    assert!(!serde_json::to_string(&resp).unwrap().contains("shard"));

    // A router stamp appears between `generation` and `result`.
    resp.shard = Some(2);
    assert_eq!(
        serde_json::to_string(&resp).unwrap(),
        r#"{"schema_version":6,"id":9,"cached":false,"micros":0,"queue_wait_ms":0.0,"compute_ms":0.0,"generation":0,"shard":2,"result":{"Error":{"code":"Overloaded","message":"queue full","retry_after_ms":0}}}"#
    );
    let json = serde_json::to_string(&resp).unwrap();
    assert_eq!(serde_json::from_str::<Response>(&json).unwrap(), resp);

    // A v4 response line (no `shard` key) still parses, defaulting the
    // stamp to None.
    let legacy = r#"{"schema_version":4,"id":9,"cached":false,"micros":0,"queue_wait_ms":0.0,"compute_ms":0.0,"generation":0,"result":{"Error":{"code":"Overloaded","message":"queue full","retry_after_ms":0}}}"#;
    let parsed: Response = serde_json::from_str(legacy).unwrap();
    assert_eq!(parsed.shard, None);
    assert_eq!(parsed.schema_version, 4);
    assert_eq!(parsed.id, 9);
}

#[test]
fn suspicion_counters_are_additive_on_the_wire() {
    // A plain worker's report has no detector plane: no `suspicion` key,
    // byte-compatible with a v5 stats line.
    let m = Metrics::new();
    let mut report = m.report(PoolCounters::default(), 0, 0);
    let json = serde_json::to_string(&report).unwrap();
    assert!(!json.contains("suspicion"));
    assert_eq!(serde_json::from_str::<StatsReport>(&json).unwrap(), report);

    // A router overlays its detector plane's counters; they round-trip.
    report.suspicion = Some(SuspicionStats {
        probes_sent: 120,
        probe_failures: 4,
        suspects_raised: 1,
        suspects_cleared: 1,
        proactive_failovers: 9,
        hedges_fired: 3,
        hedges_won: 2,
        hedges_wasted: 1,
    });
    let json = serde_json::to_string(&report).unwrap();
    assert!(json.contains(r#""suspicion":{"probes_sent":120"#));
    assert_eq!(serde_json::from_str::<StatsReport>(&json).unwrap(), report);
}

#[test]
fn response_and_flush_counters_are_additive_on_the_wire() {
    let m = Metrics::new();
    assert_eq!((m.next_response(), m.next_response()), (1, 2));
    m.next_response();
    m.record_flush();
    let report = m.report(PoolCounters::default(), 0, 0);
    assert_eq!((report.responses, report.flushes), (3, 1));

    // Always written, after the fields older readers know and before the
    // optional `suspicion` block.
    let json = serde_json::to_string(&report).unwrap();
    assert!(json.ends_with(r#"],"responses":3,"flushes":1}"#), "{json}");
    assert_eq!(serde_json::from_str::<StatsReport>(&json).unwrap(), report);

    // A line from a server that predates them reads as zeros.
    let legacy = json.replace(r#","responses":3,"flushes":1"#, "");
    let parsed: StatsReport = serde_json::from_str(&legacy).unwrap();
    assert_eq!((parsed.responses, parsed.flushes), (0, 0));
    assert_eq!(parsed.endpoints, report.endpoints);
}

/// A stats report with every counter distinct, so a field written under
/// the wrong key or out of order shows in the pin.
fn stats_report() -> StatsReport {
    StatsReport {
        uptime_micros: 1_000,
        workers: 2,
        queue_depth: 1,
        queue_capacity: 64,
        overloaded: 3,
        deadline_exceeded: 4,
        idle_reaped: 5,
        oversized_rejected: 6,
        malformed_lines: 7,
        queue_wait_p50_micros: 8,
        queue_wait_p99_micros: 9,
        compute_p50_micros: 10,
        compute_p99_micros: 11,
        cache_entries: 12,
        cache_capacity: 256,
        steals: 13,
        deepest_queue: 14,
        cache_hit_rate: 0.5,
        endpoints: vec![EndpointStats {
            endpoint: "cell".to_string(),
            requests: 15,
            cache_hits: 16,
            errors: 17,
            p50_micros: 18,
            p99_micros: 19,
        }],
        responses: 20,
        flushes: 21,
        suspicion: None,
    }
}

#[test]
fn stats_report_encoding_is_pinned() {
    let core = r#"{"uptime_micros":1000,"workers":2,"queue_depth":1,"queue_capacity":64,"overloaded":3,"deadline_exceeded":4,"idle_reaped":5,"oversized_rejected":6,"malformed_lines":7,"queue_wait_p50_micros":8,"queue_wait_p99_micros":9,"compute_p50_micros":10,"compute_p99_micros":11,"cache_entries":12,"cache_capacity":256,"steals":13,"deepest_queue":14,"cache_hit_rate":0.5,"endpoints":[{"endpoint":"cell","requests":15,"cache_hits":16,"errors":17,"p50_micros":18,"p99_micros":19}],"responses":20,"flushes":21"#;

    // Without a detector plane: no `suspicion` key at all.
    let mut report = stats_report();
    let json = serde_json::to_string(&report).unwrap();
    assert_eq!(json, format!("{core}}}"));
    assert_eq!(serde_json::from_str::<StatsReport>(&json).unwrap(), report);

    // With one: the block comes last.
    report.suspicion = Some(SuspicionStats {
        probes_sent: 22,
        probe_failures: 23,
        suspects_raised: 24,
        suspects_cleared: 25,
        proactive_failovers: 26,
        hedges_fired: 27,
        hedges_won: 28,
        hedges_wasted: 29,
    });
    let json = serde_json::to_string(&report).unwrap();
    assert_eq!(
        json,
        format!(
            r#"{core},"suspicion":{{"probes_sent":22,"probe_failures":23,"suspects_raised":24,"suspects_cleared":25,"proactive_failovers":26,"hedges_fired":27,"hedges_won":28,"hedges_wasted":29}}}}"#
        )
    );
    assert_eq!(serde_json::from_str::<StatsReport>(&json).unwrap(), report);
}

#[test]
fn wrong_typed_values_under_defaulted_keys_are_refused() {
    // An optional key that is present decodes strictly: a wrong-typed
    // value is an error, never the key's default.
    let row = r#"{"shard":0,"addr":"127.0.0.1:7001","reachable":true,"generation":3,"report":null,"suspected":"yes"}"#;
    assert!(serde_json::from_str::<ShardHealth>(row).is_err());

    let response = r#"{"schema_version":6,"id":9,"cached":false,"micros":0,"queue_wait_ms":0.0,"compute_ms":0.0,"generation":0,"shard":"2","result":"Pong"}"#;
    assert!(serde_json::from_str::<Response>(response).is_err());
    // The same line with a well-typed stamp decodes, so the refusal
    // above is the stamp's type and nothing else.
    let stamped = response.replace(r#""shard":"2""#, r#""shard":2"#);
    assert_eq!(
        serde_json::from_str::<Response>(&stamped).unwrap().shard,
        Some(2)
    );

    let stats = serde_json::to_string(&stats_report())
        .unwrap()
        .replace(r#""responses":20"#, r#""responses":-1"#);
    assert!(serde_json::from_str::<StatsReport>(&stats).is_err());
}
