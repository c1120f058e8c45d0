//! Live failure-detector soak: the φ-accrual detector plane under
//! wire-level chaos, audited end to end.
//!
//! A three-shard cluster runs with one shard behind a one-way
//! [`chaos_proxy`] partition (requests vanish upstream, so the worker
//! never even hears them — the classic asymmetric black hole). The
//! detector plane's heartbeats starve, φ climbs past the suspicion
//! threshold, and from then on routing skips the dead shard *before*
//! any request has to burn its timeout discovering the partition.
//! Throughout, the [`Auditor`] holds the serve plane to the uniform
//! contract:
//!
//! * **zero wrong answers** — every payload byte-identical to the
//!   direct computation, partition or not;
//! * **exactly-once compute** — the victim never computes (it never
//!   receives), each scenario is computed on exactly one replica, and
//!   any hedges fired along the way added no duplicate work
//!   (`hedges_never_double_compute`);
//! * **suspicion-triggered failover** — [`SuspicionStats`] shows the
//!   suspect raised before the audited campaign starts and proactive
//!   failovers serving the victim's keys during it;
//! * **readmission** — once the shard heals, heartbeats resume, it
//!   passes probation, returns to rotation, and serves byte-identical
//!   answers itself.

use ktudc::core::harness::{run_cell, CellSpec, FdChoice, ProtocolChoice};
use ktudc_serve::{
    chaos_proxy, serve, Auditor, Call, Client, ClusterClient, DetectorConfig, HashRing, Membership,
    RequestKind, ResponseKind, RetryPolicy, RouterConfig, ServeConfig, ServerCall, ServerHandle,
    Toxic, ToxicPlan,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 0x0b5e_55ed;
const SCENARIOS: usize = 8;

fn worker() -> (ServerHandle, SocketAddr) {
    let handle = serve(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 32,
        cache_capacity: 256,
        watchdog_tick_ms: 5,
        idle_timeout_ms: 60_000,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr();
    (handle, addr)
}

/// A cheap, always-valid cell, distinct per `i`.
fn scenario(i: usize) -> CellSpec {
    CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable)
        .trials(2)
        .horizon(300 + (i as u64) * 10)
}

/// Tight per-leg budget so a leg that does touch the partitioned shard
/// is bounded by one short exchange deadline, not a retry ladder.
fn tight_policy() -> RetryPolicy {
    RetryPolicy {
        request_timeout: Duration::from_millis(150),
        max_retries: 0,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        ..RetryPolicy::default()
    }
}

/// The soak's plane tuning: the fast test cadence, with the hedge band
/// raised to φ ≥ 2 (a ~115ms silence on a learned 25ms cadence). A
/// scheduler hiccup on a *healthy* shard must not fire a hedge into a
/// cold replica — that would compute the scenario a second time and
/// fail the exactly-once audit — while the victim's φ still crosses the
/// band on its way to suspicion, so hedging is exercised where it is
/// provably duplicate-free (the partitioned primary never computes).
fn soak_detector() -> DetectorConfig {
    DetectorConfig {
        hedge_threshold: 2.0,
        ..DetectorConfig::fast()
    }
}

fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let until = Instant::now() + deadline;
    while Instant::now() < until {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

#[test]
fn suspicion_drives_failover_hedging_and_readmission_under_partition() {
    let servers: Vec<(ServerHandle, SocketAddr)> = (0..3).map(|_| worker()).collect();
    // The victim is whichever shard owns scenario 0, so the partition is
    // guaranteed to sit on a routed path.
    let ring = HashRing::new(3);
    let victim = ring.shard_for(ClusterClient::shard_key(&RequestKind::Cell(scenario(0))));
    // One-way partition from the first frame: the victim's worker never
    // receives a byte (requests and heartbeats alike); its responses
    // direction is irrelevant since nothing ever reaches it.
    let mut proxy = chaos_proxy(
        servers[victim].1.to_string(),
        ToxicPlan::none().upstream(Toxic::Partition {
            start: 0,
            until: None,
        }),
        SEED,
    )
    .expect("proxy binds");
    let addrs: Vec<String> = (0..3)
        .map(|s| {
            if s == victim {
                proxy.addr().to_string()
            } else {
                servers[s].1.to_string()
            }
        })
        .collect();
    let membership = Arc::new(Membership::new(addrs));
    let cluster =
        ClusterClient::new(Arc::clone(&membership), tight_policy()).with_detector(soak_detector());
    let plane = Arc::clone(cluster.detector().expect("plane attached"));

    let audit = Auditor::new().with_latency_bound_ms(10_000);
    let kinds: Vec<RequestKind> = (0..SCENARIOS)
        .map(|i| RequestKind::Cell(scenario(i)))
        .collect();
    for kind in &kinds {
        let RequestKind::Cell(spec) = kind else {
            unreachable!()
        };
        audit.expect(kind, &ResponseKind::Cell(run_cell(spec)));
    }
    let victim_owned: Vec<&RequestKind> = kinds
        .iter()
        .filter(|k| cluster.route(k) == victim)
        .collect();
    assert!(
        !victim_owned.is_empty(),
        "the victim must own at least scenario 0"
    );

    // Phase 1 — the φ climb. Requests flow while the plane is still
    // learning the victim is gone: the early ones pay the reactive
    // timeout, the soft-band ones get hedged to the next replica, and
    // every answer must already be byte-perfect. The loop runs until the
    // suspicion threshold trips.
    let suspected = |plane: &ktudc_serve::DetectorPlane| plane.suspicion(victim).suspected;
    let climb_deadline = Instant::now() + Duration::from_secs(20);
    while !suspected(&plane) {
        assert!(
            Instant::now() < climb_deadline,
            "victim was never suspected: {:?}",
            plane.stats()
        );
        for kind in &kinds {
            let started = Instant::now();
            match (&cluster).request_with_options((*kind).clone(), Default::default()) {
                Ok(resp) => audit.record_response(kind, &resp, started.elapsed()),
                Err(e) => audit.record_client_error(kind, &e, started.elapsed()),
            }
            if suspected(&plane) {
                break;
            }
        }
    }
    let at_suspicion = plane.stats();
    assert!(
        at_suspicion.suspects_raised >= 1,
        "suspicion must be raised by the plane, not inferred: {at_suspicion:?}"
    );
    assert!(at_suspicion.probes_sent > 0 && at_suspicion.probe_failures > 0);

    // Phase 2 — the audited campaign under active suspicion. Proactive
    // failover routes the victim's keys straight to replicas: every
    // request succeeds, well inside the client deadline, with the
    // failovers showing up in SuspicionStats as suspicion-triggered
    // (proactive), not timeout-triggered.
    let proactive_before = plane.stats().proactive_failovers;
    for kind in &kinds {
        let started = Instant::now();
        let resp = (&cluster)
            .request_with_options((*kind).clone(), Default::default())
            .expect("an audited request under suspicion must not fail");
        assert_ne!(
            resp.shard,
            Some(victim),
            "a suspected shard must not answer"
        );
        audit.record_response(kind, &resp, started.elapsed());
    }
    let after_campaign = plane.stats();
    assert!(
        after_campaign.proactive_failovers >= proactive_before + victim_owned.len() as u64,
        "every victim-owned key must fail over proactively: {after_campaign:?}"
    );
    // A batch asks the detector too: the victim's keys go straight to a
    // replica instead of paying the victim's deadline first. Each key is
    // sent twice, so that the batch has at least two requests and takes
    // the sub-batch path (a batch of one is sent as a single request);
    // every key is cached by now, so the repeat computes nothing.
    let batched: Vec<&RequestKind> = victim_owned.iter().flat_map(|&k| [k, k]).collect();
    let batch_before = plane.stats().proactive_failovers;
    let started = Instant::now();
    let batch = (&cluster)
        .batch(batched.iter().map(|k| (*k).clone()).collect())
        .expect("a batch under suspicion must not fail");
    assert_eq!(batch.len(), batched.len());
    for (kind, resp) in batched.iter().zip(&batch) {
        assert_ne!(
            resp.shard,
            Some(victim),
            "a suspected shard must not answer"
        );
        audit.record_response(kind, resp, started.elapsed());
    }
    let after_batch = plane.stats();
    assert!(
        after_batch.proactive_failovers >= batch_before + batched.len() as u64,
        "every victim-owned key in a batch must fail over proactively: {after_batch:?}"
    );

    // Exactly-once, summed across the fleet: the victim computed nothing
    // (it never received a request), each scenario landed exactly once
    // on some replica, and the hedges fired during the soft band bought
    // races, not duplicate work.
    let mut computed = 0u64;
    let mut stuck = 0u64;
    for (_, addr) in &servers {
        let mut probe = Client::connect(*addr).expect("direct probe");
        let health = probe.health().expect("health");
        computed += health.cache_entries as u64;
        stuck += health.stuck_workers;
    }
    audit.note_computed(computed);
    audit.note_stuck_connections(stuck);
    audit.note_hedges(after_campaign.hedges_fired);
    let report = audit.report();
    assert!(report.passed, "uniform invariants violated: {report:?}");
    assert_eq!(report.exactly_once, Some(true), "{report:?}");
    assert_eq!(report.hedges_never_double_compute, Some(true), "{report:?}");
    assert_eq!(report.wrong_answers, 0);

    // Phase 3 — readmission. The partition "heals" the way a fleet heals
    // it: the shard re-announces a reachable address. Heartbeats resume,
    // suspicion clears into probation, the probation window passes
    // quietly, and the shard is back in rotation serving byte-identical
    // answers itself.
    membership.set_addr(victim, servers[victim].1.to_string());
    assert!(
        wait_until(Duration::from_secs(20), || {
            let s = plane.suspicion(victim);
            !s.suspected && !s.probation
        }),
        "healed shard was never readmitted: {:?}",
        plane.suspicion(victim)
    );
    assert!(plane.stats().suspects_cleared >= 1);
    // Every answer stays byte-identical through the handover, and the
    // victim *eventually* answers its own keys again. ("Eventually"
    // because a residual soft-band hedge can legitimately let a warm
    // replica cache win one more race — correct either way, the ledger
    // checks the bytes regardless of who served them.)
    for kind in &victim_owned {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let started = Instant::now();
            let resp = (&cluster)
                .request_with_options((*kind).clone(), Default::default())
                .expect("readmitted cluster must serve");
            audit.record_response(kind, &resp, started.elapsed());
            if resp.shard == Some(victim) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "victim never resumed ownership of its keys: {:?}",
                plane.suspicion(victim)
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    // The readmitted shard's answers went through the same ledger:
    // still zero wrong answers, byte for byte.
    let report = audit.report();
    assert_eq!(report.wrong_answers, 0, "{report:?}");
    assert!(report.zero_wrong_answers);

    proxy.shutdown();
    for (handle, _) in servers {
        handle.shutdown();
        handle.join();
    }
}

#[test]
fn router_detector_demotes_a_partitioned_shard_and_reports_suspicion() {
    use ktudc_serve::serve_router;

    let servers: Vec<(ServerHandle, SocketAddr)> = (0..2).map(|_| worker()).collect();
    let ring = HashRing::new(2);
    let victim = ring.shard_for(ClusterClient::shard_key(&RequestKind::Cell(scenario(0))));
    let mut proxy = chaos_proxy(
        servers[victim].1.to_string(),
        ToxicPlan::none().upstream(Toxic::Partition {
            start: 0,
            until: None,
        }),
        SEED,
    )
    .expect("proxy binds");
    let addrs: Vec<String> = (0..2)
        .map(|s| {
            if s == victim {
                proxy.addr().to_string()
            } else {
                servers[s].1.to_string()
            }
        })
        .collect();
    let router = serve_router(
        &RouterConfig {
            policy: tight_policy(),
            workers: 4,
            detector: Some(soak_detector()),
            ..RouterConfig::default()
        },
        Arc::new(Membership::new(addrs)),
    )
    .expect("router");

    assert!(
        wait_until(Duration::from_secs(20), || {
            router
                .suspicion_stats()
                .is_some_and(|s| s.suspects_raised >= 1)
        }),
        "the router's plane must suspect the partitioned shard: {:?}",
        router.suspicion_stats()
    );

    // Under suspicion, the victim's keys are answered by the replica
    // without failing, and the forward was proactive.
    let mut client = Client::connect(router.addr()).expect("connect");
    let before = router
        .suspicion_stats()
        .expect("plane on")
        .proactive_failovers;
    for i in 0..SCENARIOS {
        let spec = scenario(i);
        let truth = run_cell(&spec);
        let resp = client
            .request(RequestKind::Cell(spec))
            .expect("routed around the partition");
        assert_ne!(resp.shard, Some(victim), "suspected shard must be demoted");
        assert_eq!(resp.result, ResponseKind::Cell(truth), "scenario {i}");
    }
    let stats = router.suspicion_stats().expect("plane on");
    assert!(
        stats.proactive_failovers > before,
        "victim-owned keys must demote proactively: {stats:?}"
    );
    assert!(router.failovers() > 0);

    // The suspicion plane is visible over the wire: Stats carries the
    // counters, ClusterHealth carries per-shard φ and the suspect flag.
    let wire_stats = client.stats().expect("stats");
    let suspicion = wire_stats.suspicion.expect("router stats carry suspicion");
    assert!(suspicion.suspects_raised >= 1);
    assert!(suspicion.probes_sent > 0);
    let health = client.cluster_health().expect("cluster health");
    assert_eq!(health.suspected_shards, 1, "{health:?}");
    assert!(health.shards[victim].suspected);
    assert!(health.shards[victim].phi.is_some());
    let other = 1 - victim;
    assert!(!health.shards[other].suspected);

    drop(client);
    router.shutdown();
    router.join();
    proxy.shutdown();
    for (handle, _) in servers {
        handle.shutdown();
        handle.join();
    }
}
