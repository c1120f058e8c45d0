//! The live failure-detector plane (`serve::detector`) classified
//! against the paper's detector hierarchy, one wire regime at a time.
//!
//! In every regime a 3-shard cluster runs with one shard (the owner of
//! scenario 0) black-holed from frame zero — the "crash" — while the
//! live shards' links carry the regime's toxic. The plane's per-shard
//! suspicion states are sampled into the completeness and accuracy
//! booleans the simulated zoo derives from run transcripts, and
//! condensed through [`condense_class`]: the live plane earns a class per
//! wire regime the way a simulated detector earns one per fault regime.
//! Every regime must be classified (strong completeness held live).
//!
//! An audited campaign then runs under active suspicion and holds the
//! cluster to the uniform invariants: no answer from the suspected
//! shard, zero wrong answers, exactly-once compute across the fleet, and
//! hedges that never cost a second computation.

use ktudc_core::harness::{run_cell, CellSpec, FdChoice, ProtocolChoice};
use ktudc_fd::{condense_class, EmpiricalClass};
use ktudc_serve::{
    chaos_proxy, serve, Auditor, Call, ChaosProxy, Client, ClusterClient, DetectorConfig, HashRing,
    Membership, RequestKind, ResponseKind, RetryPolicy, ServeConfig, ServerCall, Toxic, ToxicPlan,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 0x0fd1_1fe5;
const SHARDS: usize = 3;
const SCENARIOS: usize = 6;

fn scenario(i: usize) -> RequestKind {
    RequestKind::Cell(
        CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable)
            .trials(2)
            .horizon(150 + i as u64 * 10),
    )
}

/// The toxic a shard's link carries in `regime`, if any.
fn plan(regime: &str, shard: usize, victim: usize, flaky: usize) -> Option<ToxicPlan> {
    if shard == victim {
        // The crash: requests and heartbeats vanish from frame zero; the
        // worker never even hears them.
        Some(ToxicPlan::none().upstream(Toxic::Partition {
            start: 0,
            until: None,
        }))
    } else if regime == "delay_spikes" {
        // Heartbeat pongs stalled 30ms every 4th frame — well under the
        // ~230ms suspicion silence, so a well-tuned φ rides it out.
        Some(ToxicPlan::none().downstream(Toxic::DelaySpike {
            period: 4,
            width: 1,
            extra: Duration::from_millis(30),
        }))
    } else if regime == "flaky_partition" && shard == flaky {
        // A bounded black hole on a live shard's probe path (~20 beats):
        // long enough to force a false suspicion, which must then clear
        // through probation once frames flow again.
        Some(ToxicPlan::none().upstream(Toxic::Partition {
            start: 10,
            until: Some(30),
        }))
    } else {
        None
    }
}

#[test]
fn every_wire_regime_classifies_the_live_plane_and_passes_its_audit() {
    // Fast cadence with the hedge band raised to φ ≥ 2 (~115ms silence
    // on a learned 25ms cadence): a scheduler hiccup on a healthy shard
    // must not fire a hedge into a cold replica — that would compute the
    // scenario a second time and fail the exactly-once audit — while the
    // victim's φ still crosses the band on its way to suspicion, where
    // the hedge is duplicate-free (a partitioned primary never computes).
    let config = DetectorConfig {
        hedge_threshold: 2.0,
        ..DetectorConfig::fast()
    };
    // One short exchange deadline per leg, no retry ladder: failover
    // latency is the detector's to win, not the retry budget's.
    let policy = RetryPolicy {
        request_timeout: Duration::from_millis(150),
        max_retries: 0,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        ..RetryPolicy::default()
    };
    let kinds: Vec<RequestKind> = (0..SCENARIOS).map(scenario).collect();
    let victim = HashRing::new(SHARDS).shard_for(ClusterClient::shard_key(&kinds[0]));
    let flaky = (0..SHARDS).find(|&s| s != victim).expect("three shards");

    for regime in ["clean", "delay_spikes", "flaky_partition"] {
        let workers: Vec<_> = (0..SHARDS)
            .map(|_| {
                serve(&ServeConfig {
                    addr: "127.0.0.1:0".to_string(),
                    workers: 2,
                    queue_capacity: 32,
                    cache_capacity: 256,
                    watchdog_tick_ms: 5,
                    ..ServeConfig::default()
                })
                .expect("bind ephemeral port")
            })
            .collect();
        let mut proxies: Vec<ChaosProxy> = Vec::new();
        let addrs: Vec<String> = (0..SHARDS)
            .map(|s| match plan(regime, s, victim, flaky) {
                Some(plan) => {
                    let proxy = chaos_proxy(workers[s].addr().to_string(), plan, SEED)
                        .expect("proxy binds");
                    let addr = proxy.addr().to_string();
                    proxies.push(proxy);
                    addr
                }
                None => workers[s].addr().to_string(),
            })
            .collect();
        let cluster =
            ClusterClient::new(Arc::new(Membership::new(addrs)), policy).with_detector(config);
        let plane = Arc::clone(cluster.detector().expect("plane attached"));

        let audit = Auditor::new().with_latency_bound_ms(20_000);
        for kind in &kinds {
            let RequestKind::Cell(spec) = kind else {
                unreachable!()
            };
            audit.expect(kind, &ResponseKind::Cell(run_cell(spec)));
        }

        // Clean wire only: requests issued while the victim's φ climbs
        // through the hedge band exercise live hedging. On regimes that
        // drop frames on live links a sweep here could land a computation
        // on a replica mid-window and muddy the exactly-once ledger, so
        // those regimes campaign only after the plane settles.
        if regime == "clean" {
            for kind in &kinds {
                let t = Instant::now();
                match (&cluster).request_with_options(kind.clone(), Default::default()) {
                    Ok(r) => audit.record_response(kind, &r, t.elapsed()),
                    Err(e) => audit.record_client_error(kind, &e, t.elapsed()),
                }
            }
        }

        // The classification watch: sample every shard's suspicion until
        // the crash is detected — and, on the flaky regime, the false
        // suspicion has come and gone.
        let mut ever = [false; SHARDS];
        let hard_deadline = Instant::now() + Duration::from_secs(20);
        let settle_deadline = Instant::now() + Duration::from_secs(8);
        loop {
            for (s, seen) in ever.iter_mut().enumerate() {
                *seen |= plane.suspicion(s).suspected;
            }
            let crash_detected = plane.suspicion(victim).suspected;
            let flaky_settled = regime != "flaky_partition" || {
                let s = plane.suspicion(flaky);
                (ever[flaky] && !s.suspected && !s.probation) || Instant::now() > settle_deadline
            };
            if (crash_detected && flaky_settled) || Instant::now() > hard_deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let live = |s: usize| s != victim;
        let strong_completeness = plane.suspicion(victim).suspected;
        assert!(
            strong_completeness,
            "regime `{regime}`: the black-holed shard was never suspected: {:?}",
            plane.stats()
        );
        let class = condense_class(
            strong_completeness,
            (0..SHARDS).all(|s| !live(s) || !ever[s]),
            (0..SHARDS).any(|s| live(s) && !ever[s]),
            (0..SHARDS).all(|s| !live(s) || !plane.suspicion(s).suspected),
            (0..SHARDS).any(|s| live(s) && !plane.suspicion(s).suspected),
        );
        assert_ne!(
            class,
            EmpiricalClass::Unclassified,
            "regime `{regime}` left the live detector unclassified"
        );

        // The audited campaign under active suspicion: the victim's keys
        // fail over proactively, everything is answered.
        for kind in &kinds {
            let t = Instant::now();
            let response = (&cluster)
                .request_with_options(kind.clone(), Default::default())
                .expect("campaign request under suspicion");
            assert_ne!(
                response.shard,
                Some(victim),
                "regime `{regime}`: a suspected shard answered"
            );
            audit.record_response(kind, &response, t.elapsed());
        }

        // Exactly-once, summed across the fleet by direct probes: the
        // victim computed nothing, each scenario landed exactly once.
        let mut computed = 0u64;
        let mut stuck = 0u64;
        for handle in &workers {
            let health = Client::connect(handle.addr())
                .expect("direct probe")
                .health()
                .expect("health");
            computed += health.cache_entries as u64;
            stuck += health.stuck_workers;
        }
        audit.note_computed(computed);
        audit.note_stuck_connections(stuck);
        audit.note_hedges(plane.stats().hedges_fired);
        let report = audit.report();
        assert!(
            report.passed,
            "regime `{regime}` failed its audit: {report:?}"
        );
        assert_eq!(report.wrong_answers, 0, "regime `{regime}`");
        assert_eq!(report.exactly_once, Some(true), "regime `{regime}`");
        assert_eq!(
            report.hedges_never_double_compute,
            Some(true),
            "regime `{regime}`"
        );

        drop(cluster);
        for mut proxy in proxies {
            proxy.shutdown();
        }
        for handle in workers {
            handle.shutdown();
            handle.join();
        }
    }
}
