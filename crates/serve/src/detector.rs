//! The live failure-detector plane: φ-accrual shard suspicion over real
//! sockets.
//!
//! `ktudc-fd` classifies detectors inside the simulator, where the fault
//! schedule is a data structure. This module runs the *same* φ-accrual
//! math ([`PhiEstimator`], extracted from `ktudc_fd::impls::phi`) against
//! a real cluster: a [`DetectorPlane`] probes every shard on a fixed
//! cadence with the cheap schema-v6 [`Ping`](crate::wire::RequestKind::Ping)
//! request, feeds inter-arrival times (wall-clock milliseconds instead of
//! simulator ticks — φ is scale-free) into one estimator per shard, and
//! drives a three-state suspicion machine per shard:
//!
//! ```text
//!            φ ≥ suspect_threshold                heartbeat resumes
//! Healthy ─────────────────────────▶ Suspected ───────────────────────▶ Probation
//!    ▲                                  ▲                                   │
//!    │          probation window passes │ missed beat during probation      │
//!    └──────────────────────────────────┴───────────────────────────────────┘
//! ```
//!
//! Suspicion is *advisory, never authoritative*: a suspected shard is
//! demoted to the back of the replica order (proactive failover) and a
//! soft-suspected one may be hedged, but no request is ever dropped and
//! no answer is ever invented on the detector's say-so. A wrong
//! suspicion therefore costs latency (a detour through a replica), never
//! correctness — which is exactly the accuracy/completeness trade the
//! paper's detector classes price out, and why
//! `crates/serve/tests/fd_live.rs` can honestly measure which
//! [`EmpiricalClass`](ktudc_fd::EmpiricalClass) the live plane achieves
//! per wire regime without risking the serve plane's zero-wrong-answers contract.
//!
//! The plane is shared by the router (its `Stats` report grows a
//! [`SuspicionStats`] block, its `ClusterHealth` rows grow φ/suspected/
//! probation annotations) and by [`ClusterClient`](crate::cluster::ClusterClient)
//! (routing-time skip + hedged requests).

use crate::client::Client;
use crate::cluster::Membership;
use crate::metrics::SuspicionStats;
use crate::wire::ClusterHealthReport;
use ktudc_fd::PhiEstimator;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// RTT samples retained for the p99-derived hedge delay.
const RTT_RING: usize = 256;

/// Tuning of a [`DetectorPlane`].
#[derive(Clone, Copy, Debug)]
pub struct DetectorConfig {
    /// Heartbeat cadence: one `Ping` per shard per period. Also the
    /// probe's socket deadline, so one stalled probe delays the next
    /// beat by at most a period.
    pub probe_period: Duration,
    /// φ at which a shard becomes suspected (and is demoted at routing
    /// time). With a learned mean gap of one probe period, φ ≥ T means a
    /// silence of about `T · ln 10 ≈ 2.3 T` periods.
    pub suspect_threshold: f64,
    /// Soft threshold: a primary whose φ is in
    /// `[hedge_threshold, suspect_threshold)` is not yet skipped, but
    /// requests routed to it are hedged to the next replica after
    /// [`DetectorPlane::hedge_delay`].
    pub hedge_threshold: f64,
    /// How long a readmitted shard stays in probation. During probation
    /// the shard takes traffic again, but a single missed beat
    /// re-suspects it immediately (no φ hysteresis to climb).
    pub probation: Duration,
    /// Sliding gap window of each shard's [`PhiEstimator`].
    pub window: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            probe_period: Duration::from_millis(50),
            suspect_threshold: 4.0,
            hedge_threshold: 1.0,
            probation: Duration::from_millis(400),
            window: 16,
        }
    }
}

impl DetectorConfig {
    /// A faster cadence for tests and soaks (25ms beats, ~250ms probation).
    #[must_use]
    pub fn fast() -> Self {
        DetectorConfig {
            probe_period: Duration::from_millis(25),
            probation: Duration::from_millis(250),
            ..DetectorConfig::default()
        }
    }
}

/// One shard's view in the suspicion state machine.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mood {
    Healthy,
    Suspected,
    /// Readmitted; healthy again once `until_ms` passes without a
    /// missed beat.
    Probation {
        until_ms: f64,
    },
}

/// A point-in-time reading of one shard's suspicion state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardSuspicion {
    /// Current φ (suspicion level).
    pub phi: f64,
    /// Whether the shard is currently suspected (skipped at routing).
    pub suspected: bool,
    /// Whether the shard is readmitted but still inside its probation
    /// window.
    pub probation: bool,
}

struct ShardMonitor {
    estimator: PhiEstimator,
    mood: Mood,
    last_gen: Option<u64>,
}

/// Lock-free counters behind [`SuspicionStats`].
#[derive(Default)]
struct Counters {
    probes_sent: AtomicU64,
    probe_failures: AtomicU64,
    suspects_raised: AtomicU64,
    suspects_cleared: AtomicU64,
    proactive_failovers: AtomicU64,
    hedges_fired: AtomicU64,
    hedges_won: AtomicU64,
    hedges_wasted: AtomicU64,
}

/// The live failure-detector plane: one probe thread and one
/// [`PhiEstimator`] per shard, suspicion queried at routing time.
///
/// Probes read shard addresses from [`Membership`] at send time, so they
/// follow a restarted worker to its new port exactly like requests do —
/// and experience the same wire faults, because they traverse the same
/// addresses (including any chaos proxies a test interposed).
///
/// Dropping the plane (or calling [`DetectorPlane::stop`]) stops the
/// probe threads.
pub struct DetectorPlane {
    membership: Arc<Membership>,
    config: DetectorConfig,
    /// Epoch of the plane's millisecond clock.
    started: Instant,
    monitors: Vec<Mutex<ShardMonitor>>,
    counters: Counters,
    /// Recent probe round-trips, microseconds, for the hedge delay.
    rtts: Mutex<Vec<u64>>,
    stop: AtomicBool,
    probes: Mutex<Vec<JoinHandle<()>>>,
}

impl DetectorPlane {
    /// Starts a plane over `membership`: one monitor thread per shard,
    /// probing immediately.
    #[must_use]
    pub fn start(membership: Arc<Membership>, config: DetectorConfig) -> Arc<DetectorPlane> {
        let shards = membership.len();
        // The prior mean is one probe period plus slack, in milliseconds
        // — same role as the simulator detector's `period + 3` ticks.
        let prior_ms = (config.probe_period.as_secs_f64() * 1_000.0).max(1.0) * 1.5;
        let plane = Arc::new(DetectorPlane {
            membership,
            config,
            started: Instant::now(),
            monitors: (0..shards)
                .map(|_| {
                    Mutex::new(ShardMonitor {
                        estimator: PhiEstimator::new(prior_ms, config.window),
                        mood: Mood::Healthy,
                        last_gen: None,
                    })
                })
                .collect(),
            counters: Counters::default(),
            rtts: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            probes: Mutex::new(Vec::new()),
        });
        let handles: Vec<JoinHandle<()>> = (0..shards)
            .map(|shard| {
                let plane = Arc::clone(&plane);
                std::thread::spawn(move || plane.probe_loop(shard))
            })
            .collect();
        *plane.probes.lock().expect("probe handles poisoned") = handles;
        plane
    }

    /// The plane's tuning.
    #[must_use]
    pub fn config(&self) -> DetectorConfig {
        self.config
    }

    /// Stops the probe threads and waits for them to exit.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let handles = std::mem::take(&mut *self.probes.lock().expect("probe handles poisoned"));
        for h in handles {
            let _ = h.join();
        }
    }

    /// Milliseconds since the plane started, offset by 1 so the
    /// estimator's "never heard" sentinel (0) stays distinguishable.
    fn now_ms(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1_000.0 + 1.0
    }

    /// One shard's monitor loop: beat, account, assess, sleep.
    fn probe_loop(&self, shard: usize) {
        let mut conn: Option<Client> = None;
        while !self.stop.load(Ordering::SeqCst) {
            let round = Instant::now();
            self.counters.probes_sent.fetch_add(1, Ordering::Relaxed);
            let addr = self.membership.addr(shard);
            let result = (|| -> Result<u64, crate::client::ClientError> {
                if conn.is_none() && !addr.is_empty() {
                    conn = Some(Client::connect_with_timeout(
                        &addr,
                        Some(self.config.probe_period),
                    )?);
                }
                match conn.as_mut() {
                    Some(c) => c.ping(),
                    None => Err(crate::client::ClientError::Protocol(
                        "shard has not announced an address yet".to_string(),
                    )),
                }
            })();
            match result {
                Ok(generation) => {
                    let rtt = u64::try_from(round.elapsed().as_micros()).unwrap_or(u64::MAX);
                    let mut ring = self.rtts.lock().expect("rtt ring poisoned");
                    if ring.len() >= RTT_RING {
                        ring.remove(0);
                    }
                    ring.push(rtt);
                    drop(ring);
                    self.on_beat(shard, generation);
                }
                Err(_) => {
                    // A failed probe is a missed beat: drop the (possibly
                    // desynchronized) connection and let silence raise φ.
                    self.counters.probe_failures.fetch_add(1, Ordering::Relaxed);
                    conn = None;
                }
            }
            self.assess(shard);
            if let Some(remaining) = self.config.probe_period.checked_sub(round.elapsed()) {
                std::thread::sleep(remaining);
            }
        }
    }

    /// Folds a successful probe into the shard's estimator and state
    /// machine. A suspected shard whose heartbeats resume (and whose
    /// generation is thereby observed) is readmitted on probation; a
    /// generation *change* resets the estimator — the restarted worker's
    /// channel distribution starts over.
    fn on_beat(&self, shard: usize, generation: u64) {
        let now = self.now_ms();
        let mut m = self.monitors[shard].lock().expect("monitor lock poisoned");
        if m.last_gen.is_some_and(|g| g != generation) {
            m.estimator.reset();
        }
        m.last_gen = Some(generation);
        m.estimator.observe(now);
        if m.mood == Mood::Suspected {
            m.mood = Mood::Probation {
                until_ms: now + self.config.probation.as_secs_f64() * 1_000.0,
            };
            self.counters
                .suspects_cleared
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Advances one shard's state machine against the current clock.
    /// Called by the probe loop every round *and* by every query, so
    /// suspicion is raised on time even while the shard's probe thread
    /// is blocked inside a stalled read.
    fn assess(&self, shard: usize) -> ShardSuspicion {
        let now = self.now_ms();
        let mut m = self.monitors[shard].lock().expect("monitor lock poisoned");
        let phi = m.estimator.phi(now);
        match m.mood {
            Mood::Healthy => {
                if phi >= self.config.suspect_threshold {
                    m.mood = Mood::Suspected;
                    self.counters
                        .suspects_raised
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            Mood::Suspected => {}
            Mood::Probation { until_ms } => {
                // One missed beat re-suspects: 2.5 periods of silence is
                // a beat lost plus scheduling slack, far below the φ
                // threshold's ~2.3·T periods.
                let missed = now - m.estimator.last_arrival()
                    > self.config.probe_period.as_secs_f64() * 1_000.0 * 2.5;
                if missed {
                    m.mood = Mood::Suspected;
                    self.counters
                        .suspects_raised
                        .fetch_add(1, Ordering::Relaxed);
                } else if now >= until_ms {
                    m.mood = Mood::Healthy;
                }
            }
        }
        ShardSuspicion {
            phi,
            suspected: m.mood == Mood::Suspected,
            probation: matches!(m.mood, Mood::Probation { .. }),
        }
    }

    /// The current suspicion reading for `shard`.
    #[must_use]
    pub fn suspicion(&self, shard: usize) -> ShardSuspicion {
        self.assess(shard)
    }

    /// Whether `shard` is currently suspected (skip it at routing time).
    #[must_use]
    pub fn is_suspected(&self, shard: usize) -> bool {
        self.assess(shard).suspected
    }

    /// Whether a request routed to `shard` should be hedged: φ crossed
    /// the soft threshold but the shard is not (yet) suspected.
    #[must_use]
    pub fn should_hedge(&self, shard: usize) -> bool {
        let s = self.assess(shard);
        !s.suspected && s.phi >= self.config.hedge_threshold
    }

    /// Stable-partitions a replica order so unsuspected shards come
    /// first (suspected ones stay as the last resort, never dropped —
    /// suspicion must not be able to make the cluster refuse a request
    /// it could still serve). Returns whether the primary was demoted,
    /// which the caller should count as a proactive failover.
    #[must_use]
    pub fn prefer_unsuspected(&self, order: &mut Vec<usize>) -> bool {
        if order.is_empty() {
            return false;
        }
        let first = order[0];
        let (clear, suspected): (Vec<usize>, Vec<usize>) =
            order.iter().partition(|&&s| !self.is_suspected(s));
        if clear.is_empty() {
            return false;
        }
        *order = clear;
        order.extend(suspected);
        order[0] != first
    }

    /// The hedge delay: wait this long for the primary before firing the
    /// backup. Derived from the recent probe RTT distribution (3× the
    /// p99, clamped to `[2ms, 2 probe periods]`): a healthy primary
    /// answers well within it, a stalled one is hedged long before any
    /// request deadline.
    #[must_use]
    pub fn hedge_delay(&self) -> Duration {
        let ring = self.rtts.lock().expect("rtt ring poisoned");
        let p99 = if ring.is_empty() {
            0
        } else {
            let mut sorted = ring.clone();
            sorted.sort_unstable();
            sorted[(sorted.len() - 1) * 99 / 100]
        };
        drop(ring);
        let floor = Duration::from_millis(2);
        let cap = self.config.probe_period * 2;
        (Duration::from_micros(p99) * 3).clamp(floor, cap.max(floor))
    }

    /// Counts a request routed away from a suspected primary.
    pub fn note_proactive_failover(&self) {
        self.counters
            .proactive_failovers
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a hedge fired (backup request sent).
    pub fn note_hedge_fired(&self) {
        self.counters.hedges_fired.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a hedge whose backup won the race.
    pub fn note_hedge_won(&self) {
        self.counters.hedges_won.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a hedge whose primary answered first after all.
    pub fn note_hedge_wasted(&self) {
        self.counters.hedges_wasted.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the plane's counters, wire-ready.
    #[must_use]
    pub fn stats(&self) -> SuspicionStats {
        SuspicionStats {
            probes_sent: self.counters.probes_sent.load(Ordering::Relaxed),
            probe_failures: self.counters.probe_failures.load(Ordering::Relaxed),
            suspects_raised: self.counters.suspects_raised.load(Ordering::Relaxed),
            suspects_cleared: self.counters.suspects_cleared.load(Ordering::Relaxed),
            proactive_failovers: self.counters.proactive_failovers.load(Ordering::Relaxed),
            hedges_fired: self.counters.hedges_fired.load(Ordering::Relaxed),
            hedges_won: self.counters.hedges_won.load(Ordering::Relaxed),
            hedges_wasted: self.counters.hedges_wasted.load(Ordering::Relaxed),
        }
    }

    /// Stamps the plane's per-shard suspicion readings onto a cluster
    /// health report (rows are matched by shard index) and recomputes
    /// the `suspected_shards` aggregate.
    pub fn annotate(&self, report: &mut ClusterHealthReport) {
        for row in &mut report.shards {
            if row.shard >= self.monitors.len() {
                continue;
            }
            let s = self.assess(row.shard);
            row.phi = Some(s.phi);
            row.suspected = s.suspected;
            row.probation = s.probation;
        }
        report.suspected_shards = report.shards.iter().filter(|r| r.suspected).count();
    }
}

impl Drop for DetectorPlane {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve, ServeConfig};
    use crate::wire::{ClusterHealthReport, ShardHealth};

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
    fn live_shard_is_never_suspected_and_accrues_beats() {
        let server = serve(&ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("serve");
        let membership = Arc::new(Membership::new(vec![server.addr().to_string()]));
        // Default cadence: a false suspicion here would need ~460ms of
        // probe silence against a local in-process server.
        let plane = DetectorPlane::start(Arc::clone(&membership), DetectorConfig::default());
        assert!(wait_until(Duration::from_secs(5), || {
            plane.stats().probes_sent >= 8
        }));
        let s = plane.suspicion(0);
        assert!(!s.suspected, "a live shard must not be suspected");
        assert!(!s.probation);
        assert!(
            s.phi < plane.config().suspect_threshold,
            "φ {} at threshold on a healthy channel",
            s.phi
        );
        assert_eq!(plane.stats().suspects_raised, 0);
        assert!(!plane.should_hedge(0), "healthy primary must not hedge");
        plane.stop();
        server.shutdown();
    }

    #[test]
    fn dead_shard_is_suspected_then_readmitted_on_probation_when_it_heals() {
        // Start against a dead address: silence raises φ past the
        // threshold and the shard is suspected.
        let membership = Arc::new(Membership::new(vec!["127.0.0.1:1".to_string()]));
        let plane = DetectorPlane::start(Arc::clone(&membership), DetectorConfig::fast());
        assert!(
            wait_until(Duration::from_secs(10), || plane.is_suspected(0)),
            "a silent shard must be suspected"
        );
        let stats = plane.stats();
        assert!(stats.suspects_raised >= 1);
        assert!(stats.probe_failures >= 1);

        // The shard "recovers" (a fleet supervisor would re-announce it):
        // heartbeats resume, the shard is readmitted on probation, and
        // after a quiet probation window it is healthy again.
        let server = serve(&ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("serve");
        membership.set_addr(0, server.addr().to_string());
        assert!(
            wait_until(Duration::from_secs(10), || {
                let s = plane.suspicion(0);
                s.probation || !s.suspected
            }),
            "resumed heartbeats must clear the suspicion"
        );
        assert!(plane.stats().suspects_cleared >= 1);
        assert!(
            wait_until(Duration::from_secs(10), || {
                let s = plane.suspicion(0);
                !s.suspected && !s.probation
            }),
            "a quiet probation window must end in healthy"
        );
        plane.stop();
        server.shutdown();
    }

    #[test]
    fn prefer_unsuspected_demotes_but_never_drops() {
        let server = serve(&ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("serve");
        // Shard 0 dead, shard 1 alive.
        let membership = Arc::new(Membership::new(vec![
            "127.0.0.1:1".to_string(),
            server.addr().to_string(),
        ]));
        let plane = DetectorPlane::start(Arc::clone(&membership), DetectorConfig::fast());
        assert!(wait_until(Duration::from_secs(10), || plane.is_suspected(0)));

        let mut order = vec![0, 1];
        assert!(plane.prefer_unsuspected(&mut order), "primary demoted");
        assert_eq!(order, vec![1, 0], "suspected shard is last, not gone");

        let mut order = vec![1, 0];
        assert!(!plane.prefer_unsuspected(&mut order), "primary kept");
        assert_eq!(order, vec![1, 0]);

        // All suspected: the order is left alone entirely.
        let mut order = vec![0, 0];
        assert!(!plane.prefer_unsuspected(&mut order));
        assert_eq!(order, vec![0, 0]);
        plane.stop();
        server.shutdown();
    }

    #[test]
    fn hedge_delay_is_bounded_and_rtt_derived() {
        let membership = Arc::new(Membership::new(vec!["127.0.0.1:1".to_string()]));
        let plane = DetectorPlane::start(Arc::clone(&membership), DetectorConfig::fast());
        let delay = plane.hedge_delay();
        assert!(delay >= Duration::from_millis(2));
        assert!(delay <= plane.config().probe_period * 2);
        plane.stop();
    }

    #[test]
    fn annotate_stamps_rows_and_recounts_suspects() {
        let membership = Arc::new(Membership::new(vec!["127.0.0.1:1".to_string()]));
        let plane = DetectorPlane::start(Arc::clone(&membership), DetectorConfig::fast());
        assert!(wait_until(Duration::from_secs(10), || plane.is_suspected(0)));
        let mut report = ClusterHealthReport::aggregate(vec![ShardHealth::new(
            0,
            "127.0.0.1:1".to_string(),
            false,
            0,
            None,
        )]);
        assert_eq!(report.suspected_shards, 0);
        plane.annotate(&mut report);
        assert!(report.shards[0].suspected);
        assert!(report.shards[0].phi.is_some());
        assert_eq!(report.suspected_shards, 1);
        plane.stop();
    }
}
