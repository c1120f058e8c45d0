//! Message-fed failure detectors and the two-plane runner that hosts them.
//!
//! The oracles of [`crate::oracle`] answer from the ground truth; a
//! [`Detector`] must *earn* its suspicions from observable behavior — the
//! arrival (or ominous non-arrival) of messages on real channels, with real
//! delays, loss, and injected faults. This module defines the per-process
//! detector interface and [`run_detected`], a variant of
//! [`run_protocol`](crate::runner::run_protocol) that runs one detector
//! instance *inside* each process and feeds it from a dedicated
//! detector-plane [`Network`].
//!
//! # The two planes
//!
//! Detector traffic (heartbeats, gossip digests) is kept on its own
//! [`Network`] instance — the *detector plane* — with the same
//! [`ChannelKind`](crate::ChannelKind) and the same
//! [`FaultPlan`](crate::FaultPlan) windows as the protocol plane, but a
//! dedicated RNG stream (`seed ^ DETECTOR_STREAM_SALT`). Two reasons:
//!
//! 1. **R2 stays intact.** A heartbeat detector emits `n−1` copies per
//!    period per process; metering that through the one-event-per-tick
//!    budget would starve the protocol under test. Plane separation models
//!    the standard deployment where failure detection runs beside the
//!    application, not inside its event loop.
//! 2. **Run shape is preserved.** Only the periodic `suspect_p(·)` reports
//!    enter the [`Run`] — at the same staggered
//!    `fd_period` cadence, consuming the same event slot, as oracle
//!    reports. The property checkers of `ktudc-fd` therefore classify a
//!    derived detector and a ground-truth oracle on identical evidence.
//!
//! Window-based faults (delay spikes, bursts, partitions, severed links)
//! are time-deterministic, so both planes experience the same outage
//! windows; only per-copy randomness (loss coins, delays, duplication)
//! differs between the streams.

use crate::config::{SimConfig, Workload};
use crate::faults::FaultStats;
use crate::network::Network;
use crate::protocol::Protocol;
use crate::runner::{ProtocolPlane, SimOutcome};
use ktudc_model::{ProcessId, Run, SuspectReport, Time};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hash::Hash;

/// XOR-salt separating the detector plane's RNG stream (channel coins,
/// gossip peer choices, fault injections) from the scheduler's stream, so
/// adding a detector never perturbs the protocol plane's randomness.
pub const DETECTOR_STREAM_SALT: u64 = 0xbea7_5eed_0b5e_6ed5;

/// A per-process, message-fed failure detector.
///
/// One instance runs inside each process. It may only learn from what the
/// runner tells it: its own clock ticks and the detector-plane messages it
/// receives. It must *not* consult the fault schedule — that is what
/// distinguishes it from an [`FdOracle`](crate::FdOracle).
///
/// Implementations must be deterministic given the provided RNG (the
/// runner's dedicated detector stream) so simulations reproduce.
pub trait Detector {
    /// The detector-plane message type (heartbeats, counter vectors, …).
    type Msg: Clone + Eq + Hash;

    /// Called once before the run starts.
    fn start(&mut self, me: ProcessId, n: usize);

    /// Called every tick while the process is alive; returns the
    /// detector-plane messages to send this tick (possibly none). The RNG
    /// is the dedicated detector stream.
    fn on_tick(&mut self, now: Time, rng: &mut StdRng) -> Vec<(ProcessId, Self::Msg)>;

    /// Called for every detector-plane message delivered to this process.
    fn on_recv(&mut self, now: Time, from: ProcessId, msg: &Self::Msg);

    /// The detector's current verdict, polled at the scheduler's staggered
    /// `fd_period` cadence and appended to the run as `suspect_p(·)`.
    fn report(&mut self, now: Time) -> SuspectReport;

    /// Short human-readable name ("heartbeat", "phi-accrual", …).
    fn name(&self) -> &'static str {
        "unnamed"
    }
}

/// Boxed detectors are detectors, so dynamically chosen implementations
/// (and contract-violating wrappers) compose.
impl<M: Clone + Eq + Hash> Detector for Box<dyn Detector<Msg = M>> {
    type Msg = M;

    fn start(&mut self, me: ProcessId, n: usize) {
        (**self).start(me, n);
    }

    fn on_tick(&mut self, now: Time, rng: &mut StdRng) -> Vec<(ProcessId, M)> {
        (**self).on_tick(now, rng)
    }

    fn on_recv(&mut self, now: Time, from: ProcessId, msg: &M) {
        (**self).on_recv(now, from, msg);
    }

    fn report(&mut self, now: Time) -> SuspectReport {
        (**self).report(now)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// The outcome of one detector-fed run: the protocol plane's
/// [`SimOutcome`] plus the detector plane's traffic accounting.
#[derive(Clone, Debug)]
pub struct DetectedOutcome<M> {
    /// The protocol-plane outcome; `sim.run` carries the detector's
    /// suspicion history in its `suspect` events.
    pub sim: SimOutcome<M>,
    /// Detector-plane copies handed to its network.
    pub fd_messages_sent: u64,
    /// Detector-plane copies lost (channel loss, faults, receiver crash).
    pub fd_messages_dropped: u64,
    /// What the fault engine injected on the detector plane.
    pub fd_faults: FaultStats,
}

impl<M> DetectedOutcome<M> {
    /// The generated run (convenience passthrough).
    #[must_use]
    pub fn run(&self) -> &Run<M> {
        &self.sim.run
    }
}

/// Runs `make(p)`-built protocols exactly as
/// [`run_protocol`](crate::runner::run_protocol) does, but wires each
/// process to its own `make_detector(p)` instance instead of a shared
/// oracle. Detector traffic flows on a dedicated plane (see module docs);
/// the periodic `suspect_p(·)` reports consume the same event slot, at the
/// same staggered cadence, as oracle reports would.
///
/// Identical inputs (including [`SimConfig::seed`]) produce identical runs.
///
/// # Panics
///
/// Panics under the same conditions as `run_protocol` (malformed workload
/// ownership or crash plan).
pub fn run_detected<M, P, F, D, G>(
    config: &SimConfig,
    make: F,
    make_detector: G,
    workload: &Workload,
) -> DetectedOutcome<M>
where
    M: Clone + Eq + Hash,
    P: Protocol<M>,
    F: Fn(ProcessId) -> P,
    D: Detector,
    G: Fn(ProcessId) -> D,
{
    let n = config.n();
    let mut det_rng = StdRng::seed_from_u64(config.seed_value() ^ DETECTOR_STREAM_SALT);
    let mut plane = ProtocolPlane::new(config, make, workload);
    let mut detectors: Vec<D> = ProcessId::all(n)
        .map(|p| {
            let mut det = make_detector(p);
            det.start(p, n);
            det
        })
        .collect();
    let mut fd_net: Network<D::Msg> = Network::new(n);
    let kind = config.channel_kind();
    let inject = !config.fault_plan().is_empty();
    // The detector plane sees the same fault *windows* (they are functions
    // of time and link only) but draws its per-copy randomness from its
    // own armed engine, keyed off the salted seed.
    let mut fd_faults = config
        .fault_plan()
        .activate(config.seed_value() ^ DETECTOR_STREAM_SALT);

    for t in 1..=config.horizon_ticks() {
        plane.begin_tick(t);
        // Detector plane: slot-free. Crash takes effect at the top of the
        // tick here — a process crashing at t sends no dying heartbeat.
        for p in ProcessId::all(n) {
            if plane.truth().crash_time(p).is_some_and(|ct| ct <= t) {
                continue;
            }
            // Drain every arrival due by now, then let the detector speak.
            while let Some((from, msg)) = fd_net.deliver_one(p, t) {
                detectors[p.index()].on_recv(t, from, &msg);
            }
            for (to, msg) in detectors[p.index()].on_tick(t, &mut det_rng) {
                if inject {
                    fd_net.send_faulty(p, to, msg, t, kind, &mut det_rng, &mut fd_faults);
                } else {
                    fd_net.send(p, to, msg, t, kind, &mut det_rng);
                }
            }
        }
        // Protocol plane: the scheduler slot of `run_protocol`, with the
        // process's own detector answering the FD poll.
        for p in ProcessId::all(n) {
            let crashed_now = plane.slot(p, t, |_, _| Some(detectors[p.index()].report(t)));
            if crashed_now {
                fd_net.drop_all_to(p);
            }
        }
    }

    // Quiescence is a *protocol-plane* notion: heartbeat traffic never
    // stops, so the detector plane is deliberately excluded.
    DetectedOutcome {
        sim: plane.finish(),
        fd_messages_sent: fd_net.sent_count(),
        fd_messages_dropped: fd_net.dropped_count(),
        fd_faults: fd_faults.into_stats(),
    }
}

/// One detector-fed run per seed, in parallel (feature `parallel`;
/// sequential and bit-identical otherwise). Element `i` equals
/// `run_detected(&config.clone().seed(seeds[i]), ..)` with fresh factories.
pub fn run_detected_batch<M, P, F, D, G>(
    config: &SimConfig,
    seeds: &[u64],
    make: F,
    make_detector: G,
    workload: &Workload,
) -> Vec<DetectedOutcome<M>>
where
    M: Clone + Eq + Hash + Send,
    P: Protocol<M>,
    F: Fn(ProcessId) -> P + Sync,
    D: Detector,
    G: Fn(ProcessId) -> D + Sync,
{
    ktudc_par::par_map(seeds.to_vec(), |seed| {
        let cfg = config.clone().seed(seed);
        run_detected(&cfg, &make, &make_detector, workload)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChannelKind, CrashPlan};
    use crate::faults::FaultPlan;
    use crate::protocol::ProtoAction;
    use ktudc_model::{Event, ProcSet};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// A protocol that does nothing: the run is crashes + suspect reports.
    #[derive(Clone, Debug)]
    struct Idle;

    impl Protocol<u8> for Idle {
        fn start(&mut self, _me: ProcessId, _n: usize) {}
        fn observe(&mut self, _time: Time, _event: &Event<u8>) {}
        fn next_action(&mut self, _time: Time) -> Option<ProtoAction<u8>> {
            None
        }
        fn quiescent(&self) -> bool {
            true
        }
    }

    /// Minimal honest detector: broadcast a beat every 4 ticks, suspect
    /// whoever has been silent longer than 12 ticks.
    #[derive(Clone, Debug)]
    struct TestBeat {
        me: ProcessId,
        n: usize,
        last_heard: Vec<Time>,
    }

    impl TestBeat {
        fn new() -> Self {
            TestBeat {
                me: ProcessId::new(0),
                n: 0,
                last_heard: Vec::new(),
            }
        }
    }

    impl Detector for TestBeat {
        type Msg = u8;

        fn start(&mut self, me: ProcessId, n: usize) {
            self.me = me;
            self.n = n;
            self.last_heard = vec![0; n];
        }

        fn on_tick(&mut self, now: Time, _rng: &mut StdRng) -> Vec<(ProcessId, u8)> {
            if (now + self.me.index() as Time).is_multiple_of(4) {
                ProcessId::all(self.n)
                    .filter(|&q| q != self.me)
                    .map(|q| (q, 0u8))
                    .collect()
            } else {
                Vec::new()
            }
        }

        fn on_recv(&mut self, now: Time, from: ProcessId, _msg: &u8) {
            self.last_heard[from.index()] = now;
        }

        fn report(&mut self, now: Time) -> SuspectReport {
            let suspects: ProcSet = ProcessId::all(self.n)
                .filter(|&q| q != self.me && now.saturating_sub(self.last_heard[q.index()]) > 12)
                .collect();
            SuspectReport::Standard(suspects)
        }

        fn name(&self) -> &'static str {
            "test-beat"
        }
    }

    fn reports_of(run: &Run<u8>, p: ProcessId) -> Vec<(Time, ProcSet)> {
        run.timed_history(p)
            .filter_map(|(t, e)| match e {
                Event::Suspect(SuspectReport::Standard(s)) => Some((t, *s)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn determinism_per_seed() {
        let config = SimConfig::new(3)
            .channel(ChannelKind::fair_lossy(0.2))
            .crashes(CrashPlan::at(&[(2, 30)]))
            .faults(FaultPlan::none().delay_spikes(40, 10, 8))
            .horizon(120)
            .seed(7);
        let w = Workload::none();
        let a = run_detected(&config, |_| Idle, |_| TestBeat::new(), &w);
        let b = run_detected(&config, |_| Idle, |_| TestBeat::new(), &w);
        assert_eq!(a.sim.run, b.sim.run);
        assert_eq!(a.fd_messages_sent, b.fd_messages_sent);
        assert_eq!(a.fd_faults, b.fd_faults);
        let c = run_detected(&config.clone().seed(8), |_| Idle, |_| TestBeat::new(), &w);
        assert_ne!(a.sim.run, c.sim.run, "different seeds should diverge");
    }

    #[test]
    fn reports_arrive_at_the_staggered_oracle_cadence() {
        let config = SimConfig::new(3).horizon(40).seed(1);
        let out = run_detected(&config, |_| Idle, |_| TestBeat::new(), &Workload::none());
        for q in ProcessId::all(3) {
            let ticks: Vec<Time> = reports_of(&out.sim.run, q)
                .iter()
                .map(|&(t, _)| t)
                .collect();
            assert!(!ticks.is_empty());
            for t in &ticks {
                assert!(
                    (*t + q.index() as Time).is_multiple_of(4),
                    "{q} reported off-cadence at {t}"
                );
            }
        }
    }

    #[test]
    fn crashed_process_goes_silent_and_gets_suspected() {
        let config = SimConfig::new(3)
            .crashes(CrashPlan::at(&[(1, 20)]))
            .horizon(100)
            .seed(2);
        let out = run_detected(&config, |_| Idle, |_| TestBeat::new(), &Workload::none());
        assert_eq!(out.sim.run.crash_time(p(1)), Some(20));
        // Every survivor's final suspicion state contains p1.
        for q in [p(0), p(2)] {
            assert!(
                out.sim.run.suspects_at(q, 100).contains(p(1)),
                "{q} never latched the crash of p1"
            );
        }
        // The crashed process emitted nothing after its crash tick.
        assert!(reports_of(&out.sim.run, p(1)).iter().all(|&(t, _)| t < 20));
        out.sim.run.check_conditions(0).unwrap();
    }

    #[test]
    fn clean_reliable_run_has_no_false_suspicions() {
        let config = SimConfig::new(4).horizon(150).seed(3);
        let out = run_detected(&config, |_| Idle, |_| TestBeat::new(), &Workload::none());
        for q in ProcessId::all(4) {
            for (t, s) in reports_of(&out.sim.run, q) {
                assert!(
                    s.is_empty(),
                    "{q} falsely suspected {s} at tick {t} in a crash-free reliable run"
                );
            }
        }
        assert!(out.fd_messages_sent > 0, "heartbeats never flowed");
        assert_eq!(out.fd_messages_dropped, 0, "reliable plane dropped copies");
    }

    #[test]
    fn detector_plane_faults_do_not_touch_protocol_plane_counters() {
        let config = SimConfig::new(3)
            .faults(FaultPlan::none().sever_link(0, 1, 10))
            .horizon(80)
            .seed(4);
        let out = run_detected(&config, |_| Idle, |_| TestBeat::new(), &Workload::none());
        // Idle protocol sends nothing, so every partition drop happened on
        // the detector plane.
        assert_eq!(out.sim.messages_sent, 0);
        assert_eq!(out.sim.faults.partition_dropped, 0);
        assert!(out.fd_faults.partition_dropped > 0, "sever never fired");
        // And the severed link manufactures a false suspicion: p1 loses
        // p0's beats while p0 stays alive.
        assert!(out.sim.run.suspects_at(p(1), 80).contains(p(0)));
    }

    #[test]
    fn batch_matches_sequential_per_seed_runs() {
        let config = SimConfig::new(3)
            .channel(ChannelKind::fair_lossy(0.2))
            .horizon(60);
        let seeds: Vec<u64> = (0..8).collect();
        let batch = run_detected_batch(
            &config,
            &seeds,
            |_| Idle,
            |_| TestBeat::new(),
            &Workload::none(),
        );
        for (i, &seed) in seeds.iter().enumerate() {
            let solo = run_detected(
                &config.clone().seed(seed),
                |_| Idle,
                |_| TestBeat::new(),
                &Workload::none(),
            );
            assert_eq!(batch[i].sim.run, solo.sim.run, "seed {seed}");
            assert_eq!(batch[i].fd_messages_sent, solo.fd_messages_sent);
        }
    }

    #[test]
    fn boxed_detectors_compose() {
        let config = SimConfig::new(3).horizon(60).seed(5);
        let boxed = run_detected(
            &config,
            |_| Idle,
            |_| Box::new(TestBeat::new()) as Box<dyn Detector<Msg = u8>>,
            &Workload::none(),
        );
        let plain = run_detected(&config, |_| Idle, |_| TestBeat::new(), &Workload::none());
        assert_eq!(boxed.sim.run, plain.sim.run);
    }
}
