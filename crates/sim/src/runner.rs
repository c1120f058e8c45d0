//! The seeded Monte-Carlo executor.
//!
//! [`run_protocol`] drives one run to the configured horizon: at each tick,
//! each live process gets at most one event (R2), chosen with the priority
//! order *crash* > *workload initiation* > *failure-detector report* >
//! *delivery-or-protocol-action* (the last pair arbitrated by the seeded
//! RNG). The result is a well-formed [`Run`] (R1–R4 by construction)
//! together with the ground-truth fault schedule and quiescence information.
//! That slot discipline is written once (`ProtocolPlane::slot`) and shared
//! with the detector-fed runner of [`crate::detector`].

use crate::config::{ChannelKind, SimConfig, Workload};
use crate::faults::{ActiveFaults, FaultStats};
use crate::network::Network;
use crate::oracle::{FaultTruth, FdOracle};
use crate::protocol::{ProtoAction, Protocol};
use ktudc_model::{ActionId, Event, ProcessId, Run, RunBuilder, SuspectReport, Time};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::VecDeque;
use std::hash::Hash;

/// The outcome of one simulated run.
#[derive(Clone, Debug)]
pub struct SimOutcome<M> {
    /// The generated run (R1–R4 hold by construction; R5 holds with high
    /// probability at adequate horizons and can be re-checked via
    /// [`Run::check_conditions`]).
    pub run: Run<M>,
    /// The resolved fault schedule the oracles saw.
    pub truth: FaultTruth,
    /// `true` if, at the horizon, every live protocol reported quiescence,
    /// the network was idle, and the workload was fully dispatched —
    /// i.e. the run genuinely *terminated* rather than running out of time.
    pub quiescent: bool,
    /// Total message copies handed to the network.
    pub messages_sent: u64,
    /// Copies lost to channel unreliability, injected faults, or receiver
    /// crashes.
    pub messages_dropped: u64,
    /// What the fault engine actually injected (all zeros for
    /// [`FaultPlan::none`](crate::FaultPlan::none)).
    pub faults: FaultStats,
}

/// The protocol plane of one simulated run: the state that
/// [`run_protocol`] and [`run_detected`](crate::detector::run_detected)
/// both drive, and the one scheduler slot ([`ProtocolPlane::slot`]) they
/// drive it through. The two runners differ only in where a slot's
/// failure-detector report comes from.
pub(crate) struct ProtocolPlane<'a, M, P> {
    workload: &'a Workload,
    horizon: Time,
    kind: ChannelKind,
    fd_period: Time,
    deliver_bias: f64,
    /// Whether sends go through the armed fault engine. It draws from its
    /// own salted RNG stream, so an empty plan leaves the scheduler RNG
    /// sequence — and thus every previously pinned run — byte-identical.
    inject: bool,
    duplication_possible: bool,
    faults: ActiveFaults,
    rng: StdRng,
    truth: FaultTruth,
    protocols: Vec<P>,
    builder: RunBuilder<M>,
    net: Network<M>,
    pending_inits: Vec<VecDeque<ActionId>>,
}

impl<'a, M, P> ProtocolPlane<'a, M, P>
where
    M: Clone + Eq + Hash,
    P: Protocol<M>,
{
    /// Resolves the crash schedule and starts one `make(p)` protocol per
    /// process.
    pub(crate) fn new(
        config: &SimConfig,
        make: impl Fn(ProcessId) -> P,
        workload: &'a Workload,
    ) -> Self {
        let n = config.n();
        let mut rng = config.rng();
        let truth = FaultTruth::new(config.crash_plan().resolve(n, &mut rng));
        let protocols = ProcessId::all(n)
            .map(|p| {
                let mut proto = make(p);
                proto.start(p, n);
                proto
            })
            .collect();
        ProtocolPlane {
            workload,
            horizon: config.horizon_ticks(),
            kind: config.channel_kind(),
            fd_period: config.fd_period_ticks(),
            deliver_bias: config.deliver_bias_value(),
            inject: !config.fault_plan().is_empty(),
            duplication_possible: config.fault_plan().duplicates(),
            faults: config.fault_plan().activate(config.seed_value()),
            rng,
            truth,
            protocols,
            builder: RunBuilder::new(n),
            net: Network::new(n),
            pending_inits: vec![VecDeque::new(); n],
        }
    }

    /// The resolved fault schedule.
    pub(crate) fn truth(&self) -> &FaultTruth {
        &self.truth
    }

    /// Enqueues the workload initiations scheduled for tick `t`; call once
    /// per tick, before the tick's slots.
    pub(crate) fn begin_tick(&mut self, t: Time) {
        for action in self.workload.at_tick(t) {
            self.pending_inits[action.initiator().index()].push_back(action);
        }
    }

    /// Appends `event` to `p`'s history, then shows the protocol the event
    /// the builder now owns.
    fn record(&mut self, p: ProcessId, t: Time, event: Event<M>) {
        if let Err(e) = self.builder.append(p, t, event) {
            panic!("the scheduler broke R1-R4: {e}");
        }
        self.observe_last(p, t);
    }

    fn observe_last(&mut self, p: ProcessId, t: Time) {
        let event = self.builder.history(p).last().expect("just appended");
        self.protocols[p.index()].observe(t, event);
    }

    /// Delivers the earliest deliverable message to `p`, if there is one.
    fn deliver(&mut self, p: ProcessId, t: Time) -> bool {
        let Some((from, msg)) = self.net.deliver_one(p, t) else {
            return false;
        };
        let event = Event::Recv { from, msg };
        // A fault plan that duplicates can deliver a copy no send accounts
        // for. The run must record what happened on the wire, so such a
        // plan appends receives without the R3 check (which is all that
        // `force_append` relaxes; a matched receive commits identically)
        // and `Run::check_conditions` flags the result.
        let appended = if self.duplication_possible {
            self.builder.force_append(p, t, event)
        } else {
            self.builder.append(p, t, event)
        };
        if let Err(e) = appended {
            panic!("the scheduler broke R1-R4: {e}");
        }
        self.observe_last(p, t);
        true
    }

    /// Spends `p`'s event slot of tick `t` (R2: at most one event), with
    /// the priority order *crash* > *workload initiation* >
    /// *failure-detector report* > *delivery-or-protocol-action* (the last
    /// pair arbitrated by the seeded RNG). `fd_report` is consulted only
    /// when the staggered polling cadence reaches `p` at `t`; returning
    /// `None` leaves the slot to the protocol. Returns `true` when the
    /// slot was `p`'s crash.
    pub(crate) fn slot(
        &mut self,
        p: ProcessId,
        t: Time,
        fd_report: impl FnOnce(&FaultTruth, &mut StdRng) -> Option<SuspectReport>,
    ) -> bool {
        if self.builder.crashed().contains(p) {
            return false;
        }
        if self.truth.crash_time(p) == Some(t) {
            self.builder
                .append(p, t, Event::Crash)
                .expect("crash append cannot violate R1-R4 on a live process");
            self.net.drop_all_to(p);
            self.pending_inits[p.index()].clear();
            return true;
        }
        if let Some(action) = self.pending_inits[p.index()].pop_front() {
            assert_eq!(
                action.initiator(),
                p,
                "workload action owned by another process"
            );
            self.record(p, t, Event::Init { action });
            return false;
        }
        if (t + p.index() as Time).is_multiple_of(self.fd_period) {
            if let Some(report) = fd_report(&self.truth, &mut self.rng) {
                self.record(p, t, Event::Suspect(report));
                return false;
            }
        }
        // Delivery vs protocol action, arbitrated by the RNG when a
        // delivery is available.
        let deliverable = self.net.has_deliverable(p, t);
        if deliverable && self.rng.gen_bool(self.deliver_bias) && self.deliver(p, t) {
            return false;
        }
        match self.protocols[p.index()].next_action(t) {
            Some(ProtoAction::Send { to, msg }) => {
                let event = Event::Send {
                    to,
                    msg: msg.clone(),
                };
                self.record(p, t, event);
                if self.inject {
                    self.net
                        .send_faulty(p, to, msg, t, self.kind, &mut self.rng, &mut self.faults);
                } else {
                    self.net.send(p, to, msg, t, self.kind, &mut self.rng);
                }
            }
            Some(ProtoAction::Do(action)) => self.record(p, t, Event::Do { action }),
            None => {
                // No protocol action; fall back to a delivery if one was
                // available but lost the coin flip.
                if deliverable {
                    self.deliver(p, t);
                }
            }
        }
        false
    }

    /// Freezes the run at the horizon.
    pub(crate) fn finish(self) -> SimOutcome<M> {
        let crashed = self.builder.crashed();
        let quiescent = self.net.is_idle()
            && self.pending_inits.iter().all(VecDeque::is_empty)
            && self
                .workload
                .schedule()
                .iter()
                .all(|&(t, a)| t <= self.horizon || crashed.contains(a.initiator()))
            && self
                .protocols
                .iter()
                .zip(ProcessId::all(self.builder.n()))
                .all(|(proto, p)| crashed.contains(p) || proto.quiescent());
        SimOutcome {
            run: self.builder.finish(self.horizon),
            truth: self.truth,
            quiescent,
            messages_sent: self.net.sent_count(),
            messages_dropped: self.net.dropped_count(),
            faults: self.faults.into_stats(),
        }
    }
}

/// Runs `make(p)`-built protocols in the context described by `config`,
/// with failure detector `oracle` and workload `workload`, and returns the
/// generated run.
///
/// Identical inputs (including [`SimConfig::seed`]) produce identical runs.
///
/// # Panics
///
/// Panics if the workload initiates an action on behalf of a process other
/// than the action's owner, or if the crash plan is malformed (see
/// [`CrashPlan::resolve`](crate::CrashPlan::resolve)).
pub fn run_protocol<M, P, F, O>(
    config: &SimConfig,
    make: F,
    oracle: &mut O,
    workload: &Workload,
) -> SimOutcome<M>
where
    M: Clone + Eq + Hash,
    P: Protocol<M>,
    F: Fn(ProcessId) -> P,
    O: FdOracle + ?Sized,
{
    let mut plane = ProtocolPlane::new(config, make, workload);
    for t in 1..=config.horizon_ticks() {
        plane.begin_tick(t);
        for p in ProcessId::all(config.n()) {
            plane.slot(p, t, |truth, rng| oracle.poll(p, t, truth, rng));
        }
    }
    plane.finish()
}

/// Simulates one run per seed, in parallel (feature `parallel`; sequential
/// and bit-identical otherwise). Element `i` of the result is exactly
/// `run_protocol(&config.clone().seed(seeds[i]), ..)` with a fresh
/// `make_oracle(seeds[i])` oracle — batching never changes outcomes, only
/// wall-clock time. This is the sampling loop behind every Monte-Carlo
/// approximation of a system: the per-seed runs are independent by
/// construction, so they are embarrassingly parallel.
pub fn run_protocol_batch<M, P, F, O, G>(
    config: &SimConfig,
    seeds: &[u64],
    make: F,
    make_oracle: G,
    workload: &Workload,
) -> Vec<SimOutcome<M>>
where
    M: Clone + Eq + Hash + Send,
    P: Protocol<M>,
    F: Fn(ProcessId) -> P + Sync,
    O: FdOracle,
    G: Fn(u64) -> O + Sync,
{
    ktudc_par::par_map(seeds.to_vec(), |seed| {
        let cfg = config.clone().seed(seed);
        let mut oracle = make_oracle(seed);
        run_protocol(&cfg, &make, &mut oracle, workload)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChannelKind, CrashPlan};
    use crate::oracle::NullOracle;
    use crate::protocol::Outbox;
    use ktudc_model::ProcSet;
    use std::collections::BTreeSet;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// Toy flooding protocol: on observing `init(α)` or receiving `α`,
    /// perform `α` and (once) relay it to everyone. Not retransmitting, so
    /// only correct under reliable channels — exactly what these tests use.
    #[derive(Clone, Debug)]
    struct Flood {
        me: ProcessId,
        n: usize,
        seen: BTreeSet<ActionId>,
        done: BTreeSet<ActionId>,
        to_do: VecDeque<ActionId>,
        out: Outbox<ActionId>,
    }

    impl Flood {
        fn new() -> Self {
            Flood {
                me: ProcessId::new(0),
                n: 0,
                seen: BTreeSet::new(),
                done: BTreeSet::new(),
                to_do: VecDeque::new(),
                out: Outbox::new(),
            }
        }

        fn learn(&mut self, action: ActionId) {
            if self.seen.insert(action) {
                self.out.broadcast(self.me, self.n, action);
                self.to_do.push_back(action);
            }
        }
    }

    impl Protocol<ActionId> for Flood {
        fn start(&mut self, me: ProcessId, n: usize) {
            self.me = me;
            self.n = n;
        }

        fn observe(&mut self, _time: Time, event: &Event<ActionId>) {
            match event {
                Event::Init { action } => self.learn(*action),
                Event::Recv { msg, .. } => self.learn(*msg),
                _ => {}
            }
        }

        fn next_action(&mut self, _time: Time) -> Option<ProtoAction<ActionId>> {
            if let Some(a) = self.to_do.pop_front() {
                self.done.insert(a);
                return Some(ProtoAction::Do(a));
            }
            self.out.pop()
        }

        fn quiescent(&self) -> bool {
            self.to_do.is_empty() && self.out.is_empty()
        }
    }

    #[test]
    fn flood_reaches_everyone_on_reliable_channels() {
        let config = SimConfig::new(4)
            .channel(ChannelKind::reliable())
            .horizon(60)
            .seed(1);
        let w = Workload::single(0, 1);
        let alpha = w.actions()[0];
        let out = run_protocol(&config, |_| Flood::new(), &mut NullOracle::new(), &w);
        assert!(out.quiescent, "flood should quiesce well before tick 60");
        for q in ProcessId::all(4) {
            assert!(
                out.run.view_at(q, 60).did(alpha),
                "{q} never performed the action"
            );
        }
        out.run.check_conditions(0).unwrap();
    }

    #[test]
    fn determinism_per_seed() {
        let config = SimConfig::new(3)
            .channel(ChannelKind::fair_lossy(0.4))
            .horizon(80)
            .seed(99);
        let w = Workload::periodic(3, 5, 40);
        let a = run_protocol(&config, |_| Flood::new(), &mut NullOracle::new(), &w);
        let b = run_protocol(&config, |_| Flood::new(), &mut NullOracle::new(), &w);
        assert_eq!(a.run, b.run);
        assert_eq!(a.messages_sent, b.messages_sent);
        let c = run_protocol(
            &config.clone().seed(100),
            |_| Flood::new(),
            &mut NullOracle::new(),
            &w,
        );
        assert_ne!(a.run, c.run, "different seeds should diverge");
    }

    #[test]
    fn crashes_happen_on_schedule_and_silence_processes() {
        let config = SimConfig::new(3)
            .crashes(CrashPlan::at(&[(1, 5)]))
            .horizon(40)
            .seed(3);
        let w = Workload::single(0, 1);
        let out = run_protocol(&config, |_| Flood::new(), &mut NullOracle::new(), &w);
        assert_eq!(out.run.crash_time(p(1)), Some(5));
        assert_eq!(out.run.faulty(), ProcSet::singleton(p(1)));
        // Nothing after the crash.
        let events_after: Vec<_> = out
            .run
            .timed_history(p(1))
            .filter(|(t, _)| *t > 5)
            .collect();
        assert!(events_after.is_empty());
        out.run.check_conditions(0).unwrap();
    }

    #[test]
    fn workload_initiations_appear_in_history() {
        let config = SimConfig::new(2).horizon(30).seed(0);
        let w = Workload::periodic(2, 3, 12);
        let out = run_protocol(&config, |_| Flood::new(), &mut NullOracle::new(), &w);
        let inits: Vec<ActionId> = out.run.initiations().map(|(_, a)| a).collect();
        assert_eq!(inits.len(), w.actions().len());
    }

    #[test]
    fn lossy_channels_lose_messages_but_run_stays_wellformed() {
        let config = SimConfig::new(4)
            .channel(ChannelKind::fair_lossy(0.5))
            .horizon(100)
            .seed(12);
        let w = Workload::single(0, 1);
        let out = run_protocol(&config, |_| Flood::new(), &mut NullOracle::new(), &w);
        assert!(out.messages_dropped > 0, "50% loss should drop something");
        out.run.check_conditions(0).unwrap();
    }

    #[test]
    fn batch_matches_sequential_per_seed_runs() {
        let config = SimConfig::new(3)
            .channel(ChannelKind::fair_lossy(0.3))
            .horizon(40);
        let w = Workload::single(0, 1);
        let seeds: Vec<u64> = (0..16).collect();
        let batch =
            run_protocol_batch(&config, &seeds, |_| Flood::new(), |_| NullOracle::new(), &w);
        assert_eq!(batch.len(), seeds.len());
        for (i, &seed) in seeds.iter().enumerate() {
            let solo = run_protocol(
                &config.clone().seed(seed),
                |_| Flood::new(),
                &mut NullOracle::new(),
                &w,
            );
            assert_eq!(batch[i].run, solo.run, "seed {seed}");
            assert_eq!(batch[i].quiescent, solo.quiescent);
            assert_eq!(batch[i].messages_sent, solo.messages_sent);
        }
    }

    #[test]
    fn quiescence_is_false_when_horizon_too_short() {
        let config = SimConfig::new(6).horizon(3).seed(0);
        let w = Workload::single(0, 1);
        let out = run_protocol(&config, |_| Flood::new(), &mut NullOracle::new(), &w);
        assert!(!out.quiescent, "6-process flood cannot finish by tick 3");
    }
}
