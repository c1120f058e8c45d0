//! Proposition 4.1: UDC in a context with at most `t` failures and a
//! t-useful **generalized** failure detector.
//!
//! > Process `p` performs `α` at time `m` if, by time `m`, there is a set
//! > `S ⊆ Proc` and `k ≤ |S|` such that (a) it is in a `UDC(α)` state,
//! > (b) its failure detector has reported `suspect_p(S, k)`, (c) it has
//! > received messages from all the processes in `Proc − S` acknowledging
//! > `α`, and (d) `n − |S| > min(t, n−1) − k`.
//!
//! The insight: condition (d) plus generalized strong accuracy imply that
//! if any process is correct at all, `Proc − S` contains a correct process
//! — so a performer has an acked correct witness that will carry `α` to
//! everyone, even though the report never says *which* members of `S` are
//! faulty.
//!
//! Pairing this protocol with the oracle-free
//! [`CyclingSubsetOracle`](ktudc_fd::CyclingSubsetOracle) (which just
//! enumerates `(S, 0)` reports) yields Corollary 4.2 — the Gopal–Toueg
//! result that **no failure detector at all** is needed when `t < n/2`.

use crate::protocols::CoordMsg;
use ktudc_model::{ActionId, Event, ProcSet, ProcessId, SuspectReport, Time};
use ktudc_sim::{Outbox, ProtoAction, Protocol};
use std::collections::BTreeMap;

#[derive(Clone, Debug, Default)]
struct ActionState {
    live: bool,
    done: bool,
    acked: ProcSet,
}

/// The Proposition 4.1 protocol, parameterized by the context's failure
/// bound `t`.
#[derive(Clone, Debug)]
pub struct GeneralizedUdc {
    me: ProcessId,
    n: usize,
    t: usize,
    retransmit_every: Time,
    next_retransmit: Time,
    /// The distinct *useful* reports seen so far, each kept as the acks it
    /// demands: `(Proc − S) − {me}`. The guard is an existential over
    /// reports, so repeats and useless reports (condition (d) fails, or
    /// `k > |S|`) can never change it and are dropped on arrival.
    needs: Vec<ProcSet>,
    actions: BTreeMap<ActionId, ActionState>,
    out: Outbox<CoordMsg>,
}

impl GeneralizedUdc {
    /// Creates the protocol for a context with at most `t` failures, with
    /// the default retransmission period of 5 ticks.
    #[must_use]
    pub fn new(t: usize) -> Self {
        Self::with_period(t, 5)
    }

    /// Creates the protocol with a custom retransmission period.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn with_period(t: usize, period: Time) -> Self {
        assert!(period >= 1);
        GeneralizedUdc {
            me: ProcessId::new(0),
            n: 0,
            t,
            retransmit_every: period,
            next_retransmit: 0,
            needs: Vec::new(),
            actions: BTreeMap::new(),
            out: Outbox::new(),
        }
    }

    fn enter(&mut self, action: ActionId) {
        self.actions.entry(action).or_default().live = true;
    }

    /// Condition (b) and (d) of the performance guard, decided once per
    /// report: `(S, k)` with `k ≤ |S|` is useful iff
    /// `n − |S| > min(t, n−1) − k`, and then unlocks an action once
    /// everyone in `Proc − S` other than this process has acked it.
    fn record_report(&mut self, set: ProcSet, k: usize) {
        let n = self.n;
        let useful =
            k <= set.len() && (n - set.len()) as isize > self.t.min(n - 1) as isize - k as isize;
        if useful {
            let need = set.complement(n).difference(ProcSet::singleton(self.me));
            if !self.needs.contains(&need) {
                self.needs.push(need);
            }
        }
    }

    /// Condition (b)–(d) of the performance guard: some received report is
    /// useful and everyone it leaves unsuspected has acked.
    fn can_perform(&self, state: &ActionState) -> bool {
        self.needs.iter().any(|need| need.is_subset_of(state.acked))
    }
}

impl Protocol<CoordMsg> for GeneralizedUdc {
    fn start(&mut self, me: ProcessId, n: usize) {
        self.me = me;
        self.n = n;
    }

    fn observe(&mut self, _time: Time, event: &Event<CoordMsg>) {
        match event {
            Event::Init { action } => self.enter(*action),
            Event::Recv {
                from,
                msg: CoordMsg::Alpha(action),
            } => {
                self.enter(*action);
                self.out.send(*from, CoordMsg::Ack(*action));
            }
            Event::Recv {
                from,
                msg: CoordMsg::Ack(action),
            } => {
                self.actions.entry(*action).or_default().acked.insert(*from);
            }
            Event::Suspect(SuspectReport::Generalized { set, min_faulty }) => {
                self.record_report(*set, *min_faulty);
            }
            Event::Do { action } => {
                self.actions.entry(*action).or_default().done = true;
            }
            _ => {}
        }
    }

    fn next_action(&mut self, time: Time) -> Option<ProtoAction<CoordMsg>> {
        let ready = self
            .actions
            .iter()
            .find(|(_, s)| s.live && !s.done && self.can_perform(s))
            .map(|(&a, _)| a);
        if let Some(action) = ready {
            return Some(ProtoAction::Do(action));
        }
        if let Some(send) = self.out.pop() {
            return Some(send);
        }
        if time >= self.next_retransmit {
            self.next_retransmit = time + self.retransmit_every;
            for (&action, state) in &self.actions {
                if state.live {
                    for q in ProcessId::all(self.n) {
                        if q != self.me && !state.acked.contains(q) {
                            self.out.send(q, CoordMsg::Alpha(action));
                        }
                    }
                }
            }
            return self.out.pop();
        }
        None
    }

    fn quiescent(&self) -> bool {
        self.out.is_empty()
            && self
                .actions
                .values()
                .all(|s| !s.live || (s.done && s.acked.len() >= self.n - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{check_udc, Verdict};
    use ktudc_fd::{check_fd_property, CyclingSubsetOracle, FdProperty, TUsefulOracle};
    use ktudc_sim::{run_protocol, ChannelKind, CrashPlan, NullOracle, SimConfig, Workload};

    fn lossy(n: usize, seed: u64) -> SimConfig {
        SimConfig::new(n)
            .channel(ChannelKind::fair_lossy(0.3))
            .horizon(800)
            .seed(seed)
    }

    #[test]
    fn udc_with_t_useful_fd_high_t() {
        // t = n − 1 = 4: the regime where t-useful ≈ perfect.
        let t = 4;
        for seed in 0..6 {
            let config = lossy(5, seed).crashes(CrashPlan::at(&[(1, 7), (2, 22), (4, 40)]));
            let w = Workload::single(0, 2);
            let out = run_protocol(
                &config,
                |_| GeneralizedUdc::new(t),
                &mut TUsefulOracle::new(t),
                &w,
            );
            check_fd_property(&out.run, FdProperty::GeneralizedStrongAccuracy).unwrap();
            check_fd_property(
                &out.run,
                FdProperty::GeneralizedImpermanentStrongCompleteness(t),
            )
            .unwrap();
            assert_eq!(
                check_udc(&out.run, &w.actions()),
                Verdict::Satisfied,
                "seed {seed}"
            );
            out.run.check_conditions(0).unwrap();
        }
    }

    #[test]
    fn udc_with_t_useful_fd_mid_t() {
        // n/2 ≤ t < n − 1: the genuinely generalized middle column of
        // Table 1 (n = 7, t = 4).
        let t = 4;
        for seed in 0..4 {
            let config = lossy(7, seed).crashes(CrashPlan::at(&[(1, 9), (3, 18), (5, 33)]));
            let w = Workload::single(0, 2);
            let out = run_protocol(
                &config,
                |_| GeneralizedUdc::new(t),
                &mut TUsefulOracle::new(t),
                &w,
            );
            assert_eq!(
                check_udc(&out.run, &w.actions()),
                Verdict::Satisfied,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn corollary_4_2_no_fd_needed_below_half() {
        // t = 2 < n/2 = 2.5: the cycling (S, 0) oracle consults no ground
        // truth, so this is UDC with *no failure detection whatsoever*.
        let t = 2;
        let n = 5;
        for seed in 0..6 {
            let config = lossy(n, seed).crashes(CrashPlan::at(&[(1, 12), (4, 28)]));
            let w = Workload::single(0, 2);
            let out = run_protocol(
                &config,
                |_| GeneralizedUdc::new(t),
                &mut CyclingSubsetOracle::new(n, t),
                &w,
            );
            assert_eq!(
                check_udc(&out.run, &w.actions()),
                Verdict::Satisfied,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn no_reports_means_no_performance() {
        // Without any failure-detector report the guard can never fire
        // (there is no (S, k) at all), so nobody performs — and with an
        // initiated action UDC's DC1 is *not yet* satisfied at the horizon.
        // This documents that condition (b) really gates performance.
        let config = lossy(4, 3).horizon(200);
        let w = Workload::single(0, 2);
        let out = run_protocol(
            &config,
            |_| GeneralizedUdc::new(2),
            &mut NullOracle::new(),
            &w,
        );
        assert!(!check_udc(&out.run, &w.actions()).is_satisfied());
        let did_any = (0..4).any(|i| out.run.view_at(ProcessId::new(i), 200).did(w.actions()[0]));
        assert!(!did_any);
    }

    fn pset(members: &[usize]) -> ProcSet {
        members.iter().map(|&i| ProcessId::new(i)).collect()
    }

    fn report(proto: &mut GeneralizedUdc, set: ProcSet, min_faulty: usize) {
        proto.observe(
            1,
            &Event::Suspect(SuspectReport::Generalized { set, min_faulty }),
        );
    }

    fn ack(proto: &mut GeneralizedUdc, from: usize, action: ActionId) {
        proto.observe(
            1,
            &Event::Recv {
                from: ProcessId::new(from),
                msg: CoordMsg::Ack(action),
            },
        );
    }

    fn ready(proto: &GeneralizedUdc, action: ActionId) -> bool {
        proto.can_perform(&proto.actions[&action])
    }

    /// The guard exactly as the paper words it, over every report `(S, k)`
    /// ever received: the reference the stored ack-masks are checked
    /// against.
    fn paper_guard(
        n: usize,
        t: usize,
        me: ProcessId,
        reports: &[(ProcSet, usize)],
        acked: ProcSet,
    ) -> bool {
        reports.iter().any(|&(set, k)| {
            k <= set.len()
                && (n - set.len()) as isize > t.min(n - 1) as isize - k as isize
                && set
                    .complement(n)
                    .iter()
                    .all(|q| q == me || acked.contains(q))
        })
    }

    #[test]
    fn guard_arithmetic_matches_the_paper() {
        let alpha = ActionId::new(ProcessId::new(0), 0);
        let mut proto = GeneralizedUdc::new(3);
        proto.start(ProcessId::new(0), 5);
        proto.observe(1, &Event::Init { action: alpha });
        // Report ({p3, p4}, 1): useful iff 5 − 2 > min(3,4) − 1 = 2 ✓,
        // needs acks from {p1, p2} (p0 is self).
        report(&mut proto, pset(&[3, 4]), 1);
        assert!(!ready(&proto, alpha));
        ack(&mut proto, 1, alpha);
        assert!(!ready(&proto, alpha));
        ack(&mut proto, 2, alpha);
        assert!(ready(&proto, alpha));
        // A useless report (k too small for |S|) does not unlock: ({p1..p4}, 1):
        // 5 − 4 = 1 > 3 − 1 = 2 is false.
        let mut proto2 = GeneralizedUdc::new(3);
        proto2.start(ProcessId::new(0), 5);
        proto2.observe(1, &Event::Init { action: alpha });
        report(&mut proto2, pset(&[1, 2, 3, 4]), 1);
        for q in 1..5 {
            ack(&mut proto2, q, alpha);
        }
        assert!(!ready(&proto2, alpha));
        assert!(proto2.needs.is_empty(), "a useless report is not kept");
    }

    #[test]
    fn a_repeated_report_is_stored_once() {
        let alpha = ActionId::new(ProcessId::new(0), 0);
        let mut proto = GeneralizedUdc::new(3);
        proto.start(ProcessId::new(0), 5);
        proto.observe(1, &Event::Init { action: alpha });
        for _ in 0..100 {
            report(&mut proto, pset(&[3, 4]), 1);
        }
        assert_eq!(proto.needs, vec![pset(&[1, 2])]);
        // A different (S, k) demanding the same acks adds nothing either:
        // ({p0, p3, p4}, 2) leaves {p1, p2} unsuspected too.
        report(&mut proto, pset(&[0, 3, 4]), 2);
        assert_eq!(proto.needs.len(), 1);
        ack(&mut proto, 1, alpha);
        ack(&mut proto, 2, alpha);
        assert!(ready(&proto, alpha));
    }

    proptest::proptest! {
        /// Over arbitrary interleavings of initiations, acks and reports —
        /// useful ones, useless ones, repeats and `k > |S|` — the stored
        /// ack-masks decide every action exactly as the paper's guard does
        /// over the full report multiset.
        #[test]
        fn stored_masks_decide_as_the_paper_guard_does(
            n in 2usize..7,
            t in 0usize..7,
            me in 0usize..7,
            steps in proptest::collection::vec((0u8..4, 0u64..128, 0usize..8, 0usize..3), 0..60),
        ) {
            let me = ProcessId::new(me % n);
            let mut proto = GeneralizedUdc::new(t);
            proto.start(me, n);
            let mut reports: Vec<(ProcSet, usize)> = Vec::new();
            for (kind, bits, k, seq) in steps {
                let action = ActionId::new(ProcessId::new(seq % n), seq as u32);
                match kind {
                    0 if action.initiator() == me => {
                        proto.observe(1, &Event::Init { action });
                    }
                    0 | 1 => ack(&mut proto, (bits as usize) % n, action),
                    _ => {
                        let set: ProcSet = ProcessId::all(n)
                            .filter(|q| bits >> q.index() & 1 == 1)
                            .collect();
                        report(&mut proto, set, k);
                        reports.push((set, k));
                    }
                }
                for (action, state) in &proto.actions {
                    proptest::prop_assert_eq!(
                        proto.can_perform(state),
                        paper_guard(n, t, me, &reports, state.acked),
                        "action {} after reports {:?}", action, reports
                    );
                }
                proptest::prop_assert!(proto.needs.len() <= reports.len());
            }
        }
    }

    #[test]
    fn periodic_workload_with_mid_t() {
        let config = lossy(5, 17)
            .crashes(CrashPlan::at(&[(2, 30), (3, 55)]))
            .horizon(2500);
        let w = Workload::periodic(5, 11, 140);
        let t = 3;
        let out = run_protocol(
            &config,
            |_| GeneralizedUdc::new(t),
            &mut TUsefulOracle::new(t),
            &w,
        );
        assert_eq!(check_udc(&out.run, &w.actions()), Verdict::Satisfied);
    }
}
