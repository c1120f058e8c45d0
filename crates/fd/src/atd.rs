//! The Aguilera–Toueg–Deianov detector class (§5 of the paper).
//!
//! In response to the conference version of Halpern–Ricciardi, Aguilera,
//! Toueg & Deianov \[ATD99\] characterized the *weakest* failure detector for
//! URB/UDC: strong completeness plus an accuracy **even weaker than weak
//! accuracy** — at every time, *some* correct process is not currently
//! suspected, but it may be a *different* correct process at different
//! times. (Weak accuracy demands one fixed correct process that is never
//! suspected; ATD accuracy lets the "safe" process rotate.)
//!
//! This module provides the class as an extension: an oracle that
//! aggressively exercises the rotation freedom, and the accuracy checker.
//! The Proposition 3.1 protocol, which *latches* suspicions ("says or has
//! said"), is **not** correct against this class — latching turns the
//! rotating safe process into nobody — and the tests exhibit that
//! separation, which is precisely why ATD's weakest-detector result needed
//! a different protocol than the paper's.

use ktudc_model::{ProcSet, ProcessId, Run, SuspectReport, Time};
use ktudc_sim::{FaultTruth, FdOracle};
use rand::rngs::StdRng;

use crate::props::{FdProperty, FdViolation};

/// An oracle with strong completeness and **rotating** accuracy: at every
/// report, all crashed processes are suspected, exactly one *currently
/// safe* correct process is spared, and every other correct process is
/// suspected — maximal use of the ATD freedom. The safe process rotates
/// among the correct ones with the polling tick.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RotatingAccuracyOracle;

impl RotatingAccuracyOracle {
    /// Creates the oracle.
    #[must_use]
    pub fn new() -> Self {
        RotatingAccuracyOracle
    }
}

impl FdOracle for RotatingAccuracyOracle {
    fn poll(
        &mut self,
        p: ProcessId,
        time: Time,
        truth: &FaultTruth,
        _rng: &mut StdRng,
    ) -> Option<SuspectReport> {
        let correct: Vec<ProcessId> = truth.correct().iter().collect();
        let mut report = truth.crashed_by(time);
        if !correct.is_empty() {
            // Rotate a *pair* of spared processes with a slow window.
            // Reports persist until the next poll, so at a window boundary
            // the in-force reports mix windows w−1 and w; sparing the
            // adjacent pair {c_w, c_{w+1}} guarantees the intersection
            // {c_w} stays unsuspected at every instant — ATD accuracy —
            // while every correct process is still suspected in *some*
            // window, violating (fixed-process) weak accuracy.
            let len = correct.len();
            let window = (time / 32) as usize;
            let spared_a = correct[window % len];
            let spared_b = correct[(window + 1) % len];
            for &q in &correct {
                if q != spared_a && q != spared_b && q != p {
                    report.insert(q);
                }
            }
        }
        Some(SuspectReport::Standard(report))
    }

    fn class_name(&self) -> &'static str {
        "atd-rotating"
    }
}

/// **ATD accuracy** ("at all times, some correct process is not
/// suspected"): for every tick `m`, if the run has correct processes, at
/// least one correct process `q` is in no *live* process's
/// `Suspects_p(r, m)`. Crashed observers are excluded: their `Suspects`
/// value is frozen at crash time and no longer reflects any oracle — a
/// stale snapshot should not condemn a time-varying accuracy property.
///
/// # Errors
///
/// Returns a violation naming the first tick at which every correct
/// process is simultaneously suspected by some live process.
pub fn check_atd_accuracy<M>(run: &Run<M>) -> Result<(), FdViolation> {
    let correct = run.correct();
    if correct.is_empty() {
        return Ok(());
    }
    for m in 0..=run.horizon() {
        let crashed = run.crashed_by(m);
        let mut suspected_now = ProcSet::new();
        for p in ProcessId::all(run.n()) {
            if !crashed.contains(p) {
                suspected_now = suspected_now.union(run.suspects_at(p, m));
            }
        }
        if correct.difference(suspected_now).is_empty() {
            return Err(FdViolation {
                // Reuse the weak-accuracy tag: ATD accuracy is its
                // per-time weakening, and a dedicated variant would leak
                // into every exhaustive match downstream.
                property: FdProperty::WeakAccuracy,
                witness: format!(
                    "ATD accuracy: at tick {m} every correct process in {correct} is suspected"
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::check_fd_property;
    use ktudc_model::{Event, RunBuilder};
    use ktudc_sim::{
        run_protocol, ChannelKind, CrashPlan, ProtoAction, Protocol, SimConfig, Workload,
    };

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[derive(Clone, Debug)]
    struct Idle;

    impl Protocol<u8> for Idle {
        fn start(&mut self, _me: ProcessId, _n: usize) {}
        fn observe(&mut self, _t: Time, _e: &Event<u8>) {}
        fn next_action(&mut self, _t: Time) -> Option<ProtoAction<u8>> {
            None
        }
        fn quiescent(&self) -> bool {
            true
        }
    }

    fn sample(seed: u64) -> Run<u8> {
        let config = SimConfig::new(4)
            .channel(ChannelKind::reliable())
            .crashes(CrashPlan::at(&[(3, 12)]))
            .horizon(200)
            .seed(seed)
            .fd_period(3);
        run_protocol(
            &config,
            |_| Idle,
            &mut RotatingAccuracyOracle::new(),
            &Workload::none(),
        )
        .run
    }

    #[test]
    fn rotating_oracle_satisfies_atd_accuracy_and_strong_completeness() {
        for seed in 0..4 {
            let run = sample(seed);
            check_atd_accuracy(&run).unwrap();
            check_fd_property(&run, FdProperty::StrongCompleteness).unwrap();
        }
    }

    #[test]
    fn rotating_oracle_violates_weak_accuracy() {
        // The rotation spares a *different* process at different times, so
        // (at these settings) every correct process gets suspected at some
        // point — weak accuracy, which demands one fixed spared process,
        // fails. This is exactly the gap between the HR and ATD classes.
        let run = sample(0);
        assert!(check_fd_property(&run, FdProperty::WeakAccuracy).is_err());
    }

    #[test]
    fn atd_accuracy_checker_finds_violations() {
        // A run where, at tick 2, both correct processes are suspected.
        let mut b = RunBuilder::<u8>::new(2);
        b.append_suspect(p(0), 1, SuspectReport::Standard(ProcSet::singleton(p(1))))
            .unwrap();
        b.append_suspect(p(1), 2, SuspectReport::Standard(ProcSet::singleton(p(0))))
            .unwrap();
        let run = b.finish(4);
        let err = check_atd_accuracy(&run).unwrap_err();
        assert!(err.witness.contains("tick 2"));
        // Retract one suspicion: accuracy restored from tick 3 on, but the
        // violation at tick 2 still condemns the run.
        let mut b = RunBuilder::<u8>::new(2);
        b.append_suspect(p(0), 1, SuspectReport::Standard(ProcSet::singleton(p(1))))
            .unwrap();
        b.append_suspect(p(0), 2, SuspectReport::Standard(ProcSet::new()))
            .unwrap();
        let run = b.finish(4);
        check_atd_accuracy(&run).unwrap();
    }

    #[test]
    fn latching_protocols_are_not_correct_against_atd() {
        // The Prop 3.1 protocol latches suspicions; under the rotating
        // oracle it will eventually have "suspected" every peer and
        // perform immediately, *before* gathering the acks that uniformity
        // needs — so under loss, UDC violations appear. (ATD's weakest-
        // detector theorem needed a non-latching protocol for a reason.)
        // We assert the mechanism: latched suspicions cover all peers.
        let run = sample(1);
        let mut latched = ProcSet::new();
        for (_, e) in run.timed_history(p(0)) {
            if let Event::Suspect(SuspectReport::Standard(s)) = e {
                latched = latched.union(*s);
            }
        }
        assert!(
            run.correct()
                .difference(ProcSet::singleton(p(0)))
                .is_subset_of(latched),
            "rotation must eventually have suspected every correct peer"
        );
    }
}
