//! Consensus specification checkers.
//!
//! Decisions are `do_p(a)` events whose [`ActionId::seq`](ktudc_model::ActionId::seq) carries the
//! decided value. The checker evaluates the classic four properties, with
//! termination under the usual finite-horizon reading:
//!
//! * **Integrity** — each process decides at most once;
//! * **Uniform agreement** — no two processes (correct *or faulty*)
//!   decide differently;
//! * **Validity** — every decided value was proposed;
//! * **Termination** — every correct process decides by the horizon.

use ktudc_model::{Event, ProcessId, Run, Time};
use std::fmt;

/// A consensus property violation with its witness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConsensusViolation {
    /// A process decided twice.
    Integrity {
        /// The offender.
        process: ProcessId,
    },
    /// Two processes decided different values.
    Agreement {
        /// First decider and value.
        a: (ProcessId, u64),
        /// Conflicting decider and value.
        b: (ProcessId, u64),
    },
    /// A decided value was never proposed.
    Validity {
        /// The decider.
        process: ProcessId,
        /// The unproposed value.
        value: u64,
    },
    /// A correct process never decided (by the horizon).
    Termination {
        /// The undecided correct process.
        process: ProcessId,
    },
}

impl fmt::Display for ConsensusViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsensusViolation::Integrity { process } => {
                write!(f, "integrity: {process} decided more than once")
            }
            ConsensusViolation::Agreement { a, b } => write!(
                f,
                "uniform agreement: {} decided {} but {} decided {}",
                a.0, a.1, b.0, b.1
            ),
            ConsensusViolation::Validity { process, value } => {
                write!(f, "validity: {process} decided unproposed value {value}")
            }
            ConsensusViolation::Termination { process } => {
                write!(f, "termination: correct {process} never decided")
            }
        }
    }
}

impl std::error::Error for ConsensusViolation {}

/// Extracts every decision `(process, value, tick)` from a run.
#[must_use]
pub fn decisions<M>(run: &Run<M>) -> Vec<(ProcessId, u64, Time)> {
    let mut out = Vec::new();
    for p in ProcessId::all(run.n()) {
        for (t, e) in run.timed_history(p) {
            if let Event::Do { action } = e {
                out.push((p, u64::from(action.seq()), t));
            }
        }
    }
    out
}

/// Checks all four consensus properties on a finished run.
///
/// # Errors
///
/// Returns the first violation found (integrity, then agreement, then
/// validity, then termination).
pub fn check_consensus<M>(run: &Run<M>, proposals: &[u64]) -> Result<(), ConsensusViolation> {
    let decided = decisions(run);
    // Integrity.
    for p in ProcessId::all(run.n()) {
        if decided.iter().filter(|(q, _, _)| *q == p).count() > 1 {
            return Err(ConsensusViolation::Integrity { process: p });
        }
    }
    // Uniform agreement.
    if let Some(&(p0, v0, _)) = decided.first() {
        for &(p1, v1, _) in &decided[1..] {
            if v1 != v0 {
                return Err(ConsensusViolation::Agreement {
                    a: (p0, v0),
                    b: (p1, v1),
                });
            }
        }
    }
    // Validity.
    for &(p, v, _) in &decided {
        if !proposals.contains(&v) {
            return Err(ConsensusViolation::Validity {
                process: p,
                value: v,
            });
        }
    }
    // Termination (finite-horizon reading).
    for p in run.correct().iter() {
        if !decided.iter().any(|(q, _, _)| *q == p) {
            return Err(ConsensusViolation::Termination { process: p });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktudc_model::{ActionId, RunBuilder};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn decide(b: &mut RunBuilder<u8>, who: usize, value: u32, t: Time) {
        b.append(
            p(who),
            t,
            Event::Do {
                action: ActionId::new(p(who), value),
            },
        )
        .unwrap();
    }

    #[test]
    fn all_good() {
        let mut b = RunBuilder::<u8>::new(3);
        decide(&mut b, 0, 7, 2);
        decide(&mut b, 1, 7, 3);
        decide(&mut b, 2, 7, 4);
        let run = b.finish(5);
        check_consensus(&run, &[7, 9]).unwrap();
        assert_eq!(decisions(&run).len(), 3);
    }

    #[test]
    fn agreement_violation() {
        let mut b = RunBuilder::<u8>::new(2);
        decide(&mut b, 0, 7, 2);
        decide(&mut b, 1, 9, 3);
        let run = b.finish(5);
        assert!(matches!(
            check_consensus(&run, &[7, 9]),
            Err(ConsensusViolation::Agreement { .. })
        ));
    }

    #[test]
    fn uniform_agreement_binds_faulty_deciders() {
        // p0 decides 7 then crashes; p1 decides 9: uniform agreement broken
        // even though p0 is faulty.
        let mut b = RunBuilder::<u8>::new(2);
        decide(&mut b, 0, 7, 2);
        b.append(p(0), 3, Event::Crash).unwrap();
        decide(&mut b, 1, 9, 4);
        let run = b.finish(5);
        assert!(matches!(
            check_consensus(&run, &[7, 9]),
            Err(ConsensusViolation::Agreement { .. })
        ));
    }

    #[test]
    fn validity_violation() {
        let mut b = RunBuilder::<u8>::new(1);
        decide(&mut b, 0, 5, 2);
        let run = b.finish(3);
        assert!(matches!(
            check_consensus(&run, &[7]),
            Err(ConsensusViolation::Validity { value: 5, .. })
        ));
    }

    #[test]
    fn termination_violation_only_for_correct() {
        let mut b = RunBuilder::<u8>::new(2);
        decide(&mut b, 0, 7, 2);
        let run = b.finish(5);
        assert!(matches!(
            check_consensus(&run, &[7]),
            Err(ConsensusViolation::Termination { process }) if process == p(1)
        ));
        // If the undecided process crashed, termination is satisfied.
        let mut b = RunBuilder::<u8>::new(2);
        decide(&mut b, 0, 7, 2);
        b.append(p(1), 3, Event::Crash).unwrap();
        let run = b.finish(5);
        check_consensus(&run, &[7]).unwrap();
    }

    #[test]
    fn integrity_violation() {
        let mut b = RunBuilder::<u8>::new(1);
        decide(&mut b, 0, 7, 2);
        decide(&mut b, 0, 7, 3);
        let run = b.finish(5);
        assert!(matches!(
            check_consensus(&run, &[7]),
            Err(ConsensusViolation::Integrity { .. })
        ));
    }

    #[test]
    fn violation_display() {
        let v = ConsensusViolation::Agreement {
            a: (p(0), 1),
            b: (p(1), 2),
        };
        assert!(v.to_string().contains("p0 decided 1 but p1 decided 2"));
    }
}
