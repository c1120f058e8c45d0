//! Uniform and non-uniform distributed coordination specifications (§2.4).
//!
//! UDC of an action `α ∈ A_p` holds in a system when three conditions are
//! valid:
//!
//! * **DC1** `init_p(α) ⇒ ✸(do_p(α) ∨ crash(p))` — the initiator itself
//!   eventually performs the action or crashes;
//! * **DC2** `⋀_{q1,q2} (do_q1(α) ⇒ ✸(do_q2(α) ∨ crash(q2)))` — if
//!   *anyone* (correct or not!) performs `α`, every process eventually
//!   performs it or crashes; this is the *uniformity* that distinguishes
//!   UDC from consensus-style agreement;
//! * **DC3** `⋀_q (do_q(α) ⇒ init_p(α))` — nothing is performed that was
//!   never initiated.
//!
//! nUDC replaces DC2 by **DC2′**, which additionally excuses coordination
//! when the performer `q1` itself crashes.
//!
//! Two evaluation routes are provided: [`check_udc`] / [`check_nudc`]
//! evaluate a single finished run under the finite-horizon reading of `✸`
//! ("by the horizon"), returning witness-carrying verdicts;
//! [`udc_formula`] / [`nudc_formula`] build the conditions as
//! epistemic-temporal formulas so `ktudc-epistemic` can check them as
//! validities over exhaustively explored systems.

use ktudc_epistemic::Formula;
use ktudc_model::{ActionId, Event, ProcSet, ProcessId, Run, Time};
use std::fmt;

/// A specification violation with its witnessing configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecViolation {
    /// DC1: the initiator initiated but neither performed nor crashed by
    /// the horizon.
    Dc1 {
        /// The orphaned action.
        action: ActionId,
    },
    /// DC2 (or DC2′): `performer` performed but `missing` neither performed
    /// nor crashed by the horizon (and, for DC2′, the performer stayed
    /// correct).
    Dc2 {
        /// The action.
        action: ActionId,
        /// A process that performed `α`.
        performer: ProcessId,
        /// A process that did not (and did not crash).
        missing: ProcessId,
    },
    /// DC3: `performer` performed an action that was never initiated.
    Dc3 {
        /// The action.
        action: ActionId,
        /// The offending performer.
        performer: ProcessId,
        /// When it performed.
        time: Time,
    },
}

impl fmt::Display for SpecViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecViolation::Dc1 { action } => {
                write!(
                    f,
                    "DC1: {action} initiated but initiator neither did it nor crashed"
                )
            }
            SpecViolation::Dc2 {
                action,
                performer,
                missing,
            } => write!(
                f,
                "DC2: {performer} performed {action} but {missing} neither performed it nor crashed"
            ),
            SpecViolation::Dc3 {
                action,
                performer,
                time,
            } => write!(
                f,
                "DC3: {performer} performed uninitiated {action} at tick {time}"
            ),
        }
    }
}

impl std::error::Error for SpecViolation {}

/// The outcome of checking a coordination spec on a finished run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// All conditions met (liveness met *by the horizon*).
    Satisfied,
    /// A condition failed; DC3 failures are true safety violations, DC1/DC2
    /// failures are horizon-relative (combine with quiescence information
    /// to certify a genuine violation — see
    /// [`harness`](crate::harness)).
    Violated(SpecViolation),
}

impl Verdict {
    /// `true` for [`Verdict::Satisfied`].
    #[must_use]
    pub fn is_satisfied(&self) -> bool {
        matches!(self, Verdict::Satisfied)
    }
}

/// Checks UDC (DC1 ∧ DC2 ∧ DC3) for every listed action on one run, under
/// the finite-horizon reading of `✸`.
#[must_use]
pub fn check_udc<M>(run: &Run<M>, actions: &[ActionId]) -> Verdict {
    check(run, actions, true)
}

/// Checks nUDC (DC1 ∧ DC2′ ∧ DC3) for every listed action on one run.
#[must_use]
pub fn check_nudc<M>(run: &Run<M>, actions: &[ActionId]) -> Verdict {
    check(run, actions, false)
}

fn check<M>(run: &Run<M>, actions: &[ActionId], uniform: bool) -> Verdict {
    let n = run.n();
    // One scan per history collects everything the conditions ask about:
    // who crashed, which listed actions their initiator initiated, and
    // when each process first performed each of them.
    let mut crashed = ProcSet::new();
    let mut initiated = vec![false; actions.len()];
    let mut first_do: Vec<Option<Time>> = vec![None; actions.len() * n];
    let listed = |action: &ActionId| actions.iter().position(|a| a == action);
    for q in ProcessId::all(n) {
        for (t, event) in run.timed_history(q) {
            match event {
                Event::Crash => {
                    crashed.insert(q);
                }
                Event::Init { action } if action.initiator() == q => {
                    if let Some(a) = listed(action) {
                        initiated[a] = true;
                    }
                }
                Event::Do { action } => {
                    if let Some(a) = listed(action) {
                        first_do[a * n + q.index()].get_or_insert(t);
                    }
                }
                _ => {}
            }
        }
    }
    for (a, &action) in actions.iter().enumerate() {
        let did = &first_do[a * n..(a + 1) * n];
        let settled = |q: ProcessId| did[q.index()].is_some() || crashed.contains(q);
        if initiated[a] {
            // DC1.
            if !settled(action.initiator()) {
                return Verdict::Violated(SpecViolation::Dc1 { action });
            }
        } else if let Some((performer, time)) =
            ProcessId::all(n).find_map(|q| did[q.index()].map(|t| (q, t)))
        {
            // DC3 (safety): a do without an init.
            return Verdict::Violated(SpecViolation::Dc3 {
                action,
                performer,
                time,
            });
        }
        // DC2 / DC2′: any performer obliges everyone — except that DC2′
        // excuses coordination when the performer crashed.
        let performer = ProcessId::all(n)
            .find(|&q| did[q.index()].is_some() && (uniform || run.crash_time(q).is_none()));
        if let Some(performer) = performer {
            if let Some(missing) = ProcessId::all(n).find(|&q| !settled(q)) {
                return Verdict::Violated(SpecViolation::Dc2 {
                    action,
                    performer,
                    missing,
                });
            }
        }
    }
    Verdict::Satisfied
}

/// DC1 as a formula: `init_p(α) ⇒ ✸(do_p(α) ∨ crash(p))`.
#[must_use]
pub fn dc1_formula<M>(action: ActionId) -> Formula<M> {
    let p = action.initiator();
    Formula::implies(
        Formula::initiated(action),
        Formula::eventually(Formula::or(vec![
            Formula::did(p, action),
            Formula::crashed(p),
        ])),
    )
}

/// DC2 as a formula: `⋀_{q1,q2} (do_q1(α) ⇒ ✸(do_q2(α) ∨ crash(q2)))`.
#[must_use]
pub fn dc2_formula<M>(n: usize, action: ActionId) -> Formula<M> {
    let mut conjuncts = Vec::new();
    for q1 in ProcessId::all(n) {
        for q2 in ProcessId::all(n) {
            conjuncts.push(Formula::implies(
                Formula::did(q1, action),
                Formula::eventually(Formula::or(vec![
                    Formula::did(q2, action),
                    Formula::crashed(q2),
                ])),
            ));
        }
    }
    Formula::and(conjuncts)
}

/// DC2′ as a formula (nUDC): the consequent may also be discharged by the
/// *performer* crashing.
#[must_use]
pub fn dc2_prime_formula<M>(n: usize, action: ActionId) -> Formula<M> {
    let mut conjuncts = Vec::new();
    for q1 in ProcessId::all(n) {
        for q2 in ProcessId::all(n) {
            conjuncts.push(Formula::implies(
                Formula::did(q1, action),
                Formula::eventually(Formula::or(vec![
                    Formula::did(q2, action),
                    Formula::crashed(q2),
                    Formula::crashed(q1),
                ])),
            ));
        }
    }
    Formula::and(conjuncts)
}

/// DC3 as a formula: `⋀_q (do_q(α) ⇒ init_p(α))`.
#[must_use]
pub fn dc3_formula<M>(n: usize, action: ActionId) -> Formula<M> {
    Formula::and(
        ProcessId::all(n)
            .map(|q| Formula::implies(Formula::did(q, action), Formula::initiated(action)))
            .collect(),
    )
}

/// The full UDC specification DC1 ∧ DC2 ∧ DC3 as one formula, for validity
/// checking over explored systems.
#[must_use]
pub fn udc_formula<M>(n: usize, action: ActionId) -> Formula<M> {
    Formula::and(vec![
        dc1_formula(action),
        dc2_formula(n, action),
        dc3_formula(n, action),
    ])
}

/// The full nUDC specification DC1 ∧ DC2′ ∧ DC3 as one formula.
#[must_use]
pub fn nudc_formula<M>(n: usize, action: ActionId) -> Formula<M> {
    Formula::and(vec![
        dc1_formula(action),
        dc2_prime_formula(n, action),
        dc3_formula(n, action),
    ])
}

/// **Proposition 3.5** as a formula, for one observer `p` and one action
/// `α` (the paper conjoins over all `p, p′, α`):
///
/// ```text
/// K_p(init(α) ∧ ⋀_q ✸(K_q init(α) ∨ crash(q)))
///   ⇒ K_p(⋁_q ✷¬crash(q) ⇒ ⋁_q (K_q init(α) ∧ ✷¬crash(q)))
/// ```
///
/// "If `p` knows the action was initiated and that everyone will either
/// learn of it or crash, then `p` knows that — should any process survive
/// forever — some *forever-correct* process knows of the initiation."
/// This is the epistemic pivot of the Theorem 3.6 proof. Note the
/// finite-horizon reading of `✷¬crash(q)` ("`q` does not crash up to the
/// horizon") makes validity conservative: the paper's infinite-run
/// statement is approximated from the safe side.
#[must_use]
pub fn prop_3_5_formula<M: Clone>(n: usize, p: ProcessId, action: ActionId) -> Formula<M> {
    let premise = Formula::knows(
        p,
        Formula::and(
            std::iter::once(Formula::initiated(action))
                .chain(ProcessId::all(n).map(|q| {
                    Formula::eventually(Formula::or(vec![
                        Formula::knows(q, Formula::initiated(action)),
                        Formula::crashed(q),
                    ]))
                }))
                .collect(),
        ),
    );
    let someone_survives = Formula::or(
        ProcessId::all(n)
            .map(|q| Formula::always(Formula::not(Formula::crashed(q))))
            .collect(),
    );
    let informed_survivor = Formula::or(
        ProcessId::all(n)
            .map(|q| {
                Formula::and(vec![
                    Formula::knows(q, Formula::initiated(action)),
                    Formula::always(Formula::not(Formula::crashed(q))),
                ])
            })
            .collect(),
    );
    let conclusion = Formula::knows(p, Formula::implies(someone_survives, informed_survivor));
    Formula::implies(premise, conclusion)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktudc_epistemic::ModelChecker;
    use ktudc_model::{Event, RunBuilder, System};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn alpha() -> ActionId {
        ActionId::new(p(0), 0)
    }

    #[test]
    fn satisfied_when_everyone_performs() {
        let mut b = RunBuilder::<u8>::new(3);
        b.append(p(0), 1, Event::Init { action: alpha() }).unwrap();
        b.append(p(0), 2, Event::Do { action: alpha() }).unwrap();
        b.append(p(1), 3, Event::Do { action: alpha() }).unwrap();
        b.append(p(2), 4, Event::Do { action: alpha() }).unwrap();
        let run = b.finish(5);
        assert_eq!(check_udc(&run, &[alpha()]), Verdict::Satisfied);
        assert_eq!(check_nudc(&run, &[alpha()]), Verdict::Satisfied);
    }

    #[test]
    fn satisfied_when_missing_process_crashed() {
        let mut b = RunBuilder::<u8>::new(3);
        b.append(p(0), 1, Event::Init { action: alpha() }).unwrap();
        b.append(p(2), 1, Event::Crash).unwrap();
        b.append(p(0), 2, Event::Do { action: alpha() }).unwrap();
        b.append(p(1), 3, Event::Do { action: alpha() }).unwrap();
        let run = b.finish(5);
        assert_eq!(check_udc(&run, &[alpha()]), Verdict::Satisfied);
    }

    #[test]
    fn dc1_violation() {
        let mut b = RunBuilder::<u8>::new(2);
        b.append(p(0), 1, Event::Init { action: alpha() }).unwrap();
        let run = b.finish(5);
        assert_eq!(
            check_udc(&run, &[alpha()]),
            Verdict::Violated(SpecViolation::Dc1 { action: alpha() })
        );
    }

    #[test]
    fn dc2_violation_uniformity() {
        // p0 performs then crashes; p1 never performs. UDC violated — and
        // this is exactly the case nUDC (DC2′) forgives.
        let mut b = RunBuilder::<u8>::new(2);
        b.append(p(0), 1, Event::Init { action: alpha() }).unwrap();
        b.append(p(0), 2, Event::Do { action: alpha() }).unwrap();
        b.append(p(0), 3, Event::Crash).unwrap();
        let run = b.finish(8);
        match check_udc(&run, &[alpha()]) {
            Verdict::Violated(SpecViolation::Dc2 {
                performer, missing, ..
            }) => {
                assert_eq!(performer, p(0));
                assert_eq!(missing, p(1));
            }
            other => panic!("expected DC2 violation, got {other:?}"),
        }
        assert_eq!(check_nudc(&run, &[alpha()]), Verdict::Satisfied);
    }

    #[test]
    fn nudc_still_binds_correct_performers() {
        // A *correct* performer obliges everyone even under nUDC.
        let mut b = RunBuilder::<u8>::new(2);
        b.append(p(0), 1, Event::Init { action: alpha() }).unwrap();
        b.append(p(0), 2, Event::Do { action: alpha() }).unwrap();
        let run = b.finish(8);
        assert!(matches!(
            check_nudc(&run, &[alpha()]),
            Verdict::Violated(SpecViolation::Dc2 { .. })
        ));
    }

    #[test]
    fn dc3_violation_is_flagged() {
        let mut b = RunBuilder::<u8>::new(2);
        b.append(p(1), 2, Event::Do { action: alpha() }).unwrap();
        let run = b.finish(5);
        assert!(matches!(
            check_udc(&run, &[alpha()]),
            Verdict::Violated(SpecViolation::Dc3 {
                performer,
                ..
            }) if performer == p(1)
        ));
    }

    #[test]
    fn uninitiated_action_is_vacuously_satisfied() {
        let run = RunBuilder::<u8>::new(2).finish(5);
        assert_eq!(check_udc(&run, &[alpha()]), Verdict::Satisfied);
    }

    #[test]
    fn formulas_agree_with_run_checker() {
        // Build a 2-run system: one satisfying, one DC2-violating, and
        // check the formula verdicts match the run checker's.
        let mut b = RunBuilder::<u8>::new(2);
        b.append(p(0), 1, Event::Init { action: alpha() }).unwrap();
        b.append(p(0), 2, Event::Do { action: alpha() }).unwrap();
        b.append(p(1), 3, Event::Do { action: alpha() }).unwrap();
        let good = b.finish(4);
        let mut b = RunBuilder::<u8>::new(2);
        b.append(p(0), 1, Event::Init { action: alpha() }).unwrap();
        b.append(p(0), 2, Event::Do { action: alpha() }).unwrap();
        b.append(p(0), 3, Event::Crash).unwrap();
        let bad = b.finish(4);
        assert!(check_udc(&good, &[alpha()]).is_satisfied());
        assert!(!check_udc(&bad, &[alpha()]).is_satisfied());

        let sys = System::new(vec![good, bad]);
        let mut mc = ModelChecker::new(&sys);
        let f = udc_formula::<u8>(2, alpha());
        let err = mc.valid(&f).unwrap_err();
        assert_eq!(err.run, 1, "the violating point must lie in the bad run");
        // The good run satisfies the formula at all its points.
        let g = udc_formula::<u8>(2, alpha());
        for m in 0..=4 {
            assert!(mc.eval(&g, ktudc_model::Point::new(0, m)));
        }
    }

    #[test]
    fn nudc_formula_forgives_crashed_performer() {
        let mut b = RunBuilder::<u8>::new(2);
        b.append(p(0), 1, Event::Init { action: alpha() }).unwrap();
        b.append(p(0), 2, Event::Do { action: alpha() }).unwrap();
        b.append(p(0), 3, Event::Crash).unwrap();
        let sys = System::new(vec![b.finish(4)]);
        let mut mc = ModelChecker::new(&sys);
        mc.valid(&nudc_formula::<u8>(2, alpha())).unwrap();
        assert!(mc.valid(&udc_formula::<u8>(2, alpha())).is_err());
    }

    #[test]
    fn violation_display() {
        let v = SpecViolation::Dc2 {
            action: alpha(),
            performer: p(0),
            missing: p(1),
        };
        assert!(v.to_string().contains("p0 performed a0.0 but p1"));
    }
}
