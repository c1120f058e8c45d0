//! Differential tests: the bitset-backed [`ModelChecker`] must agree with
//! the scalar [`ReferenceChecker`] — verdict for verdict, point for point —
//! on randomized small systems (n = 3) and randomized formulas, both dense
//! short runs of one horizon and sparser runs whose horizons vary over
//! 0..=70 (so runs straddle words), and on one deterministic system of
//! thousands of odd-length runs.

use ktudc_epistemic::{Formula, ModelChecker, ReferenceChecker};
use ktudc_model::{
    ActionId, Event, Point, ProcSet, ProcessId, Run, RunBuilder, SuspectReport, System, Time,
};
use proptest::prelude::*;

const N: usize = 3;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Builds one run of the given horizon from an adversarial append script;
/// events past the horizon are dropped and illegal appends are simply
/// rejected by the builder, so every script yields a valid run.
fn run_from_script(horizon: Time, script: &[(usize, u64, u8, usize)]) -> Run<u16> {
    let mut b = RunBuilder::<u16>::new(N);
    for &(pi, t, kind, other) in script.iter().filter(|e| e.1 <= horizon) {
        let pr = ProcessId::new(pi % N);
        let q = ProcessId::new(other % N);
        let event = match kind % 6 {
            0 => Event::Send {
                to: q,
                msg: (t % 3) as u16,
            },
            1 => Event::Recv {
                from: q,
                msg: (t % 3) as u16,
            },
            2 => Event::Init {
                action: ActionId::new(pr, (t % 2) as u32),
            },
            3 => Event::Do {
                action: ActionId::new(q, (t % 2) as u32),
            },
            4 => Event::Crash,
            _ => Event::Suspect(SuspectReport::Standard(ProcSet::singleton(q))),
        };
        let _ = b.append(pr, t, event);
    }
    b.finish(horizon)
}

/// Decodes a byte script into a formula, consuming bytes as it recurses.
fn formula_from_script(bytes: &[u8], pos: &mut usize, depth: u8) -> Formula<u16> {
    let mut next = || {
        let b = bytes.get(*pos).copied().unwrap_or(0);
        *pos += 1;
        b
    };
    let op = next();
    let a = next() as usize;
    let b = next() as usize;
    let prim = |a: usize, b: usize| match a % 6 {
        0 => Formula::crashed(p(b % N)),
        1 => Formula::sent(p(a % N), p(b % N), (b % 3) as u16),
        2 => Formula::received(p(a % N), p(b % N), (b % 3) as u16),
        3 => Formula::initiated(ActionId::new(p(a % N), (b % 2) as u32)),
        4 => Formula::did(p(a % N), ActionId::new(p(b % N), (b % 2) as u32)),
        _ => Formula::suspects(p(a % N), p(b % N)),
    };
    if depth == 0 {
        return prim(a, b);
    }
    match op % 8 {
        0 | 1 => prim(a, b),
        2 => Formula::not(formula_from_script(bytes, pos, depth - 1)),
        3 => Formula::and(vec![
            formula_from_script(bytes, pos, depth - 1),
            formula_from_script(bytes, pos, depth - 1),
        ]),
        4 => Formula::or(vec![
            formula_from_script(bytes, pos, depth - 1),
            formula_from_script(bytes, pos, depth - 1),
        ]),
        5 => Formula::always(formula_from_script(bytes, pos, depth - 1)),
        6 => Formula::eventually(formula_from_script(bytes, pos, depth - 1)),
        _ => Formula::knows(p(a % N), formula_from_script(bytes, pos, depth - 1)),
    }
}

/// Asserts that the two checkers agree on `f`: validity (including the
/// counterexample point), the full satisfying-point set, and the value at
/// each of `points`.
fn assert_agree(
    fast: &mut ModelChecker<'_, u16>,
    reference: &mut ReferenceChecker<'_, u16>,
    f: &Formula<u16>,
    points: &[Point],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(fast.valid(f), reference.valid(f), "valid: {:?}", f);
    prop_assert_eq!(
        fast.satisfying_points(f),
        reference.satisfying_points(f),
        "satisfying_points: {:?}",
        f
    );
    for &pt in points {
        prop_assert_eq!(
            fast.eval(f, pt),
            reference.eval(f, pt),
            "eval {:?}: {:?}",
            pt,
            f
        );
    }
    Ok(())
}

/// Runs `formula`-script batches against both checkers over `system`,
/// sharing one checker instance of each across the batch so the
/// subformula cache is exercised too.
fn assert_batch_agrees(system: &System<u16>, fscript: &[u8]) -> Result<(), TestCaseError> {
    let mut fast = ModelChecker::new(system);
    let mut reference = ReferenceChecker::new(system);
    let last = system.len() - 1;
    let points = [
        Point::new(0, system.run(0).horizon().min(2)),
        Point::new(last, system.run(last).horizon()),
    ];
    let mut pos = 0;
    while pos + 3 < fscript.len() {
        let f = formula_from_script(fscript, &mut pos, 3);
        assert_agree(&mut fast, &mut reference, &f, &points)?;
    }
    Ok(())
}

proptest! {
    /// On a random system of dense, short runs of one horizon (up to 24
    /// events over ticks 1..5), the packed checker and the scalar
    /// reference agree on validity (including the counterexample point),
    /// on the full satisfying-point set, and on single-point evaluation.
    #[test]
    fn packed_checker_matches_reference(
        scripts in proptest::collection::vec(
            proptest::collection::vec((0usize..3, 1u64..5, 0u8..6, 0usize..3), 0..24),
            1..5,
        ),
        fscript in proptest::collection::vec(0u8..255, 24..96),
    ) {
        let runs: Vec<Run<u16>> = scripts.iter().map(|s| run_from_script(5, s)).collect();
        assert_batch_agrees(&System::new(runs), &fscript)?;
    }

    /// The same agreement over runs of varied horizons (0..=70), which
    /// pack densely and straddle words. Each event's tick is scaled into
    /// its own run's horizon, so long runs are as busy as short ones.
    #[test]
    fn packed_checker_matches_reference_on_varied_horizons(
        scripts in proptest::collection::vec(
            (
                0u64..=70,
                proptest::collection::vec((0usize..3, 0u64..1 << 20, 0u8..6, 0usize..3), 0..160),
            ),
            1..8,
        ),
        fscript in proptest::collection::vec(0u8..255, 24..96),
    ) {
        let runs: Vec<Run<u16>> = scripts
            .iter()
            .map(|(horizon, script)| {
                let mut script: Vec<_> = script
                    .iter()
                    .filter(|_| *horizon > 0)
                    .map(|&(pi, raw, kind, other)| (pi, 1 + raw % horizon, kind, other))
                    .collect();
                script.sort_by_key(|e| e.1);
                run_from_script(*horizon, &script)
            })
            .collect();
        assert_batch_agrees(&System::new(runs), &fscript)?;
    }
}

/// A deterministic system of 3,000 runs of odd lengths (21 to 61 points,
/// 123k points in all), so most runs straddle a word boundary and every
/// process has thousands of `~_p` spans. `✷`, `✸` and nested `K_p` must
/// agree with the reference over all of it, and at every tick of a run
/// that straddles a word.
#[test]
fn straddling_runs_match_reference() {
    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move |bound: u64| {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (seed >> 33) % bound
    };
    let runs: Vec<Run<u16>> = (0..3000)
        .map(|_| {
            let horizon = 20 + 2 * next(21);
            let mut script: Vec<_> = (0..64)
                .map(|_| {
                    (
                        next(3) as usize,
                        1 + next(horizon),
                        next(6) as u8,
                        next(3) as usize,
                    )
                })
                .collect();
            script.sort_by_key(|e| e.1);
            run_from_script(horizon, &script)
        })
        .collect();
    let system = System::new(runs);

    let mut start = 0;
    let straddler = system
        .runs()
        .iter()
        .position(|r| {
            let end = start + r.horizon() as usize + 1;
            let straddles = start / 64 != (end - 1) / 64 && start > 64 * 64;
            start = end;
            straddles
        })
        .expect("a run straddles a word boundary");

    let mut fast = ModelChecker::new(&system);
    let mut reference = ReferenceChecker::new(&system);
    let straddle_horizon = system.run(straddler).horizon();
    let points: Vec<Point> = (0..=straddle_horizon)
        .map(|m| Point::new(straddler, m))
        .chain([Point::new(0, 0), Point::new(2999, 3)])
        .collect();
    let sent = |a: usize, b: usize| Formula::sent(p(a), p(b), 1);
    let formulas = [
        Formula::always(sent(0, 1)),
        Formula::eventually(Formula::crashed(p(2))),
        Formula::always(Formula::not(Formula::suspects(p(1), p(0)))),
        Formula::eventually(Formula::and(vec![sent(1, 2), Formula::crashed(p(0))])),
        Formula::knows(p(0), sent(0, 2)),
        Formula::knows(p(1), Formula::eventually(Formula::crashed(p(2)))),
        Formula::knows(
            p(2),
            Formula::always(Formula::not(Formula::knows(p(0), Formula::crashed(p(1))))),
        ),
        Formula::knows(
            p(0),
            Formula::or(vec![
                Formula::knows(p(1), sent(1, 0)),
                Formula::eventually(Formula::knows(p(2), sent(2, 1))),
            ]),
        ),
        Formula::always(Formula::knows(
            p(1),
            Formula::implies(sent(0, 1), Formula::eventually(sent(1, 2))),
        )),
    ];
    for f in &formulas {
        assert_agree(&mut fast, &mut reference, f, &points).unwrap();
    }
}
