//! Property-based tests on the run model's invariants.

use ktudc_model::{
    ActionId, Event, ModelError, ProcSet, ProcessId, Run, RunBuilder, SuspectReport, System,
};
use proptest::prelude::*;

/// Arbitrary append attempts: a (process, tick, event-kind) script. Many
/// entries will be rejected by the builder; the invariant is that whatever
/// *commits* forms a well-formed run.
fn script_strategy() -> impl Strategy<Value = Vec<(usize, u64, u8, usize)>> {
    proptest::collection::vec((0usize..4, 1u64..30, 0u8..6, 0usize..4), 0..80)
}

fn build_from_script(script: &[(usize, u64, u8, usize)]) -> Run<u16> {
    let mut b = RunBuilder::<u16>::new(4);
    for &(pi, t, kind, other) in script {
        let p = ProcessId::new(pi);
        let q = ProcessId::new(other);
        let event = match kind {
            0 => Event::Send {
                to: q,
                msg: (t % 7) as u16,
            },
            1 => Event::Recv {
                from: q,
                msg: (t % 7) as u16,
            },
            2 => Event::Init {
                action: ActionId::new(p, (t % 3) as u32),
            },
            3 => Event::Do {
                action: ActionId::new(q, (t % 3) as u32),
            },
            4 => Event::Crash,
            _ => Event::Suspect(SuspectReport::Standard(ProcSet::singleton(q))),
        };
        let _ = b.append(p, t, event);
    }
    b.finish(35)
}

proptest! {
    /// Whatever the adversarial append script, the committed run passes the
    /// R1–R4 validator (R5 skipped: scripts are not fair).
    #[test]
    fn builder_output_is_always_wellformed(script in script_strategy()) {
        let run = build_from_script(&script);
        run.check_conditions(0).unwrap();
    }

    /// Serde round-trips preserve runs exactly.
    #[test]
    fn serde_roundtrip(script in script_strategy()) {
        let run = build_from_script(&script);
        let json = serde_json::to_string(&run).unwrap();
        let back: Run<u16> = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, run);
    }

    /// Prefixes: `run.prefix(m)` is extended by `run` at every `m`, has the
    /// right horizon, and history prefixes agree.
    #[test]
    fn prefixes_are_extensions(script in script_strategy(), m in 0u64..35) {
        let run = build_from_script(&script);
        let pre = run.prefix(m);
        prop_assert_eq!(pre.horizon(), m.min(run.horizon()));
        prop_assert!(pre.is_extended_by(m, &run));
        for p in ProcessId::all(4) {
            prop_assert_eq!(pre.history(p), run.history_at(p, m));
        }
        pre.check_conditions(0).unwrap();
    }

    /// Crash accounting: `faulty` = processes with a crash event, crashes
    /// are history-final, and `crashed_by` is monotone in time.
    #[test]
    fn crash_bookkeeping(script in script_strategy()) {
        let run = build_from_script(&script);
        for p in ProcessId::all(4) {
            let has_crash = run.history(p).iter().any(Event::is_crash);
            prop_assert_eq!(run.faulty().contains(p), has_crash);
            if has_crash {
                prop_assert!(run.history(p).last().unwrap().is_crash());
            }
        }
        let mut prev = ProcSet::new();
        for m in 0..=run.horizon() {
            let now = run.crashed_by(m);
            prop_assert!(prev.is_subset_of(now));
            prev = now;
        }
        prop_assert_eq!(prev, run.faulty());
    }

    /// The `~_p` index against its definition, at every point of a system
    /// of 3–8 scripted runs plus prefixes of some of them (which meet their
    /// source's histories on other runs). For every process: a point's
    /// class id is the first-encounter rank, over (run, tick), of its
    /// history among the distinct histories — found by equality, not by
    /// any index — so the ids agree with `history_at` equality and are
    /// dense; and the classes' blocks partition the points, one block per
    /// class and run.
    #[test]
    fn system_index_matches_bruteforce(
        scripts in proptest::collection::vec(script_strategy(), 3..9),
        cuts in proptest::collection::vec((0usize..8, 0u64..36), 0..4),
    ) {
        let mut runs: Vec<Run<u16>> = scripts.iter().map(|s| build_from_script(s)).collect();
        for &(i, m) in &cuts {
            let prefix = runs[i % scripts.len()].prefix(m);
            runs.push(prefix);
        }
        let sys = System::new(runs);
        let mut next_id = 0;
        for p in ProcessId::all(4) {
            let range = sys.class_range(p);
            prop_assert_eq!(range.start, next_id);
            let mut histories: Vec<&[Event<u16>]> = Vec::new();
            for pt in sys.points() {
                let history = sys.run(pt.run).history_at(p, pt.time);
                let rank = histories.iter().position(|&h| h == history).unwrap_or_else(|| {
                    histories.push(history);
                    histories.len() - 1
                });
                let cid = sys.class_id(p, pt.run, pt.time);
                prop_assert_eq!(cid, range.start + rank as u32, "class of {} for {}", pt, p);
                prop_assert_eq!(sys.indistinguishable_blocks(p, pt.run, pt.time), sys.class_blocks(cid));
            }
            prop_assert_eq!(range.len(), histories.len());
            let mut covered = 0;
            for cid in range.clone() {
                let blocks = sys.class_blocks(cid);
                prop_assert!(!blocks.is_empty());
                prop_assert!(blocks.windows(2).all(|w| w[0].run < w[1].run));
                for b in blocks {
                    for pt in b.points() {
                        prop_assert_eq!(sys.class_id(p, pt.run, pt.time), cid);
                        prop_assert_eq!(sys.run(pt.run).history_at(p, pt.time).len(), b.len);
                        covered += 1;
                    }
                }
            }
            prop_assert_eq!(covered, sys.point_count());
            next_id = range.end;
        }
        prop_assert_eq!(next_id as usize, sys.class_count());
    }

    /// Suspects_p tracks the most recent standard report at every time.
    #[test]
    fn suspects_tracks_latest_report(script in script_strategy(), m in 0u64..35) {
        let run = build_from_script(&script);
        for p in ProcessId::all(4) {
            let expected = run
                .history_at(p, m)
                .iter()
                .rev()
                .find_map(|e| match e {
                    Event::Suspect(SuspectReport::Standard(s)) => Some(*s),
                    _ => None,
                })
                .unwrap_or_default();
            prop_assert_eq!(run.suspects_at(p, m), expected);
        }
    }

    /// Receives never outnumber sends per (sender, receiver, payload) at
    /// any cut — the count form of R3.
    #[test]
    fn receives_never_exceed_sends(script in script_strategy(), m in 0u64..35) {
        let run = build_from_script(&script);
        for from in ProcessId::all(4) {
            for to in ProcessId::all(4) {
                for msg in 0u16..7 {
                    let sent = run.view_at(from, m).send_count(to, &msg);
                    let recv = run.view_at(to, m).recv_count(from, &msg);
                    prop_assert!(recv <= sent, "{recv} receives vs {sent} sends");
                }
            }
        }
    }
}

/// One step of a builder script: `verb` 0–5 appends, 6 force-appends, 7
/// rewinds the most recent committed event.
type BuilderOp = (u8, usize, u64, u8, usize, u16);

fn op_event(p: ProcessId, kind: u8, q: ProcessId, msg: u16) -> Event<u16> {
    match kind {
        0 | 1 => Event::Send { to: q, msg },
        2 | 3 => Event::Recv { from: q, msg },
        4 => Event::Init {
            action: ActionId::new(if msg == 0 { q } else { p }, u32::from(msg)),
        },
        5 => Event::Do {
            action: ActionId::new(q, u32::from(msg)),
        },
        6 => Event::Crash,
        _ => Event::Suspect(SuspectReport::Standard(ProcSet::singleton(q))),
    }
}

proptest! {
    /// `RunBuilder`'s incremental R3 ledger against the batch validator
    /// `Run::check_conditions`, which recounts sends and receives its own
    /// way: over arbitrary append / force-append / LIFO-unappend scripts,
    /// every verdict of `append` is the validator's verdict on the run
    /// that would result, a rewound builder is indistinguishable from one
    /// that never saw the rewound events, and only a forced receive can
    /// make the finished run ill-formed.
    #[test]
    fn builder_verdicts_agree_with_the_validator(
        script in proptest::collection::vec(
            (0u8..8, 0usize..3, 1u64..24, 0u8..8, 0usize..3, 0u16..3),
            0..70,
        ),
    ) {
        const HORIZON: u64 = 30;
        let script: Vec<BuilderOp> = script;
        let mut b = RunBuilder::<u16>::new(3);
        // What is committed right now, oldest first.
        let mut committed: Vec<(ProcessId, u64, Event<u16>, bool)> = Vec::new();
        for (verb, pi, t, kind, qi, msg) in script {
            let (p, q) = (ProcessId::new(pi), ProcessId::new(qi));
            if verb == 7 {
                if let Some((p, _, event, _)) = committed.pop() {
                    prop_assert_eq!(b.unappend(p), Some(event));
                }
                continue;
            }
            let event = op_event(p, kind, q, msg);
            let forced = verb == 6;
            let clean = b.snapshot(HORIZON).check_conditions(0).is_ok();
            // The run this step would produce, R3 aside.
            let mut would_be = b.clone();
            let verdict = match would_be.force_append(p, t, event.clone()) {
                Err(e) => Err(e),
                Ok(()) => would_be.finish(HORIZON).check_conditions(0),
            };
            let plain = b.clone().append(p, t, event.clone());
            let got = if forced {
                b.force_append(p, t, event.clone())
            } else {
                b.append(p, t, event.clone())
            };
            if forced {
                // Forcing waives R3 and nothing else.
                let waived = match plain {
                    Err(ModelError::ReceiveWithoutSend { .. }) => Ok(()),
                    other => other,
                };
                prop_assert_eq!(&got, &waived);
            } else if clean {
                prop_assert_eq!(&got, &verdict, "append of {:?} by {} at {}", event, p, t);
            }
            if got.is_ok() {
                committed.push((p, t, event, forced));
            }
        }
        // A builder that appended and rewound equals one that only ever
        // saw what survived — in the run it yields and in what it accepts
        // next.
        let mut fresh = RunBuilder::<u16>::new(3);
        for (p, t, event, forced) in &committed {
            let replayed = if *forced {
                fresh.force_append(*p, *t, event.clone())
            } else {
                fresh.append(*p, *t, event.clone())
            };
            prop_assert_eq!(replayed, Ok(()));
        }
        for from in ProcessId::all(3) {
            for to in ProcessId::all(3) {
                for msg in 0u16..3 {
                    let probe = Event::Recv { from, msg };
                    prop_assert_eq!(
                        b.clone().append(to, HORIZON, probe.clone()),
                        fresh.clone().append(to, HORIZON, probe)
                    );
                }
            }
        }
        let run = b.finish(HORIZON);
        prop_assert_eq!(&run, &fresh.finish(HORIZON));
        match run.check_conditions(0) {
            Ok(()) => {}
            Err(ModelError::ReceiveWithoutSend { .. }) => {
                prop_assert!(committed.iter().any(|(_, _, e, forced)| {
                    *forced && matches!(e, Event::Recv { .. })
                }));
            }
            Err(other) => prop_assert!(false, "builder let through {}", other),
        }
    }
}

/// Deterministic negative check kept outside proptest: the validator flags
/// a hand-corrupted fairness situation.
#[test]
fn validator_flags_unfair_channels() {
    let mut b = RunBuilder::<u16>::new(2);
    for t in 1..=20 {
        b.append(
            ProcessId::new(0),
            t,
            Event::Send {
                to: ProcessId::new(1),
                msg: 1,
            },
        )
        .unwrap();
    }
    let run = b.finish(25);
    assert!(matches!(
        run.check_conditions(10),
        Err(ModelError::UnfairChannel { .. })
    ));
}
