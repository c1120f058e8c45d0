//! Golden pins for exhaustive exploration: for a grid of protocols, sizes
//! and reductions, the run count, completeness flag, [`system_digest`] and
//! reduction counters that `explore_with_stats` reports, plus the
//! checkpointed and budget-aborted walks over the same engine.
//!
//! The constants were recorded before the explorer's plain, reduced and
//! checkpointed paths were folded into one walker; they state that the
//! fold changed no run, no run order and no counter. If a row fails, the
//! explorer's behaviour changed: find the regression, do not repin. CI
//! runs this file under `KTUDC_THREADS=1` and `KTUDC_THREADS=4`, so the
//! same constants also check that nothing depends on the thread count.
//!
//! It lives in `ktudc-core` so that [`ReliableUdc`] (the Proposition 2.4
//! protocol) can be explored beside the sim-level protocols. `ReliableUdc`
//! names its peers by index, so it is *not* equivariant: its symmetric
//! rows pin what the engine does, not a sound verdict.

use ktudc_core::protocols::reliable::ReliableUdc;
use ktudc_model::budget::{AbortReason, Budget};
use ktudc_model::{ActionId, Event, ProcessId, Run, Time};
use ktudc_sim::{
    explore, explore_budgeted, explore_reference, explore_spec, explore_spec_checkpointed,
    explore_spec_checkpointed_budgeted, explore_with_stats, system_digest, CheckpointOutcome,
    ExploreConfig, ExploreSpec, ExploreStatus, ProtoAction, Protocol, WireProtocol,
};
use ktudc_store::SyncPolicy;
use std::fmt::{Debug, Write as _};
use std::hash::Hash;
use std::path::PathBuf;

/// An echo server whose clients (everyone but process 0) are
/// interchangeable: each client sends one message to process 0, which
/// acks every message back to its sender in order of receipt. Nobody
/// names a client by index, so the symmetry reduction is sound for it.
#[derive(Clone, Debug)]
struct Echo {
    me: ProcessId,
    inbox: Vec<ProcessId>,
    acked: usize,
    sent: bool,
}

impl Protocol<u8> for Echo {
    fn start(&mut self, me: ProcessId, _n: usize) {
        self.me = me;
    }
    fn observe(&mut self, _t: Time, e: &Event<u8>) {
        match e {
            Event::Recv { from, .. } if self.me.index() == 0 => self.inbox.push(*from),
            Event::Send { .. } if self.me.index() == 0 => self.acked += 1,
            Event::Send { .. } => self.sent = true,
            _ => {}
        }
    }
    fn next_action(&mut self, _t: Time) -> Option<ProtoAction<u8>> {
        if self.me.index() == 0 {
            (self.acked < self.inbox.len()).then(|| ProtoAction::Send {
                to: self.inbox[self.acked],
                msg: 1,
            })
        } else {
            (!self.sent).then_some(ProtoAction::Send {
                to: ProcessId::new(0),
                msg: 9,
            })
        }
    }
    fn quiescent(&self) -> bool {
        if self.me.index() == 0 {
            self.acked == self.inbox.len()
        } else {
            self.sent
        }
    }
}

fn echo(_: ProcessId) -> Echo {
    Echo {
        me: ProcessId::new(0),
        inbox: Vec::new(),
        acked: 0,
        sent: false,
    }
}

/// The wire `OneShot { from: 0, to: 1, msg: 7 }` protocol, restated here
/// because the wire crate keeps its instantiation private. The plain rows
/// check it against [`explore_spec`], so the two cannot drift apart.
#[derive(Clone, Debug)]
struct OneShot {
    me: ProcessId,
    sent: bool,
}

impl Protocol<u8> for OneShot {
    fn start(&mut self, me: ProcessId, _n: usize) {
        self.me = me;
    }
    fn observe(&mut self, _t: Time, e: &Event<u8>) {
        if matches!(e, Event::Send { .. }) {
            self.sent = true;
        }
    }
    fn next_action(&mut self, _t: Time) -> Option<ProtoAction<u8>> {
        (self.me.index() == 0 && !self.sent).then_some(ProtoAction::Send {
            to: ProcessId::new(1),
            msg: 7,
        })
    }
    fn quiescent(&self) -> bool {
        self.me.index() != 0 || self.sent
    }
}

fn oneshot(_: ProcessId) -> OneShot {
    OneShot {
        me: ProcessId::new(0),
        sent: false,
    }
}

fn oneshot_spec(n: usize, horizon: Time, t: usize) -> ExploreSpec {
    let mut spec = ExploreSpec::new(n, horizon);
    spec.max_failures = t;
    spec.protocol = WireProtocol::OneShot {
        from: 0,
        to: 1,
        msg: 7,
    };
    spec
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Proto {
    Echo,
    OneShot,
    /// `ReliableUdc` with one optional initiation by process 0 at tick 1.
    Reliable,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Plain,
    Symmetric,
    Sleep,
    Both,
}

const MODES: [Mode; 4] = [Mode::Plain, Mode::Symmetric, Mode::Sleep, Mode::Both];

/// `(protocol, n, horizon, max_failures, max_runs)`. The first size of
/// each protocol is small enough that its whole tree fits inside the
/// explorer's 64-root frontier; the Echo row capped at 37 runs pins the
/// run-cap semantics.
const SIZES: [(Proto, usize, Time, usize, Option<usize>); 10] = [
    (Proto::Echo, 2, 2, 1, None),
    (Proto::Echo, 3, 2, 1, None),
    (Proto::Echo, 3, 3, 1, None),
    (Proto::Echo, 3, 4, 2, None),
    (Proto::Echo, 4, 3, 1, Some(37)),
    (Proto::OneShot, 2, 2, 1, None),
    (Proto::OneShot, 4, 3, 1, None),
    (Proto::Reliable, 2, 2, 1, None),
    (Proto::Reliable, 3, 3, 1, None),
    (Proto::Reliable, 3, 4, 1, None),
];

fn config(
    proto: Proto,
    n: usize,
    horizon: Time,
    t: usize,
    cap: Option<usize>,
    mode: Mode,
) -> ExploreConfig {
    let mut cfg = ExploreConfig::new(n, horizon).max_failures(t);
    if let Some(cap) = cap {
        cfg = cfg.max_runs(cap);
    }
    if proto == Proto::Reliable {
        cfg = cfg
            .initiate(1, ActionId::new(ProcessId::new(0), 0))
            .optional_initiations();
    }
    if matches!(mode, Mode::Symmetric | Mode::Both) {
        // Echo's clients and OneShot's bystanders are interchangeable;
        // ReliableUdc declares everyone and relies on the explorer to
        // strip the initiator.
        let class = match proto {
            Proto::Echo => (1..n).collect(),
            Proto::OneShot => (2..n).collect(),
            Proto::Reliable => (0..n).collect(),
        };
        cfg = cfg.symmetric(class);
    }
    if matches!(mode, Mode::Sleep | Mode::Both) {
        cfg = cfg.with_sleep_sets();
    }
    cfg
}

/// Run count, `complete`, `system_digest`, `states_canonicalized`,
/// `sleep_set_pruned`.
type Pin = (usize, bool, u64, u64, u64);

fn measure_with<M, P, F>(cfg: &ExploreConfig, make: F) -> Pin
where
    M: Clone + Eq + Hash + Send + Debug,
    P: Protocol<M> + Clone + Send,
    F: Fn(ProcessId) -> P + Copy,
{
    let (result, stats) = explore_with_stats(cfg, make);
    if cfg.reduction == ktudc_sim::Reduction::default() {
        let reference = explore_reference(cfg, make);
        assert_eq!(result.system.runs(), reference.system.runs(), "{cfg:?}");
        assert_eq!(result.complete, reference.complete, "{cfg:?}");
    }
    (
        result.system.len(),
        result.complete,
        system_digest(&result.system),
        stats.states_canonicalized,
        stats.sleep_set_pruned,
    )
}

fn measure(proto: Proto, cfg: &ExploreConfig) -> Pin {
    match proto {
        Proto::Echo => measure_with(cfg, echo),
        Proto::OneShot => measure_with(cfg, oneshot),
        Proto::Reliable => measure_with(cfg, |_| ReliableUdc::new()),
    }
}

#[test]
fn explorations_are_pinned() {
    let mut rows = Vec::new();
    for (proto, n, horizon, t, cap) in SIZES {
        for mode in MODES {
            rows.push((proto, mode, config(proto, n, horizon, t, cap, mode)));
        }
    }
    assert_eq!(rows.len(), GOLDEN.len(), "one pin per row of the grid");
    let mut drift = String::new();
    for ((proto, mode, cfg), &pin) in rows.iter().zip(GOLDEN) {
        let got = measure(*proto, cfg);
        if *proto == Proto::OneShot && *mode == Mode::Plain {
            let mut spec = oneshot_spec(cfg.n, cfg.horizon, cfg.max_failures);
            spec.max_runs = cfg.max_runs;
            let wire = explore_spec(&spec).unwrap();
            assert_eq!(
                system_digest(&wire.system),
                got.2,
                "local OneShot drifted from the wire one"
            );
        }
        if got != pin {
            writeln!(
                drift,
                "{proto:?} n={} h={} t={} cap={} {mode:?}: pinned {pin:?}, got {got:?}",
                cfg.n, cfg.horizon, cfg.max_failures, cfg.max_runs
            )
            .unwrap();
        }
    }
    assert!(drift.is_empty(), "explorations drifted:\n{drift}");
}

/// In grid order: `SIZES` outermost, then `MODES`.
#[rustfmt::skip]
const GOLDEN: &[Pin] = &[
    (14, true, 0x88ba80bdec7d8514, 0, 0),
    (14, true, 0x88ba80bdec7d8514, 0, 0),
    (14, true, 0x88ba80bdec7d8514, 0, 0),
    (14, true, 0x88ba80bdec7d8514, 0, 0),
    (63, true, 0x6019014ae11597bc, 0, 0),
    (36, true, 0xf4e1c36fee13c32d, 13, 0),
    (63, true, 0x6019014ae11597bc, 0, 0),
    (36, true, 0xf4e1c36fee13c32d, 13, 0),
    (294, true, 0x56748b0e52d99f6e, 0, 0),
    (161, true, 0x4c1be35afb10bb2f, 21, 0),
    (258, true, 0xa317770a86146d0c, 0, 18),
    (140, true, 0xf88114869bf42e88, 21, 10),
    (2791, true, 0x9f3f4dc4917f465b, 0, 0),
    (1486, true, 0x7e2c73e3fd9a14d1, 87, 0),
    (2045, true, 0x37c60175db7a9ae0, 0, 219),
    (1075, true, 0x837a59b227eb89d5, 76, 120),
    (37, false, 0x69f04a37650aab79, 0, 0),
    (37, false, 0x069b17e0fcd93b8d, 204, 0),
    (37, false, 0x69f04a37650aab79, 0, 103),
    (37, false, 0x069b17e0fcd93b8d, 173, 42),
    (18, true, 0xc36506c683612203, 0, 0),
    (18, true, 0xc36506c683612203, 0, 0),
    (16, true, 0x8d94318bd0186771, 0, 2),
    (16, true, 0x8d94318bd0186771, 0, 2),
    (100, true, 0xa2c8c2100912bae7, 0, 0),
    (80, true, 0x49df32fd955b0cb3, 9, 0),
    (73, true, 0xec8632b11562ed51, 0, 17),
    (52, true, 0xa8a18ba2a88aa54d, 15, 12),
    (16, true, 0xf32a72e85b0e24a3, 0, 0),
    (16, true, 0xf32a72e85b0e24a3, 0, 0),
    (16, true, 0xf32a72e85b0e24a3, 0, 0),
    (16, true, 0xf32a72e85b0e24a3, 0, 0),
    (108, true, 0x56692d737a7a53ca, 0, 0),
    (93, true, 0x7e32c51761ee43ff, 5, 0),
    (98, true, 0x9b455b4cc860ff60, 0, 7),
    (79, true, 0x40374b90e065553b, 9, 7),
    (637, true, 0x0aebf91d10497abc, 0, 0),
    (593, true, 0x4ad839336bfd296c, 10, 0),
    (465, true, 0xa3aea16e7bf7f6cf, 0, 79),
    (415, true, 0x94b0f28ce722c715, 14, 77),
];

struct TempPath(PathBuf);

impl TempPath {
    fn new(tag: &str) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!("ktudc-golden-explore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        TempPath(p)
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A checkpointed OneShot exploration: `(n, horizon, max_failures,
/// max_runs)`.
type SpecKey = (usize, Time, usize, usize);

/// Run count, `complete`, `system_digest`, `CheckpointStats::total_subtrees`.
type CheckpointPin = (usize, bool, u64, usize);

/// The first spec fits inside the frontier (one `Leaves` entry); the last
/// is run-capped.
#[rustfmt::skip]
const CHECKPOINTED: &[(SpecKey, CheckpointPin)] = &[
    ((2, 1, 1, 200_000), (6, true, 0x08d092fcf7f39b50, 1)),
    ((3, 4, 1, 200_000), (135, true, 0xa8dd385bba7db30c, 70)),
    ((3, 4, 1, 10), (10, false, 0xea5dcf5ed4f77b60, 70)),
];

#[test]
fn checkpointed_explorations_are_pinned() {
    let mut drift = String::new();
    for (i, &((n, horizon, t, cap), pin)) in CHECKPOINTED.iter().enumerate() {
        let mut spec = oneshot_spec(n, horizon, t);
        spec.max_runs = cap;
        let tmp = TempPath::new(&format!("pinned-{i}"));
        let (fresh, stats) = explore_spec_checkpointed(&spec, &tmp.0, SyncPolicy::Never).unwrap();
        let direct = explore_spec(&spec).unwrap();
        assert_eq!(fresh.system.runs(), direct.system.runs());
        assert_eq!(fresh.complete, direct.complete);
        assert_eq!(stats.computed_subtrees, stats.total_subtrees);
        let (replayed, again) =
            explore_spec_checkpointed(&spec, &tmp.0, SyncPolicy::Never).unwrap();
        assert_eq!(replayed.system.runs(), fresh.system.runs());
        assert_eq!(again.computed_subtrees, 0);
        assert_eq!(again.resumed_subtrees, again.total_subtrees);
        let got = (
            fresh.system.len(),
            fresh.complete,
            system_digest(&fresh.system),
            stats.total_subtrees,
        );
        if got != pin {
            writeln!(
                drift,
                "n={n} h={horizon} t={t} cap={cap}: pinned {pin:?}, got {got:?}"
            )
            .unwrap();
        }
    }
    assert!(
        drift.is_empty(),
        "checkpointed explorations drifted:\n{drift}"
    );
}

#[test]
fn step_capped_checkpoint_resumes_to_the_direct_digest() {
    let spec = oneshot_spec(3, 4, 1);
    let pinned = CHECKPOINTED
        .iter()
        .find(|(key, _)| *key == (3, 4, 1, 200_000))
        .map(|(_, pin)| pin.2);
    // Probe how many polls a full checkpointed walk takes, then allow
    // half: the abort is then certain whatever the thread count.
    let probe = Budget::unlimited();
    {
        let scratch = TempPath::new("probe");
        explore_spec_checkpointed_budgeted(&spec, &scratch.0, SyncPolicy::Never, Some(&probe))
            .unwrap();
    }
    let tmp = TempPath::new("step-capped");
    let budget = Budget::unlimited().with_max_steps(probe.steps() / 2);
    let (outcome, _) =
        explore_spec_checkpointed_budgeted(&spec, &tmp.0, SyncPolicy::Never, Some(&budget))
            .unwrap();
    let CheckpointOutcome::Aborted { reason, .. } = outcome else {
        panic!("a half-walk step cap must abort");
    };
    assert_eq!(reason, AbortReason::StepLimit);
    let (resumed, stats) = explore_spec_checkpointed(&spec, &tmp.0, SyncPolicy::Never).unwrap();
    assert!(stats.resumed);
    assert_eq!(Some(system_digest(&resumed.system)), pinned);
    assert_eq!(
        system_digest(&resumed.system),
        system_digest(&explore_spec(&spec).unwrap().system)
    );
}

/// Whether `part` occurs in `whole` in the same relative order.
fn is_subsequence<M: PartialEq>(part: &[Run<M>], whole: &[Run<M>]) -> bool {
    let mut rest = whole.iter();
    part.iter().all(|run| rest.any(|w| w == run))
}

#[test]
fn budget_abort_partial_is_a_prefix_of_the_full_run_list() {
    let cfg = ExploreConfig::new(3, 3).max_failures(1);
    let full = explore(&cfg, echo);
    let probe = Budget::unlimited();
    assert!(matches!(
        explore_budgeted(&cfg, echo, &probe),
        ExploreStatus::Done(_)
    ));
    let budget = Budget::unlimited().with_max_steps(probe.steps() / 2);
    let ExploreStatus::Aborted { reason, partial } = explore_budgeted(&cfg, echo, &budget) else {
        panic!("a half-walk step cap must abort");
    };
    assert_eq!(reason, AbortReason::StepLimit);
    let partial = partial.expect("half the walk finishes a run");
    assert!(!partial.complete);
    let (part, whole) = (partial.system.runs(), full.system.runs());
    assert!(part.len() < whole.len());
    // Workers abandon their subtrees at the trip, so with several threads
    // the partial keeps frontier order but may skip runs; on one thread
    // the walk is sequential and the partial is exactly a prefix.
    assert!(is_subsequence(part, whole));
    if ktudc_par::thread_count() == 1 {
        assert_eq!(part, &whole[..part.len()]);
    }
}
