//! The achievability harness behind the UDC rows of Table 1.
//!
//! A *cell* of the table fixes a channel regime, a failure-bound regime,
//! and a failure-detector class; the harness runs the designated protocol
//! over many seeded trials with randomized crash schedules and tallies the
//! verdicts. Positive cells should come out all-satisfied; negative cells
//! produce *permanent* violations (spec violated while the whole system is
//! quiescent — nothing in flight, nobody retransmitting) or livelocks
//! (unsatisfied and never quiescent: some process is stuck waiting forever,
//! as when a weak detector never releases a waiter).

use crate::protocols::generalized::GeneralizedUdc;
use crate::protocols::reliable::ReliableUdc;
use crate::protocols::strong_fd::StrongFdUdc;
use crate::protocols::CoordMsg;
use crate::spec::{check_udc, Verdict};
use ktudc_fd::{
    CyclingSubsetOracle, DetectorKind, ImpermanentStrongOracle, PerfectOracle, StrongOracle,
    TUsefulOracle, WeakOracle,
};
use ktudc_model::budget::{AbortReason, Budget};
use ktudc_model::Time;
use ktudc_sim::{
    run_detected, run_protocol, ChannelKind, CrashPlan, FdOracle, NullOracle, SimConfig,
    SimOutcome, Workload,
};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Failure-detector classes selectable by the harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FdChoice {
    /// No detector at all.
    None,
    /// The oracle-free cycling `(S, 0)` detector (only valid for
    /// `t < n/2`) — still "no FD" in the paper's accounting.
    Cycling,
    /// A t-useful generalized detector.
    TUseful,
    /// A weak detector (weak completeness + weak accuracy), *without* the
    /// Proposition 2.1 conversion.
    Weak,
    /// An impermanent-strong detector.
    ImpermanentStrong,
    /// A strong detector.
    Strong,
    /// A perfect detector.
    Perfect,
    /// The *empirical* heartbeat-timeout detector of `ktudc-fd::impls`,
    /// run in the detector plane and fed by real message arrivals — its
    /// class is whatever `ktudc_fd::classify` finds for the regime, not a
    /// definition.
    Heartbeat,
    /// The empirical φ-accrual detector (adaptive timeout).
    PhiAccrual,
    /// The empirical counter-gossip detector (routed liveness).
    Gossip,
}

impl FdChoice {
    /// For the empirical (derived) detector choices, the `DetectorKind` to
    /// instantiate in the detector plane; `None` for oracle classes.
    #[must_use]
    pub fn empirical_kind(self) -> Option<DetectorKind> {
        match self {
            FdChoice::Heartbeat => Some(DetectorKind::Heartbeat),
            FdChoice::PhiAccrual => Some(DetectorKind::PhiAccrual),
            FdChoice::Gossip => Some(DetectorKind::Gossip),
            _ => None,
        }
    }
}

impl fmt::Display for FdChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FdChoice::None => "no FD",
            FdChoice::Cycling => "no FD (cycling (S,0))",
            FdChoice::TUseful => "t-useful",
            FdChoice::Weak => "weak",
            FdChoice::ImpermanentStrong => "imp-strong",
            FdChoice::Strong => "strong",
            FdChoice::Perfect => "perfect",
            FdChoice::Heartbeat => "heartbeat (derived)",
            FdChoice::PhiAccrual => "phi-accrual (derived)",
            FdChoice::Gossip => "gossip (derived)",
        };
        f.write_str(s)
    }
}

/// Protocols selectable by the harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtocolChoice {
    /// Proposition 2.4 (send-then-do; correct only on reliable channels).
    Reliable,
    /// Proposition 3.1 (ack + latched-suspicion gating).
    StrongFd,
    /// Proposition 4.1 (generalized-report gating), with the cell's `t`.
    Generalized,
}

impl fmt::Display for ProtocolChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProtocolChoice::Reliable => "Prop 2.4",
            ProtocolChoice::StrongFd => "Prop 3.1",
            ProtocolChoice::Generalized => "Prop 4.1",
        };
        f.write_str(s)
    }
}

/// One cell's experimental setup.
///
/// Serializes to a flat JSON object so it doubles as the `ktudc-serve` wire
/// schema for `cell` requests; the encoding is pinned by a unit test below
/// (any change to it is a wire-protocol break and must bump the serve
/// schema version).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellSpec {
    /// System size.
    pub n: usize,
    /// Failure bound `t` of the context (crash schedules draw at most `t`
    /// victims).
    pub t: usize,
    /// `None` for reliable channels, `Some(p)` for fair-lossy with drop
    /// probability `p`.
    pub drop_prob: Option<f64>,
    /// Failure-detector class.
    pub fd: FdChoice,
    /// Protocol under test.
    pub protocol: ProtocolChoice,
    /// Simulation horizon.
    pub horizon: Time,
    /// Number of seeded trials.
    pub trials: u64,
}

impl CellSpec {
    /// A cell with sensible defaults (horizon 800, 20 trials).
    #[must_use]
    pub fn new(
        n: usize,
        t: usize,
        drop_prob: Option<f64>,
        fd: FdChoice,
        protocol: ProtocolChoice,
    ) -> Self {
        CellSpec {
            n,
            t,
            drop_prob,
            fd,
            protocol,
            horizon: 800,
            trials: 20,
        }
    }

    /// Overrides the trial count.
    #[must_use]
    pub fn trials(mut self, trials: u64) -> Self {
        self.trials = trials;
        self
    }

    /// Overrides the horizon.
    #[must_use]
    pub fn horizon(mut self, horizon: Time) -> Self {
        self.horizon = horizon;
        self
    }
}

/// Tallied outcome of a cell.
///
/// Round-trips through serde (the `ktudc-serve` `cell` response body);
/// encoding pinned alongside [`CellSpec`]'s.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CellOutcome {
    /// Trials whose run satisfied UDC (by the horizon).
    pub satisfied: u64,
    /// Trials violating UDC with the whole system quiescent — a certified
    /// permanent violation.
    pub violated_permanent: u64,
    /// Trials unsatisfied at the horizon while work was still pending
    /// (stalls/livelocks; in a negative cell these are processes waiting
    /// forever on a peer they cannot clear).
    pub unsatisfied_pending: u64,
    /// Mean messages sent per trial.
    pub mean_messages: f64,
}

impl CellOutcome {
    /// Total trials.
    #[must_use]
    pub fn trials(&self) -> u64 {
        self.satisfied + self.violated_permanent + self.unsatisfied_pending
    }

    /// Whether the cell achieved UDC on every trial.
    #[must_use]
    pub fn achieved(&self) -> bool {
        self.trials() > 0 && self.satisfied == self.trials()
    }
}

impl fmt::Display for CellOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} ok, {} permanent violations, {} stalls",
            self.satisfied,
            self.trials(),
            self.violated_permanent,
            self.unsatisfied_pending
        )
    }
}

/// Runs one cell: `spec.trials` seeded trials with randomized (≤ t) crash
/// schedules, tallying UDC verdicts. Trials are fully determined by their
/// seed and independent of one another, so they fan out through
/// `ktudc_par::par_map` (feature `parallel`) — except inside a
/// `ktudc_par::Pool` job, such as a served cell, where they run one after
/// another on the job's worker. The tally is identical either way.
///
/// # Panics
///
/// Panics on inconsistent specs (e.g. [`FdChoice::Cycling`] with
/// `t ≥ n/2`, which the trivial construction cannot serve).
#[must_use]
pub fn run_cell(spec: &CellSpec) -> CellOutcome {
    match run_cell_budgeted(spec, &Budget::unlimited()) {
        CellStatus::Done(outcome) => outcome,
        CellStatus::Aborted { .. } => unreachable!("an unlimited budget cannot abort"),
    }
}

/// Outcome of a budget-constrained cell evaluation.
#[derive(Clone, Debug, PartialEq)]
pub enum CellStatus {
    /// Every trial ran; the tally is complete.
    Done(CellOutcome),
    /// The budget tripped partway through the trial sweep.
    Aborted {
        /// Why the budget tripped.
        reason: AbortReason,
        /// Tally over the trials that did complete (may be empty).
        partial: CellOutcome,
        /// How many of `spec.trials` trials completed before the trip.
        trials_completed: u64,
    },
}

/// Like [`run_cell`], but polls `budget` once per trial and stops admitting
/// new trials once it trips. Trials already completed are tallied into the
/// `Aborted` partial, so a shed cell still reports what it learned.
///
/// Trials are horizon-bounded and short, so per-trial granularity keeps
/// cancellation latency to one trial's worth of work per thread.
#[must_use]
pub fn run_cell_budgeted(spec: &CellSpec, budget: &Budget) -> CellStatus {
    let seeds: Vec<u64> = (0..spec.trials).collect();
    let trials = ktudc_par::par_map(seeds, |seed| {
        if budget.check().is_err() {
            None
        } else {
            Some(run_trial(spec, seed))
        }
    });
    let mut outcome = CellOutcome::default();
    let mut total_msgs: u64 = 0;
    let mut completed: u64 = 0;
    for trial in trials.into_iter().flatten() {
        completed += 1;
        total_msgs += trial.messages_sent;
        match trial.verdict {
            TrialVerdict::Satisfied => outcome.satisfied += 1,
            TrialVerdict::ViolatedPermanent => outcome.violated_permanent += 1,
            TrialVerdict::UnsatisfiedPending => outcome.unsatisfied_pending += 1,
        }
    }
    outcome.mean_messages = total_msgs as f64 / completed.max(1) as f64;
    match budget.tripped() {
        Some(reason) => CellStatus::Aborted {
            reason,
            partial: outcome,
            trials_completed: completed,
        },
        None => CellStatus::Done(outcome),
    }
}

enum TrialVerdict {
    Satisfied,
    ViolatedPermanent,
    UnsatisfiedPending,
}

struct TrialResult {
    messages_sent: u64,
    verdict: TrialVerdict,
}

fn trial_workload(spec: &CellSpec) -> Workload {
    Workload::periodic(spec.n, 9, spec.horizon / 6)
}

/// The simulated run behind trial `seed` of the cell — what [`run_cell`]
/// generates and then judges, for callers that need the run itself.
///
/// # Panics
///
/// Panics on inconsistent specs, as [`run_cell`] does.
#[must_use]
pub fn simulate_trial(spec: &CellSpec, seed: u64) -> SimOutcome<CoordMsg> {
    let channel = match spec.drop_prob {
        None => ChannelKind::reliable(),
        Some(p) => ChannelKind::fair_lossy(p),
    };
    let config = SimConfig::new(spec.n)
        .channel(channel)
        .crashes(CrashPlan::Random {
            max_failures: spec.t,
            latest: spec.horizon / 4,
        })
        .horizon(spec.horizon)
        .seed(seed);
    let workload = trial_workload(spec);
    if let Some(kind) = spec.fd.empirical_kind() {
        // Derived-detector path: no oracle. The detector runs in its own
        // message plane over the same channel regime, and its suspicion
        // reports land in the protocol's event stream exactly where the
        // oracle's would — the protocol cannot tell the difference.
        let detected = match spec.protocol {
            ProtocolChoice::Reliable => {
                run_detected(&config, |_| ReliableUdc::new(), |_| kind.build(), &workload)
            }
            ProtocolChoice::StrongFd => {
                run_detected(&config, |_| StrongFdUdc::new(), |_| kind.build(), &workload)
            }
            ProtocolChoice::Generalized => run_detected(
                &config,
                |_| GeneralizedUdc::new(spec.t),
                |_| kind.build(),
                &workload,
            ),
        };
        detected.sim
    } else {
        let mut oracle = make_oracle(spec);
        match spec.protocol {
            ProtocolChoice::Reliable => {
                run_protocol(&config, |_| ReliableUdc::new(), oracle.as_mut(), &workload)
            }
            ProtocolChoice::StrongFd => {
                run_protocol(&config, |_| StrongFdUdc::new(), oracle.as_mut(), &workload)
            }
            ProtocolChoice::Generalized => run_protocol(
                &config,
                |_| GeneralizedUdc::new(spec.t),
                oracle.as_mut(),
                &workload,
            ),
        }
    }
}

fn run_trial(spec: &CellSpec, seed: u64) -> TrialResult {
    let out = simulate_trial(spec, seed);
    let verdict = match check_udc(&out.run, &trial_workload(spec).actions()) {
        Verdict::Satisfied => TrialVerdict::Satisfied,
        Verdict::Violated(_) if out.quiescent => TrialVerdict::ViolatedPermanent,
        Verdict::Violated(_) => TrialVerdict::UnsatisfiedPending,
    };
    TrialResult {
        messages_sent: out.messages_sent,
        verdict,
    }
}

/// Oracle for the ground-truth FD classes. The empirical (derived) choices
/// have no oracle — `run_trial` routes them through `run_detected` instead,
/// so reaching here with one is a caller bug.
pub(crate) fn make_oracle(spec: &CellSpec) -> Box<dyn FdOracle> {
    match spec.fd {
        FdChoice::None => Box::new(NullOracle::new()),
        FdChoice::Cycling => Box::new(CyclingSubsetOracle::new(spec.n, spec.t)),
        FdChoice::TUseful => Box::new(TUsefulOracle::new(spec.t)),
        FdChoice::Weak => Box::new(WeakOracle { false_prob: 0.0 }),
        FdChoice::ImpermanentStrong => Box::new(ImpermanentStrongOracle::new()),
        FdChoice::Strong => Box::new(StrongOracle::new()),
        FdChoice::Perfect => Box::new(PerfectOracle::new()),
        FdChoice::Heartbeat | FdChoice::PhiAccrual | FdChoice::Gossip => {
            unreachable!("empirical detectors run in the detector plane, not as oracles")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_cell_reliable_no_fd() {
        let spec = CellSpec::new(4, 3, None, FdChoice::None, ProtocolChoice::Reliable)
            .trials(6)
            .horizon(500);
        let out = run_cell(&spec);
        assert!(out.achieved(), "{out}");
    }

    #[test]
    fn positive_cell_lossy_strong_fd_unbounded_t() {
        let spec = CellSpec::new(4, 3, Some(0.3), FdChoice::Strong, ProtocolChoice::StrongFd)
            .trials(6)
            .horizon(900);
        let out = run_cell(&spec);
        assert!(out.achieved(), "{out}");
    }

    #[test]
    fn positive_cell_lossy_cycling_low_t() {
        let spec = CellSpec::new(
            5,
            2,
            Some(0.3),
            FdChoice::Cycling,
            ProtocolChoice::Generalized,
        )
        .trials(6)
        .horizon(900);
        let out = run_cell(&spec);
        assert!(out.achieved(), "{out}");
    }

    /// Table 1's "strong FD" rows, with the oracle replaced by detectors
    /// that *earn* their suspicions from message arrivals. The asserted
    /// cells are exactly those where `ktudc_fd::classify` grants the
    /// detector (at least) the strong class for the regime: heartbeat on
    /// clean channels; φ-accrual and gossip even at 30% loss. Heartbeat on
    /// lossy channels is deliberately *not* asserted — classification
    /// demotes it there (false suspicions), so Table 1 makes no promise.
    #[test]
    fn positive_cells_with_derived_detectors() {
        for (fd, drop_prob) in [
            (FdChoice::Heartbeat, None),
            (FdChoice::PhiAccrual, Some(0.3)),
            (FdChoice::Gossip, Some(0.3)),
        ] {
            let spec = CellSpec::new(4, 3, drop_prob, fd, ProtocolChoice::StrongFd)
                .trials(6)
                .horizon(900);
            let out = run_cell(&spec);
            assert!(out.achieved(), "{fd}: {out}");
        }
    }

    #[test]
    fn negative_cell_lossy_no_fd_high_t() {
        // Unreliable channels + up to n−1 failures + no detector: the best
        // no-FD protocol (Prop 2.4's) suffers certified permanent
        // violations.
        let spec = CellSpec::new(4, 3, Some(0.6), FdChoice::None, ProtocolChoice::Reliable)
            .trials(25)
            .horizon(600);
        let out = run_cell(&spec);
        assert!(!out.achieved(), "{out}");
        assert!(
            out.violated_permanent > 0,
            "expected certified permanent violations: {out}"
        );
    }

    #[test]
    fn negative_cell_weak_fd_stalls() {
        // An unconverted weak detector leaves non-monitor processes waiting
        // forever on crashed peers: stalls, not completions.
        let spec = CellSpec::new(4, 3, Some(0.3), FdChoice::Weak, ProtocolChoice::StrongFd)
            .trials(20)
            .horizon(700);
        let out = run_cell(&spec);
        assert!(!out.achieved(), "{out}");
        assert!(out.unsatisfied_pending > 0, "{out}");
    }

    #[test]
    fn budgeted_cell_with_headroom_matches_unbudgeted() {
        let spec = CellSpec::new(4, 3, None, FdChoice::None, ProtocolChoice::Reliable)
            .trials(6)
            .horizon(500);
        let plain = run_cell(&spec);
        let budget = Budget::unlimited();
        match run_cell_budgeted(&spec, &budget) {
            CellStatus::Done(outcome) => assert_eq!(outcome, plain),
            CellStatus::Aborted { reason, .. } => panic!("unexpected abort: {reason}"),
        }
        assert_eq!(budget.steps(), spec.trials, "one budget poll per trial");
    }

    #[test]
    fn step_capped_cell_aborts_with_partial_tally() {
        let spec = CellSpec::new(4, 3, None, FdChoice::None, ProtocolChoice::Reliable)
            .trials(8)
            .horizon(500);
        let budget = Budget::unlimited().with_max_steps(3);
        match run_cell_budgeted(&spec, &budget) {
            CellStatus::Aborted {
                reason,
                partial,
                trials_completed,
            } => {
                assert_eq!(reason, AbortReason::StepLimit);
                assert!(trials_completed >= 1, "some trials run before the trip");
                assert!(trials_completed < spec.trials, "the trip sheds trials");
                assert_eq!(partial.trials(), trials_completed);
            }
            CellStatus::Done(outcome) => panic!("a 3-step cap must trip: {outcome}"),
        }
    }

    #[test]
    fn cancelled_cell_runs_no_trials() {
        let spec = CellSpec::new(4, 3, None, FdChoice::None, ProtocolChoice::Reliable)
            .trials(6)
            .horizon(500);
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        match run_cell_budgeted(&spec, &budget) {
            CellStatus::Aborted {
                reason,
                partial,
                trials_completed,
            } => {
                assert_eq!(reason, AbortReason::Cancelled);
                assert_eq!(trials_completed, 0);
                assert_eq!(partial.trials(), 0);
            }
            CellStatus::Done(outcome) => panic!("a cancelled budget must abort: {outcome}"),
        }
    }

    #[test]
    fn wire_schema_is_pinned() {
        // These exact strings are the serve wire schema payloads (the
        // envelope is versioned separately, see `SCHEMA_VERSION`).
        // If this test fails, the encoding changed: bump
        // `ktudc_serve::SCHEMA_VERSION` and repin deliberately — never
        // silently.
        let spec = CellSpec::new(
            4,
            2,
            Some(0.25),
            FdChoice::TUseful,
            ProtocolChoice::Generalized,
        )
        .trials(6)
        .horizon(300);
        let json = serde_json::to_string(&spec).unwrap();
        assert_eq!(
            json,
            r#"{"n":4,"t":2,"drop_prob":0.25,"fd":"TUseful","protocol":"Generalized","horizon":300,"trials":6}"#
        );
        assert_eq!(serde_json::from_str::<CellSpec>(&json).unwrap(), spec);

        // `None` channels encode as an explicit null, and every FD /
        // protocol variant is a bare string tag.
        let reliable = CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable);
        let json = serde_json::to_string(&reliable).unwrap();
        assert!(json.contains(r#""drop_prob":null"#), "{json}");
        assert!(json.contains(r#""fd":"None""#), "{json}");
        assert_eq!(serde_json::from_str::<CellSpec>(&json).unwrap(), reliable);

        // The derived-detector choices are wire-additive bare tags too.
        let derived = CellSpec::new(
            4,
            3,
            Some(0.3),
            FdChoice::PhiAccrual,
            ProtocolChoice::StrongFd,
        );
        let json = serde_json::to_string(&derived).unwrap();
        assert!(json.contains(r#""fd":"PhiAccrual""#), "{json}");
        assert_eq!(serde_json::from_str::<CellSpec>(&json).unwrap(), derived);
        for fd in [FdChoice::Heartbeat, FdChoice::Gossip] {
            let json = serde_json::to_string(&fd).unwrap();
            assert_eq!(serde_json::from_str::<FdChoice>(&json).unwrap(), fd);
        }

        let outcome = CellOutcome {
            satisfied: 5,
            violated_permanent: 1,
            unsatisfied_pending: 0,
            mean_messages: 12.5,
        };
        let json = serde_json::to_string(&outcome).unwrap();
        assert_eq!(
            json,
            r#"{"satisfied":5,"violated_permanent":1,"unsatisfied_pending":0,"mean_messages":12.5}"#
        );
        assert_eq!(serde_json::from_str::<CellOutcome>(&json).unwrap(), outcome);
    }

    #[test]
    fn outcome_accounting() {
        let o = CellOutcome {
            satisfied: 3,
            violated_permanent: 1,
            unsatisfied_pending: 2,
            mean_messages: 10.0,
        };
        assert_eq!(o.trials(), 6);
        assert!(!o.achieved());
        assert!(o.to_string().contains("3/6 ok"));
        assert_eq!(FdChoice::Cycling.to_string(), "no FD (cycling (S,0))");
        assert_eq!(ProtocolChoice::StrongFd.to_string(), "Prop 3.1");
    }
}
