//! The failure-detector zoo of Halpern & Ricciardi §2.2 and §4 (after
//! Chandra & Toueg), with machine-checkable property definitions and the
//! class conversions of Propositions 2.1 and 2.2.
//!
//! # Contents
//!
//! * [`oracle`] — concrete per-process oracles pluggable into the
//!   `ktudc-sim` scheduler:
//!   [`PerfectOracle`] (strong completeness + strong
//!   accuracy), [`StrongOracle`] (strong
//!   completeness + weak accuracy), [`WeakOracle`]
//!   (weak completeness + weak accuracy), the impermanent variants
//!   ([`ImpermanentStrongOracle`],
//!   [`ImpermanentWeakOracle`]) that may
//!   *retract* suspicions, the eventually-accurate
//!   [`EventuallyStrongOracle`] (◇S, for the
//!   consensus baselines), the generalized
//!   [`TUsefulOracle`] of §4, and the oracle-free
//!   [`CyclingSubsetOracle`] that realizes the
//!   paper's observation that a t-useful detector is *trivially*
//!   constructible when `t < n/2`.
//! * [`props`] — checkers for every accuracy/completeness property named in
//!   the paper, evaluated on finished runs with explicit finite-horizon
//!   readings.
//! * [`perturb`] — contract-*violating* wrappers for fault injection
//!   ([`FalseSuspector`],
//!   [`SuspicionSuppressor`],
//!   [`LateRetractor`],
//!   [`MinFaultyInflater`]): each breaks
//!   exactly one class property on schedule, so every checker in
//!   [`props`] is regression-tested against its own violation.
//! * [`convert`] — the run-to-run conversions: weak → strong completeness
//!   via suspicion gossip (Proposition 2.1), impermanent-strong → strong via
//!   accumulation (Proposition 2.2), and the §4 equivalences between
//!   `n`-useful generalized detectors and perfect detectors.
//! * [`atd`] — the §5 extension: the Aguilera–Toueg–Deianov weakest-class
//!   accuracy ("at all times *some* correct process is unsuspected", with
//!   the safe process allowed to rotate) and an oracle that maximally
//!   exercises the rotation freedom.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atd;
pub mod classify;
pub mod convert;
pub mod impls;
pub mod oracle;
pub mod perturb;
pub mod props;

pub use atd::{check_atd_accuracy, RotatingAccuracyOracle};
pub use classify::{
    classify_detector, classify_detector_budgeted, condense_class, ClassifySpec, ClassifyStatus,
    EmpiricalClass, FaultRegime, LatencyStats, RegimeVerdict,
};
pub use impls::{
    Beat, DetectorKind, GossipDetector, GossipMsg, HeartbeatDetector, PhiAccrualDetector,
    PhiEstimator, ZooDetector, ZooMsg,
};
pub use oracle::{
    CyclingSubsetOracle, EventuallyStrongOracle, ImpermanentStrongOracle, ImpermanentWeakOracle,
    PerfectOracle, StrongOracle, TUsefulOracle, WeakOracle,
};
pub use perturb::{FalseSuspector, LateRetractor, MinFaultyInflater, SuspicionSuppressor};
pub use props::{check_fd_property, FdProperty, FdViolation};
