//! Serializable exploration scenarios — the wire form of the explorer.
//!
//! [`ExploreConfig`] cannot travel over a wire: its
//! failure-detector rule is a bare function pointer and its protocol is a
//! type parameter. [`ExploreSpec`] closes both over a small named
//! vocabulary — the deterministic FD rules ([`FdRule`]) and the explorer
//! protocols ([`WireProtocol`]) the workspace actually exercises — so a
//! remote client can request an exhaustive exploration (or an epistemic
//! check over one) from `ktudc-serve` by value.
//!
//! Run sets are far too large to ship back, so [`ExploreOutcome`] returns
//! counts plus a [`system_digest`]: a stable 64-bit fingerprint of the
//! entire run set (every event of every process of every run, in order,
//! hashed with the platform-pinned
//! [`StableHasher`]). Two explorations
//! agree on the digest iff they produced the identical system, so clients
//! can certify a remote exploration against a local one without moving the
//! runs.

use crate::explorer::{
    explore, explore_budgeted, ExploreConfig, ExploreResult, ExploreStatus, ExplorerFd,
};
use crate::protocol::{ProtoAction, Protocol};
use ktudc_model::budget::{AbortReason, Budget};
use ktudc_model::hashing::StableHasher;
use ktudc_model::{ActionId, Event, ProcSet, ProcessId, SuspectReport, System, Time};
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// Message payload used by every wire-selectable explorer protocol.
pub type WireMsg = u8;

/// Deterministic failure-detector rules nameable over the wire.
///
/// The explorer's [`ExplorerFd`] is a plain function pointer (it cannot
/// capture state), so parameterized rules are backed by a small table of
/// static functions; the supported periods are 1–4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FdRule {
    /// No failure detector.
    None,
    /// Perfect-style reports: every `period` ticks, each live process
    /// receives the branch-local crashed set as a standard report.
    Perfect {
        /// Reporting period in ticks (1–4).
        period: Time,
    },
}

/// Explorer protocols nameable over the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireProtocol {
    /// Every process does nothing; the explorer branches only over crashes,
    /// stutters, and initiations.
    Idle,
    /// Process `from` sends `msg` to `to` at its first opportunity, then
    /// goes quiet — the minimal protocol whose systems exhibit message
    /// loss, delay, and the knowledge asymmetries the checker cares about.
    OneShot {
        /// Sender.
        from: usize,
        /// Destination.
        to: usize,
        /// Payload.
        msg: WireMsg,
    },
}

/// A serializable exploration scenario: [`ExploreConfig`] with the function
/// pointer and protocol type closed over [`FdRule`] / [`WireProtocol`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExploreSpec {
    /// Number of processes (keep at 2–3; branching is exponential).
    pub n: usize,
    /// Last tick to simulate.
    pub horizon: Time,
    /// Failure budget `t`.
    pub max_failures: usize,
    /// Whether processes may stutter when other choices exist.
    pub allow_stutter: bool,
    /// Failure-detector rule.
    pub fd: FdRule,
    /// Whether an FD report preempts the slot (see
    /// [`ExploreConfig::fd_forced`]).
    pub fd_forced: bool,
    /// Scheduled initiations `(tick, action)`.
    pub initiations: Vec<(Time, ActionId)>,
    /// Whether initiations fire deterministically (see
    /// [`ExploreConfig::forced_initiations`]).
    pub forced_initiations: bool,
    /// Hard cap on generated runs.
    pub max_runs: usize,
    /// Protocol under exploration.
    pub protocol: WireProtocol,
}

impl ExploreSpec {
    /// A default scenario mirroring [`ExploreConfig::new`]: up to `n − 1`
    /// failures, stutter allowed, no FD, no workload, 200 000-run cap, the
    /// [`WireProtocol::Idle`] protocol.
    #[must_use]
    pub fn new(n: usize, horizon: Time) -> Self {
        ExploreSpec {
            n,
            horizon,
            max_failures: n.saturating_sub(1),
            allow_stutter: true,
            fd: FdRule::None,
            fd_forced: true,
            initiations: Vec::new(),
            forced_initiations: true,
            max_runs: 200_000,
            protocol: WireProtocol::Idle,
        }
    }

    /// Validates the spec and lowers it to an [`ExploreConfig`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field (zero `n`,
    /// oversized system, out-of-range FD period, or a protocol endpoint
    /// outside `0..n`).
    pub fn to_config(&self) -> Result<ExploreConfig, String> {
        if self.n == 0 {
            return Err("explore spec: n must be at least 1".to_string());
        }
        if self.n > ProcessId::MAX_PROCESSES {
            return Err(format!(
                "explore spec: n = {} exceeds the supported maximum of {}",
                self.n,
                ProcessId::MAX_PROCESSES
            ));
        }
        if let WireProtocol::OneShot { from, to, .. } = self.protocol {
            if from >= self.n || to >= self.n {
                return Err(format!(
                    "explore spec: OneShot endpoints ({from} -> {to}) out of range for n = {}",
                    self.n
                ));
            }
        }
        let mut config = ExploreConfig::new(self.n, self.horizon)
            .max_failures(self.max_failures)
            .max_runs(self.max_runs);
        config.allow_stutter = self.allow_stutter;
        config.fd = match self.fd {
            FdRule::None => None,
            FdRule::Perfect { period } => Some(perfect_rule(period)?),
        };
        config.fd_forced = self.fd_forced;
        config.initiations = self.initiations.clone();
        config.forced_initiations = self.forced_initiations;
        Ok(config)
    }
}

/// Result summary of a wire exploration: sizes plus the run-set digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExploreOutcome {
    /// Number of generated runs.
    pub runs: usize,
    /// Whether the enumeration finished under the run cap.
    pub complete: bool,
    /// Total events across all runs.
    pub events: u64,
    /// [`system_digest`] of the generated system.
    pub digest: u64,
}

/// The function-pointer table behind [`FdRule::Perfect`].
fn perfect_rule(period: Time) -> Result<ExplorerFd, String> {
    fn report(p: ProcessId, t: Time, crashed: ProcSet, period: Time) -> Option<SuspectReport> {
        (t.is_multiple_of(period) && !crashed.contains(p))
            .then_some(SuspectReport::Standard(crashed))
    }
    fn every_1(p: ProcessId, t: Time, c: ProcSet) -> Option<SuspectReport> {
        report(p, t, c, 1)
    }
    fn every_2(p: ProcessId, t: Time, c: ProcSet) -> Option<SuspectReport> {
        report(p, t, c, 2)
    }
    fn every_3(p: ProcessId, t: Time, c: ProcSet) -> Option<SuspectReport> {
        report(p, t, c, 3)
    }
    fn every_4(p: ProcessId, t: Time, c: ProcSet) -> Option<SuspectReport> {
        report(p, t, c, 4)
    }
    match period {
        1 => Ok(every_1),
        2 => Ok(every_2),
        3 => Ok(every_3),
        4 => Ok(every_4),
        other => Err(format!(
            "explore spec: unsupported FD period {other} (supported: 1-4)"
        )),
    }
}

/// A wire-selectable explorer protocol instance.
#[derive(Clone, Debug)]
pub enum WireProto {
    /// See [`WireProtocol::Idle`].
    Idle,
    /// See [`WireProtocol::OneShot`]; tracks the local process and whether
    /// the send has happened.
    OneShot {
        /// This process.
        me: ProcessId,
        /// Sender named by the spec.
        from: ProcessId,
        /// Destination named by the spec.
        to: ProcessId,
        /// Payload.
        msg: WireMsg,
        /// Whether the send has been taken.
        sent: bool,
    },
}

impl Protocol<WireMsg> for WireProto {
    fn start(&mut self, me: ProcessId, _n: usize) {
        if let WireProto::OneShot { me: slot, .. } = self {
            *slot = me;
        }
    }

    fn observe(&mut self, _time: Time, event: &Event<WireMsg>) {
        if let WireProto::OneShot { sent, .. } = self {
            if matches!(event, Event::Send { .. }) {
                *sent = true;
            }
        }
    }

    fn next_action(&mut self, _time: Time) -> Option<ProtoAction<WireMsg>> {
        match self {
            WireProto::Idle => None,
            WireProto::OneShot {
                me,
                from,
                to,
                msg,
                sent,
            } => (me == from && !*sent).then_some(ProtoAction::Send { to: *to, msg: *msg }),
        }
    }

    fn quiescent(&self) -> bool {
        match self {
            WireProto::Idle => true,
            WireProto::OneShot { me, from, sent, .. } => me != from || *sent,
        }
    }
}

impl WireProtocol {
    /// Instantiates the named protocol for process `me` (the factory the
    /// explorer — direct or checkpointed — hands each process).
    pub(crate) fn instantiate(self, me: ProcessId) -> WireProto {
        match self {
            WireProtocol::Idle => WireProto::Idle,
            WireProtocol::OneShot { from, to, msg } => WireProto::OneShot {
                me,
                from: ProcessId::new(from),
                to: ProcessId::new(to),
                msg,
                sent: false,
            },
        }
    }
}

/// Runs the exploration a spec describes, returning the full system (for
/// local analysis, e.g. an epistemic check) and its completeness flag.
///
/// # Errors
///
/// Returns the validation error of [`ExploreSpec::to_config`].
pub fn explore_spec(spec: &ExploreSpec) -> Result<ExploreResult<WireMsg>, String> {
    let config = spec.to_config()?;
    let proto = spec.protocol;
    Ok(explore(&config, move |p| proto.instantiate(p)))
}

/// Runs the exploration and summarizes it for the wire.
///
/// # Errors
///
/// Returns the validation error of [`ExploreSpec::to_config`].
pub fn run_explore_spec(spec: &ExploreSpec) -> Result<ExploreOutcome, String> {
    let result = explore_spec(spec)?;
    Ok(summarize(&result))
}

/// [`explore_spec`] under a [`Budget`]: the enumeration polls the budget
/// and returns [`ExploreStatus::Aborted`] with the partial system when it
/// trips.
///
/// # Errors
///
/// Returns the validation error of [`ExploreSpec::to_config`].
pub fn explore_spec_budgeted(
    spec: &ExploreSpec,
    budget: &Budget,
) -> Result<ExploreStatus<WireMsg>, String> {
    let config = spec.to_config()?;
    let proto = spec.protocol;
    Ok(explore_budgeted(
        &config,
        move |p| proto.instantiate(p),
        budget,
    ))
}

/// A wire exploration summary that may have been budget-aborted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExploreStatusOutcome {
    /// The enumeration ran to its natural end.
    Done(ExploreOutcome),
    /// The budget tripped; `partial` summarizes the runs generated before
    /// the trip (`complete` is always `false`; `None` when the trip
    /// preceded the first full run).
    Aborted {
        /// Why the budget tripped.
        reason: AbortReason,
        /// Summary of the partial system.
        partial: Option<ExploreOutcome>,
    },
}

/// Runs a budgeted exploration and summarizes it for the wire.
///
/// # Errors
///
/// Returns the validation error of [`ExploreSpec::to_config`].
pub fn run_explore_spec_budgeted(
    spec: &ExploreSpec,
    budget: &Budget,
) -> Result<ExploreStatusOutcome, String> {
    Ok(match explore_spec_budgeted(spec, budget)? {
        ExploreStatus::Done(result) => ExploreStatusOutcome::Done(summarize(&result)),
        ExploreStatus::Aborted { reason, partial } => ExploreStatusOutcome::Aborted {
            reason,
            partial: partial.as_ref().map(summarize),
        },
    })
}

fn summarize(result: &ExploreResult<WireMsg>) -> ExploreOutcome {
    ExploreOutcome {
        runs: result.system.len(),
        complete: result.complete,
        events: result
            .system
            .runs()
            .iter()
            .map(|r| r.event_count() as u64)
            .sum(),
        digest: system_digest(&result.system),
    }
}

/// Stable 64-bit fingerprint of an entire run set: run count, then every
/// run's horizon and full per-process timed histories, hashed with the
/// pinned [`StableHasher`]. Equal digests ⇔ identical systems (up to hash
/// collision, ~2⁻⁶⁴ per comparison).
#[must_use]
pub fn system_digest<M: Hash>(system: &System<M>) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(system.len() as u64);
    for run in system.runs() {
        h.write_u64(run.horizon());
        for p in ProcessId::all(run.n()) {
            for (t, event) in run.timed_history(p) {
                h.write_u64(t);
                event.hash(&mut h);
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        let mut spec = ExploreSpec::new(2, 3);
        spec.fd = FdRule::Perfect { period: 2 };
        spec.fd_forced = false;
        spec.initiations = vec![(1, ActionId::new(ProcessId::new(0), 0))];
        spec.forced_initiations = false;
        spec.protocol = WireProtocol::OneShot {
            from: 0,
            to: 1,
            msg: 7,
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: ExploreSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn spec_exploration_matches_direct_exploration() {
        let mut spec = ExploreSpec::new(2, 3);
        spec.max_failures = 1;
        spec.protocol = WireProtocol::OneShot {
            from: 0,
            to: 1,
            msg: 7,
        };
        let via_spec = explore_spec(&spec).unwrap();

        let config = ExploreConfig::new(2, 3).max_failures(1);
        let direct = explore(&config, |p| WireProto::OneShot {
            me: p,
            from: ProcessId::new(0),
            to: ProcessId::new(1),
            msg: 7,
            sent: false,
        });
        assert_eq!(via_spec.system.runs(), direct.system.runs());
        assert_eq!(
            system_digest(&via_spec.system),
            system_digest(&direct.system)
        );

        let outcome = run_explore_spec(&spec).unwrap();
        assert_eq!(outcome.runs, direct.system.len());
        assert_eq!(outcome.digest, system_digest(&direct.system));
        assert!(outcome.complete);
        assert!(outcome.events > 0);
    }

    #[test]
    fn digest_distinguishes_different_systems() {
        let idle = run_explore_spec(&ExploreSpec::new(2, 2)).unwrap();
        let mut spec = ExploreSpec::new(2, 2);
        spec.protocol = WireProtocol::OneShot {
            from: 0,
            to: 1,
            msg: 9,
        };
        let oneshot = run_explore_spec(&spec).unwrap();
        assert_ne!(idle.digest, oneshot.digest);
    }

    #[test]
    fn fd_rule_periods_validate() {
        let mut spec = ExploreSpec::new(2, 2);
        spec.fd = FdRule::Perfect { period: 2 };
        assert!(spec.to_config().is_ok());
        spec.fd = FdRule::Perfect { period: 9 };
        assert!(spec.to_config().unwrap_err().contains("period"));
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut spec = ExploreSpec::new(0, 2);
        assert!(spec.to_config().is_err());
        spec.n = 2;
        spec.protocol = WireProtocol::OneShot {
            from: 0,
            to: 5,
            msg: 1,
        };
        assert!(spec.to_config().unwrap_err().contains("out of range"));
    }
}
