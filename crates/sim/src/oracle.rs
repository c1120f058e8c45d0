//! The failure-detector oracle interface.
//!
//! A failure detector is a *per-process oracle* (§2.2): the simulator
//! periodically offers each live process the chance to receive a
//! `suspect_p(x)` event, and the oracle decides whether and what to emit.
//! Oracles are allowed to consult the ground truth of the run — which
//! processes have crashed, and which are *destined* to crash — because that
//! is exactly what an oracle is. Concrete oracles (perfect, strong, weak,
//! impermanent, eventually-weak, generalized) live in `ktudc-fd`; this crate
//! defines only the interface the scheduler needs, plus the trivial
//! [`NullOracle`].
//!
//! Unlike the Chandra–Toueg "special tape" formulation, an oracle here may
//! correlate its reports with the behaviour of the processes (it sees the
//! polling process's tick and may keep state). The paper argues this extra
//! power is needed to express the *impermanent* completeness properties; we
//! inherit that generality.

use ktudc_model::{ProcSet, ProcessId, SuspectReport, Time};
use rand::rngs::StdRng;

/// Ground truth about failures in the run being generated.
///
/// `crash_times[p]` is the tick at which `p` is scheduled to crash (`None`
/// for correct processes). An oracle may use both the *current* crashed set
/// and the *planned* faulty set; e.g. a weakly-accurate oracle must pick
/// some process that will never crash and never suspect it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultTruth {
    crash_times: Vec<Option<Time>>,
    /// `F(r)`, fixed by `crash_times` at construction.
    faulty: ProcSet,
}

impl FaultTruth {
    /// Builds the truth from resolved per-process crash ticks.
    #[must_use]
    pub fn new(crash_times: Vec<Option<Time>>) -> Self {
        let faulty = ProcessId::all(crash_times.len())
            .filter(|&p| crash_times[p.index()].is_some())
            .collect();
        FaultTruth {
            crash_times,
            faulty,
        }
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.crash_times.len()
    }

    /// The tick at which `p` crashes, if it ever does.
    #[must_use]
    pub fn crash_time(&self, p: ProcessId) -> Option<Time> {
        self.crash_times[p.index()]
    }

    /// Processes that have crashed **by** tick `m` (inclusive).
    #[must_use]
    pub fn crashed_by(&self, m: Time) -> ProcSet {
        ProcessId::all(self.n())
            .filter(|&p| matches!(self.crash_times[p.index()], Some(t) if t <= m))
            .collect()
    }

    /// `F(r)`: every process destined to crash in this run.
    #[must_use]
    pub fn faulty(&self) -> ProcSet {
        self.faulty
    }

    /// The correct processes of this run.
    #[must_use]
    pub fn correct(&self) -> ProcSet {
        self.faulty().complement(self.n())
    }
}

/// A per-process failure-detector oracle.
///
/// The scheduler calls [`FdOracle::poll`] for process `p` at tick `time`
/// whenever `p` has a free event slot and the polling period has elapsed;
/// returning `Some(report)` appends `suspect_p(report)` to `p`'s history.
///
/// Implementations must be deterministic given the provided RNG (which the
/// scheduler seeds from the run's seed) so that simulations reproduce.
pub trait FdOracle {
    /// Asks the oracle for `p`'s next report at `time`, given the ground
    /// truth. Returning `None` emits nothing this tick.
    fn poll(
        &mut self,
        p: ProcessId,
        time: Time,
        truth: &FaultTruth,
        rng: &mut StdRng,
    ) -> Option<SuspectReport>;

    /// A short human-readable class name ("perfect", "strong", …) used in
    /// reports and tables.
    fn class_name(&self) -> &'static str {
        "unnamed"
    }
}

/// Boxed oracles are oracles, so wrappers (e.g. the contract-violating
/// perturbations in `ktudc-fd`) can compose with dynamically chosen
/// detectors.
impl FdOracle for Box<dyn FdOracle> {
    fn poll(
        &mut self,
        p: ProcessId,
        time: Time,
        truth: &FaultTruth,
        rng: &mut StdRng,
    ) -> Option<SuspectReport> {
        (**self).poll(p, time, truth, rng)
    }

    fn class_name(&self) -> &'static str {
        (**self).class_name()
    }
}

/// The absent failure detector: never reports anything. This is the "no FD"
/// context of Table 1.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullOracle;

impl NullOracle {
    /// Creates a `NullOracle`.
    #[must_use]
    pub fn new() -> Self {
        NullOracle
    }
}

impl FdOracle for NullOracle {
    fn poll(
        &mut self,
        _p: ProcessId,
        _time: Time,
        _truth: &FaultTruth,
        _rng: &mut StdRng,
    ) -> Option<SuspectReport> {
        None
    }

    fn class_name(&self) -> &'static str {
        "none"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn fault_truth_queries() {
        let truth = FaultTruth::new(vec![None, Some(4), Some(9)]);
        assert_eq!(truth.n(), 3);
        assert_eq!(truth.crash_time(p(1)), Some(4));
        assert_eq!(truth.crash_time(p(0)), None);
        assert_eq!(truth.faulty(), [p(1), p(2)].into_iter().collect());
        assert_eq!(truth.correct(), ProcSet::singleton(p(0)));
        assert!(truth.crashed_by(3).is_empty());
        assert_eq!(truth.crashed_by(4), ProcSet::singleton(p(1)));
        assert_eq!(truth.crashed_by(100), truth.faulty());
    }

    #[test]
    fn null_oracle_never_reports() {
        let mut o = NullOracle::new();
        let truth = FaultTruth::new(vec![Some(1), Some(1)]);
        let mut rng = StdRng::seed_from_u64(0);
        for t in 0..20 {
            assert_eq!(o.poll(p(0), t, &truth, &mut rng), None);
        }
        assert_eq!(o.class_name(), "none");
    }
}
