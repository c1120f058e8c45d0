//! Concrete failure-detector oracles.
//!
//! Each oracle realizes one class from the hierarchy of §2.2 / §4 and is
//! deliberately *adversarial within its class*: it exercises every freedom
//! the class definition permits (false suspicions wherever accuracy does not
//! forbid them, retractions wherever completeness is only impermanent,
//! arbitrary garbage before stabilization for the eventually-accurate
//! classes). Protocols proven correct against these oracles therefore rely
//! only on the guaranteed properties, not on incidental niceness.
//!
//! All oracles are deterministic given the scheduler-provided RNG.

use ktudc_model::{ProcSet, ProcessId, SuspectReport, Time};
use ktudc_sim::{FaultTruth, FdOracle};
use rand::rngs::StdRng;
use rand::Rng;

/// Picks the weak-accuracy "immune" process: some process that never
/// crashes in this run and is never suspected by anyone. We use the
/// lowest-indexed correct process; if every process crashes, weak accuracy
/// is vacuous and there is no immune process.
fn immune(truth: &FaultTruth) -> Option<ProcessId> {
    truth.correct().first()
}

/// A random subset of `Proc − exclusions`, each member included with
/// probability `prob`. Used for class-permitted false suspicions.
fn random_suspects(n: usize, exclusions: ProcSet, prob: f64, rng: &mut StdRng) -> ProcSet {
    ProcessId::all(n)
        .filter(|&q| !exclusions.contains(q) && rng.gen_bool(prob))
        .collect()
}

/// **Perfect failure detector** (strong completeness + strong accuracy): at
/// every poll, reports exactly the set of processes that have crashed so
/// far. No process is ever suspected before it crashes, and every crashed
/// process is suspected by everyone forever after.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PerfectOracle;

impl PerfectOracle {
    /// Creates a perfect oracle.
    #[must_use]
    pub fn new() -> Self {
        PerfectOracle
    }
}

impl FdOracle for PerfectOracle {
    fn poll(
        &mut self,
        _p: ProcessId,
        time: Time,
        truth: &FaultTruth,
        _rng: &mut StdRng,
    ) -> Option<SuspectReport> {
        Some(SuspectReport::Standard(truth.crashed_by(time)))
    }

    fn class_name(&self) -> &'static str {
        "perfect"
    }
}

/// **Strong failure detector** (strong completeness + weak accuracy): every
/// report contains all processes crashed so far, *plus* arbitrary false
/// suspicions of anyone except the immune correct process (and the polling
/// process itself, which trivially knows it has not crashed).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StrongOracle {
    /// Probability with which each non-immune live process is falsely
    /// suspected in a given report.
    pub false_prob: f64,
}

impl StrongOracle {
    /// Creates a strong oracle with the default 25% false-suspicion rate.
    #[must_use]
    pub fn new() -> Self {
        StrongOracle { false_prob: 0.25 }
    }

    /// Creates a strong oracle with a custom false-suspicion rate.
    ///
    /// # Panics
    ///
    /// Panics if `false_prob` is not in `[0, 1]`.
    #[must_use]
    pub fn with_false_prob(false_prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&false_prob));
        StrongOracle { false_prob }
    }
}

impl Default for StrongOracle {
    fn default() -> Self {
        StrongOracle::new()
    }
}

impl FdOracle for StrongOracle {
    fn poll(
        &mut self,
        p: ProcessId,
        time: Time,
        truth: &FaultTruth,
        rng: &mut StdRng,
    ) -> Option<SuspectReport> {
        let mut exclusions = ProcSet::singleton(p);
        if let Some(star) = immune(truth) {
            exclusions.insert(star);
        }
        let report = truth.crashed_by(time).union(random_suspects(
            truth.n(),
            exclusions,
            self.false_prob,
            rng,
        ));
        Some(SuspectReport::Standard(report))
    }

    fn class_name(&self) -> &'static str {
        "strong"
    }
}

/// **Weak failure detector** (weak completeness + weak accuracy): only one
/// designated correct *monitor* process is guaranteed to (permanently)
/// suspect the faulty processes; everyone else's reports are noise
/// constrained only by weak accuracy. The monitor is the lowest-indexed
/// correct process; when every process crashes, completeness is vacuous.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeakOracle {
    /// False-suspicion rate for non-monitor processes.
    pub false_prob: f64,
}

impl WeakOracle {
    /// Creates a weak oracle with the default 25% false-suspicion rate.
    #[must_use]
    pub fn new() -> Self {
        WeakOracle { false_prob: 0.25 }
    }
}

impl Default for WeakOracle {
    fn default() -> Self {
        WeakOracle::new()
    }
}

impl FdOracle for WeakOracle {
    fn poll(
        &mut self,
        p: ProcessId,
        time: Time,
        truth: &FaultTruth,
        rng: &mut StdRng,
    ) -> Option<SuspectReport> {
        let star = immune(truth);
        let monitor = star; // lowest-indexed correct process plays both roles
        let mut exclusions = ProcSet::singleton(p);
        if let Some(star) = star {
            exclusions.insert(star);
        }
        let noise = random_suspects(truth.n(), exclusions, self.false_prob, rng);
        let report = if Some(p) == monitor {
            truth.crashed_by(time).union(noise)
        } else {
            noise
        };
        Some(SuspectReport::Standard(report))
    }

    fn class_name(&self) -> &'static str {
        "weak"
    }
}

/// **Impermanent-strong failure detector** (impermanent strong
/// completeness + weak accuracy): every correct process suspects every
/// faulty process at least once after it crashes — but the suspicion is *retracted* on
/// subsequent polls with probability `retract_prob`, so `Suspects_p` does
/// not stabilize. This is the class Proposition 2.2 converts into a strong
/// detector by accumulation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ImpermanentStrongOracle {
    /// Probability that an already-reported crashed process is *omitted*
    /// from a given report.
    pub retract_prob: f64,
    /// False-suspicion rate (subject to weak accuracy).
    pub false_prob: f64,
}

impl ImpermanentStrongOracle {
    /// Creates an impermanent-strong oracle with 50% retraction and 25%
    /// false-suspicion rates.
    #[must_use]
    pub fn new() -> Self {
        ImpermanentStrongOracle {
            retract_prob: 0.5,
            false_prob: 0.25,
        }
    }
}

impl Default for ImpermanentStrongOracle {
    fn default() -> Self {
        ImpermanentStrongOracle::new()
    }
}

impl FdOracle for ImpermanentStrongOracle {
    fn poll(
        &mut self,
        p: ProcessId,
        time: Time,
        truth: &FaultTruth,
        rng: &mut StdRng,
    ) -> Option<SuspectReport> {
        let mut exclusions = ProcSet::singleton(p);
        if let Some(star) = immune(truth) {
            exclusions.insert(star);
        }
        // Crashed processes are included, then individually retracted with
        // `retract_prob` — except on the first poll after their crash, so
        // impermanent completeness (suspected *at least once*) holds
        // deterministically: a crash at tick c is unconditionally reported
        // while `time` is within one polling period of c. We approximate
        // "first poll" as `time - c < 8` (two default polling periods).
        let crashed = truth.crashed_by(time);
        let report: ProcSet = crashed
            .iter()
            .filter(|&q| {
                let just_crashed =
                    matches!(truth.crash_time(q), Some(c) if time.saturating_sub(c) < 8);
                just_crashed || !rng.gen_bool(self.retract_prob)
            })
            .collect();
        let noise = random_suspects(truth.n(), exclusions, self.false_prob, rng);
        Some(SuspectReport::Standard(report.union(noise)))
    }

    fn class_name(&self) -> &'static str {
        "impermanent-strong"
    }
}

/// **Impermanent-weak failure detector** (impermanent weak completeness +
/// weak accuracy): only the monitor ever reliably notices crashes, and even
/// it retracts. By Corollary 3.2 this weakest class of the paper's
/// hierarchy still suffices for UDC with unbounded failures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ImpermanentWeakOracle {
    /// Probability that the monitor omits a crashed process after its first
    /// report.
    pub retract_prob: f64,
}

impl ImpermanentWeakOracle {
    /// Creates an impermanent-weak oracle with 50% retraction.
    #[must_use]
    pub fn new() -> Self {
        ImpermanentWeakOracle { retract_prob: 0.5 }
    }
}

impl Default for ImpermanentWeakOracle {
    fn default() -> Self {
        ImpermanentWeakOracle::new()
    }
}

impl FdOracle for ImpermanentWeakOracle {
    fn poll(
        &mut self,
        p: ProcessId,
        time: Time,
        truth: &FaultTruth,
        rng: &mut StdRng,
    ) -> Option<SuspectReport> {
        if Some(p) != immune(truth) {
            return Some(SuspectReport::Standard(ProcSet::new()));
        }
        let report: ProcSet = truth
            .crashed_by(time)
            .iter()
            .filter(|&q| {
                let just_crashed =
                    matches!(truth.crash_time(q), Some(c) if time.saturating_sub(c) < 8);
                just_crashed || !rng.gen_bool(self.retract_prob)
            })
            .collect();
        Some(SuspectReport::Standard(report))
    }

    fn class_name(&self) -> &'static str {
        "impermanent-weak"
    }
}

/// **Eventually-strong failure detector** (◇S): before the stabilization
/// time `gst` its reports are unconstrained garbage (it may suspect anyone,
/// including every correct process); from `gst` on it behaves perfectly.
/// This is the detector class of the Chandra–Toueg rotating-coordinator
/// consensus baseline (`t < n/2` row of Table 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EventuallyStrongOracle {
    /// The (unknown to the protocol) global stabilization time.
    pub gst: Time,
    /// Pre-`gst` garbage-suspicion rate.
    pub chaos_prob: f64,
}

impl EventuallyStrongOracle {
    /// Creates a ◇S oracle stabilizing at `gst` with 40% pre-GST noise.
    #[must_use]
    pub fn new(gst: Time) -> Self {
        EventuallyStrongOracle {
            gst,
            chaos_prob: 0.4,
        }
    }
}

impl FdOracle for EventuallyStrongOracle {
    fn poll(
        &mut self,
        p: ProcessId,
        time: Time,
        truth: &FaultTruth,
        rng: &mut StdRng,
    ) -> Option<SuspectReport> {
        if time < self.gst {
            Some(SuspectReport::Standard(random_suspects(
                truth.n(),
                ProcSet::singleton(p),
                self.chaos_prob,
                rng,
            )))
        } else {
            Some(SuspectReport::Standard(truth.crashed_by(time)))
        }
    }

    fn class_name(&self) -> &'static str {
        "eventually-strong"
    }
}

/// **t-useful generalized failure detector** (§4): emits generalized
/// reports `(S, k)` — "at least `k` processes in `S` are faulty" —
/// satisfying *generalized strong accuracy* (the claim is always true at
/// emission time) and *generalized impermanent strong completeness* (every
/// correct process eventually receives a t-useful event).
///
/// The emitted `S` is the run's faulty set `F(r)` padded with up to
/// `n − min(t, n−1) − 1` correct processes, and `k = |crashed-so-far ∩ S|`.
/// The padding bound is exactly what keeps the eventual report useful:
/// usefulness needs `k > |S| − n + min(t, n−1)`, and once every faulty
/// process has crashed, `k = |F(r)|` and `|S| = |F(r)| + pad`, so the
/// requirement is `pad < n − min(t, n−1)`. The padding exercises the
/// defining ambiguity of generalized detectors (the report does not say
/// *which* members of `S` are faulty) while preserving usefulness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TUsefulOracle {
    /// The context's failure bound `t`.
    pub t: usize,
    /// The padded set `S` last computed, with the `(n, F(r))` it was
    /// computed for: `S` depends on nothing else, so within one run it is
    /// built once rather than once per poll.
    padded: Option<(usize, ProcSet, ProcSet)>,
}

impl TUsefulOracle {
    /// Creates a t-useful oracle for a context with at most `t` failures.
    #[must_use]
    pub fn new(t: usize) -> Self {
        TUsefulOracle { t, padded: None }
    }

    /// `F(r)` padded with the lowest-indexed correct processes up to the
    /// largest size that keeps the report t-useful.
    fn padded_set(&mut self, n: usize, faulty: ProcSet) -> ProcSet {
        if let Some((for_n, for_faulty, set)) = self.padded {
            if (for_n, for_faulty) == (n, faulty) {
                return set;
            }
        }
        let max_pad = n.saturating_sub(self.t.min(n - 1)) - 1;
        let mut set = faulty;
        for q in ProcessId::all(n) {
            if set.len() >= faulty.len() + max_pad {
                break;
            }
            if !faulty.contains(q) {
                set.insert(q);
            }
        }
        self.padded = Some((n, faulty, set));
        set
    }
}

impl FdOracle for TUsefulOracle {
    fn poll(
        &mut self,
        _p: ProcessId,
        time: Time,
        truth: &FaultTruth,
        _rng: &mut StdRng,
    ) -> Option<SuspectReport> {
        let set = self.padded_set(truth.n(), truth.faulty());
        let min_faulty = truth.crashed_by(time).intersection(set).len();
        Some(SuspectReport::Generalized { set, min_faulty })
    }

    fn class_name(&self) -> &'static str {
        "t-useful"
    }
}

/// The *oracle-free* t-useful detector for `t < n/2` (§4): cycles through
/// every `t`-sized subset `S` of `Proc`, emitting `(S, 0)`. Suspecting
/// nobody is trivially accurate, and because `|F(r)| ≤ t`, some emitted `S`
/// contains `F(r)`; when `t < n/2`, `n − |S| = n − t > t ≥ min(t, n−1) − 0`,
/// so that event is t-useful. This realizes Corollary 4.2 (Gopal–Toueg:
/// UDC without failure detectors when fewer than half the processes fail) —
/// note the implementation consults **no ground truth at all**.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CyclingSubsetOracle {
    /// Subset size (the failure bound `t`).
    pub t: usize,
    /// Per-process cursor into the subset enumeration.
    cursors: Vec<usize>,
}

impl CyclingSubsetOracle {
    /// Creates the cycling oracle for subset size `t` in an `n`-process
    /// system.
    ///
    /// # Panics
    ///
    /// Panics if `t >= n/2` rounded up — the construction is only t-useful
    /// for `t < n/2` — or if `C(n, t)` overflows the enumeration (not
    /// possible for the supported `n ≤ 128` with `t < n/2 ≤ 64` in practice
    /// because cycling only materializes one subset at a time).
    #[must_use]
    pub fn new(n: usize, t: usize) -> Self {
        assert!(
            2 * t < n,
            "the trivial cycling construction is t-useful only for t < n/2 (got t={t}, n={n})"
        );
        CyclingSubsetOracle {
            t,
            cursors: vec![0; n],
        }
    }

    /// The `i`-th `t`-sized subset of `{0, …, n−1}` in a rotating scheme:
    /// the window of `t` consecutive indices (mod `n`) starting at `i mod n`.
    /// Rotating windows are enough: any `≤ t`-sized faulty set is contained
    /// in *some* window of `t` consecutive indices only if the faulty set is
    /// consecutive — which it need not be — so we enumerate true
    /// combinations instead via an index-unranking scheme.
    fn subset(n: usize, t: usize, i: usize) -> ProcSet {
        // Unrank combination `i mod C(n, t)` in lexicographic order.
        let total = binomial(n, t);
        let mut rank = i % total.max(1);
        let mut set = ProcSet::new();
        let mut next = 0usize;
        let mut remaining = t;
        while remaining > 0 {
            let with_next = binomial(n - next - 1, remaining - 1);
            if rank < with_next {
                set.insert(ProcessId::new(next));
                remaining -= 1;
            } else {
                rank -= with_next;
            }
            next += 1;
        }
        set
    }
}

fn binomial(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc * (n - i) as u128 / (i + 1) as u128;
    }
    acc.min(usize::MAX as u128) as usize
}

impl FdOracle for CyclingSubsetOracle {
    fn poll(
        &mut self,
        p: ProcessId,
        _time: Time,
        truth: &FaultTruth,
        _rng: &mut StdRng,
    ) -> Option<SuspectReport> {
        let n = truth.n();
        let cursor = &mut self.cursors[p.index()];
        let set = Self::subset(n, self.t, *cursor);
        *cursor += 1;
        Some(SuspectReport::Generalized { set, min_faulty: 0 })
    }

    fn class_name(&self) -> &'static str {
        "cycling-(S,0)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn truth_3() -> FaultTruth {
        // p1 crashes at 5; p0, p2 correct.
        FaultTruth::new(vec![None, Some(5), None])
    }

    #[test]
    fn perfect_reports_exactly_the_crashed() {
        let mut o = PerfectOracle::new();
        let truth = truth_3();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            o.poll(p(0), 4, &truth, &mut rng),
            Some(SuspectReport::Standard(ProcSet::new()))
        );
        assert_eq!(
            o.poll(p(0), 5, &truth, &mut rng),
            Some(SuspectReport::Standard(ProcSet::singleton(p(1))))
        );
        assert_eq!(o.class_name(), "perfect");
    }

    #[test]
    fn strong_never_suspects_the_immune_process() {
        let mut o = StrongOracle::with_false_prob(0.9);
        let truth = truth_3(); // immune = p0
        let mut rng = StdRng::seed_from_u64(1);
        for t in 1..200 {
            let SuspectReport::Standard(s) = o.poll(p(2), t, &truth, &mut rng).unwrap() else {
                panic!("standard oracle emitted generalized report");
            };
            assert!(!s.contains(p(0)), "immune p0 suspected at tick {t}");
            if t >= 5 {
                assert!(s.contains(p(1)), "crashed p1 missing at tick {t}");
            }
        }
    }

    #[test]
    fn strong_does_false_suspect_non_immune() {
        let mut o = StrongOracle::with_false_prob(0.9);
        let truth = truth_3();
        let mut rng = StdRng::seed_from_u64(2);
        let mut saw_false = false;
        for t in 1..50 {
            if let Some(SuspectReport::Standard(s)) = o.poll(p(0), t, &truth, &mut rng) {
                if s.contains(p(2)) {
                    saw_false = true; // p2 is correct but suspected
                }
            }
        }
        assert!(
            saw_false,
            "a 90% false-prob strong oracle must lie sometimes"
        );
    }

    #[test]
    fn weak_only_monitor_sees_crashes() {
        let mut o = WeakOracle { false_prob: 0.0 };
        let truth = truth_3(); // monitor = immune = p0
        let mut rng = StdRng::seed_from_u64(3);
        // Monitor reports the crash.
        let SuspectReport::Standard(s) = o.poll(p(0), 10, &truth, &mut rng).unwrap() else {
            panic!()
        };
        assert!(s.contains(p(1)));
        // Non-monitor with zero noise reports nothing.
        let SuspectReport::Standard(s) = o.poll(p(2), 10, &truth, &mut rng).unwrap() else {
            panic!()
        };
        assert!(s.is_empty());
    }

    #[test]
    fn impermanent_strong_retracts_but_reports_first() {
        let mut o = ImpermanentStrongOracle {
            retract_prob: 1.0,
            false_prob: 0.0,
        };
        let truth = truth_3();
        let mut rng = StdRng::seed_from_u64(4);
        // Within the just-crashed window: unconditionally reported.
        let SuspectReport::Standard(s) = o.poll(p(0), 6, &truth, &mut rng).unwrap() else {
            panic!()
        };
        assert!(s.contains(p(1)));
        // Long after: always retracted (retract_prob = 1).
        let SuspectReport::Standard(s) = o.poll(p(0), 100, &truth, &mut rng).unwrap() else {
            panic!()
        };
        assert!(!s.contains(p(1)), "retraction expected");
    }

    #[test]
    fn impermanent_weak_silent_for_non_monitor() {
        let mut o = ImpermanentWeakOracle::new();
        let truth = truth_3();
        let mut rng = StdRng::seed_from_u64(5);
        let SuspectReport::Standard(s) = o.poll(p(2), 6, &truth, &mut rng).unwrap() else {
            panic!()
        };
        assert!(s.is_empty());
        let SuspectReport::Standard(s) = o.poll(p(0), 6, &truth, &mut rng).unwrap() else {
            panic!()
        };
        assert!(s.contains(p(1)));
    }

    #[test]
    fn eventually_strong_is_chaotic_then_perfect() {
        let mut o = EventuallyStrongOracle::new(50);
        let truth = truth_3();
        let mut rng = StdRng::seed_from_u64(6);
        let mut chaos = false;
        for t in 1..50 {
            if let Some(SuspectReport::Standard(s)) = o.poll(p(0), t, &truth, &mut rng) {
                if s.contains(p(2)) || (t < 5 && s.contains(p(1))) {
                    chaos = true; // suspected someone not crashed
                }
            }
        }
        assert!(chaos, "pre-GST ◇S should emit garbage at 40% noise");
        for t in 50..80 {
            let SuspectReport::Standard(s) = o.poll(p(0), t, &truth, &mut rng).unwrap() else {
                panic!()
            };
            assert_eq!(s, ProcSet::singleton(p(1)), "post-GST must be perfect");
        }
    }

    #[test]
    fn t_useful_reports_are_accurate_and_eventually_useful() {
        let t = 3;
        let n = 5;
        let truth = FaultTruth::new(vec![Some(3), Some(8), None, None, None]);
        let mut o = TUsefulOracle::new(t);
        let mut rng = StdRng::seed_from_u64(7);
        for time in 1..20 {
            let Some(SuspectReport::Generalized { set, min_faulty }) =
                o.poll(p(2), time, &truth, &mut rng)
            else {
                panic!()
            };
            // Generalized strong accuracy: claim true at emission time.
            assert!(truth.crashed_by(time).intersection(set).len() >= min_faulty);
            assert!(min_faulty <= set.len());
            // F(r) ⊆ S always (the oracle pads, never shrinks).
            assert!(truth.faulty().is_subset_of(set));
            if time >= 8 {
                // All faulty crashed: the event must be t-useful.
                assert!(
                    n - set.len() > t.min(n - 1) - min_faulty,
                    "event ({set}, {min_faulty}) not {t}-useful at tick {time}"
                );
            }
        }
    }

    #[test]
    fn cycling_oracle_covers_every_subset() {
        let n = 5;
        let t = 2;
        let mut o = CyclingSubsetOracle::new(n, t);
        let truth = FaultTruth::new(vec![None; n]);
        let mut rng = StdRng::seed_from_u64(8);
        let mut seen = std::collections::BTreeSet::new();
        for time in 1..=binomial(n, t) as Time {
            let Some(SuspectReport::Generalized { set, min_faulty }) =
                o.poll(p(0), time, &truth, &mut rng)
            else {
                panic!()
            };
            assert_eq!(min_faulty, 0);
            assert_eq!(set.len(), t);
            seen.insert(set);
        }
        assert_eq!(seen.len(), binomial(n, t), "all C(5,2)=10 subsets emitted");
    }

    #[test]
    #[should_panic(expected = "t < n/2")]
    fn cycling_oracle_rejects_large_t() {
        let _ = CyclingSubsetOracle::new(4, 2);
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(7, 3), 35);
        assert_eq!(binomial(4, 0), 1);
        assert_eq!(binomial(3, 5), 0);
        assert_eq!(binomial(6, 6), 1);
    }

    #[test]
    fn all_crashed_runs_have_no_immune_process() {
        let truth = FaultTruth::new(vec![Some(1), Some(2)]);
        assert_eq!(immune(&truth), None);
        // Strong oracle still works (weak accuracy vacuous).
        let mut o = StrongOracle::new();
        let mut rng = StdRng::seed_from_u64(9);
        assert!(o.poll(p(0), 1, &truth, &mut rng).is_some());
    }
}
