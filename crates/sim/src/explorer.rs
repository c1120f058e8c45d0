//! Exhaustive schedule enumeration for small systems.
//!
//! The epistemic model checker of `ktudc-epistemic` is *exact* only over the
//! complete system of runs a protocol generates in a context. For small
//! parameters (2–3 processes, horizons of a handful of ticks) that system is
//! finite and enumerable: at each tick each live process nondeterministically
//! chooses to **stutter**, **crash** (while the failure budget lasts),
//! **receive** one pending message, or take its next **protocol action**.
//! The explorer branches over every combination, capturing the scheduler
//! adversary in full.
//!
//! Message loss needs no separate branch: at a finite horizon, a message
//! dropped by the channel is indistinguishable from one that is still in
//! flight, and the stutter branch already covers "not delivered yet" at
//! every tick. The generated systems therefore satisfy the unreliable-
//! communication reading of the paper's condition A2 (any message may fail
//! to arrive).
//!
//! Failure-detector behaviour is *not* branched over (that would explode the
//! state space); instead an optional deterministic oracle function maps the
//! branch-local crashed set to a report, which suffices for perfect-FD
//! contexts.
//!
//! # Exploration strategy
//!
//! Plain, reduced ([`Reduction`]) and checkpointed explorations take one
//! path: the first scheduling slots are expanded breadth-first into a
//! fixed-width frontier of subtree roots, and each root is walked on the
//! work-stealing map (`ktudc-par`, feature `parallel`) by one copy-light
//! DFS. The DFS shares ONE mutable state across its subtree and rewinds
//! it with an undo log ([`RunBuilder::unappend`] plus reverse
//! channel/protocol bookkeeping) instead of deep-cloning builder, channels
//! and every protocol at each branch; only the one protocol a branch
//! actually steps is cloned. None of this shows in a plain walk's output:
//! runs come back in exactly the depth-first branch order of the original
//! clone-per-branch enumerator, which is kept as [`explore_reference`] and
//! held identical by differential tests.

use crate::protocol::{ProtoAction, Protocol};
use ktudc_model::budget::{AbortReason, Budget};
use ktudc_model::hashing::StableHasher;
use ktudc_model::{Event, ProcSet, ProcessId, Run, RunBuilder, SuspectReport, System, Time};
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

/// Deterministic failure-detector rule for the explorer: given the polling
/// process, the tick, and the branch-local crashed set, optionally produce a
/// report.
pub type ExplorerFd = fn(ProcessId, Time, ProcSet) -> Option<SuspectReport>;

/// Configuration of an exhaustive exploration.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Number of processes (keep at 2–3).
    pub n: usize,
    /// Last tick to simulate (keep small; branching is exponential in
    /// `n · horizon`).
    pub horizon: Time,
    /// Maximum number of crashes across the run (the context's bound `t`).
    pub max_failures: usize,
    /// If `false`, a process only stutters when it has no other choice,
    /// shrinking the space at the cost of scheduler coverage.
    pub allow_stutter: bool,
    /// Optional deterministic failure-detector rule.
    pub fd: Option<ExplorerFd>,
    /// With `fd_forced` (the default) a tick where the rule emits gives the
    /// process no other choice (deterministic reports, smaller state
    /// space); otherwise the report is one more branch — needed when the
    /// A-conditions must hold, since a forced report can preempt a crash.
    pub fd_forced: bool,
    /// Initiations: `(tick, action)`. With `forced_initiations` (the
    /// default) the initiator deterministically takes the `init` slot at
    /// that tick; with optional initiations the `init` becomes one more
    /// *branch* available at every tick from the scheduled one onward (and
    /// may never be taken at all), which matches contexts where requests
    /// arrive asynchronously — the setting the knowledge conditions A3/A4
    /// of the paper presuppose.
    pub initiations: Vec<(Time, ktudc_model::ActionId)>,
    /// See [`ExploreConfig::initiations`].
    pub forced_initiations: bool,
    /// Hard cap on generated runs; exceeded explorations are truncated and
    /// flagged in [`ExploreResult::complete`].
    pub max_runs: usize,
    /// State-space reduction knobs. All off by default, in which case the
    /// enumeration is bit-identical to [`explore_reference`]; see
    /// [`Reduction`] for what turning them on preserves and what it
    /// sacrifices.
    pub reduction: Reduction,
}

/// State-space reduction knobs for [`explore`] (via
/// [`explore_with_stats`]). Everything here is **off by default**.
///
/// * `symmetry` — classes of interchangeable processes. At every tick
///   boundary the explorer canonicalizes the branch state under all
///   process relabelings that permute within each class (identity
///   elsewhere) and prunes any state isomorphic to one already explored.
///   Every pruned run is a relabeling of a kept run (the cover property
///   pinned by the differential proptests), so verdicts of formulas
///   *closed under the declared relabelings* — the UDC conditions are
///   symmetric conjunctions over all processes — are preserved. The
///   caller vouches that class members are genuinely interchangeable:
///   `make` gives them the same protocol (differing only in `me`), no
///   initiation names them (initiators are auto-excluded), and the FD
///   rule treats them uniformly. Dedup is by 64-bit canonical digest, so
///   it inherits the usual 2⁻⁶⁴ collision caveat of hash-compaction.
/// * `sleep_sets` — prunes *delayed re-delivery*: a `recv` that was
///   already enabled at the previous tick and refused (the process
///   stuttered over it) is not offered again this tick. The pruned run is
///   a stutter-shifted variant of a kept run, so timestamp-free verdicts
///   at the horizon are preserved for stutter-insensitive,
///   time-oblivious protocols (pinned empirically by the verdict
///   proptests); exact run sets are **not** — do not combine with
///   digest-identity expectations. Inert when `allow_stutter` is off
///   (the rule's premise — an idle refusal — cannot arise).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Reduction {
    /// Classes of interchangeable process indices (disjoint; singletons
    /// and out-of-range indices are ignored).
    pub symmetry: Vec<Vec<usize>>,
    /// Prune deliveries refused at the previous tick (see type docs).
    pub sleep_sets: bool,
}

/// Counters from one exploration: how much work each reduction saved and
/// how the parallel fan-out behaved. The reduction counters are zero when
/// the corresponding mechanism is off, `steals` when the walk ran on one
/// thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReductionStats {
    /// Tick-boundary states pruned as symmetric duplicates of an
    /// already-explored state (each prunes an entire subtree).
    pub states_canonicalized: u64,
    /// `recv` branches pruned by the sleep-set rule.
    pub sleep_set_pruned: u64,
    /// Subtrees a fan-out worker took from a sibling's share.
    pub steals: u64,
    /// Worker threads the fan-out used.
    pub workers: usize,
}

impl ReductionStats {
    fn absorb(&mut self, other: ReductionStats) {
        self.states_canonicalized += other.states_canonicalized;
        self.sleep_set_pruned += other.sleep_set_pruned;
        self.steals += other.steals;
    }
}

impl ExploreConfig {
    /// A default exploration: `n` processes, the given horizon, up to
    /// `n − 1` failures, stutter allowed, no failure detector, no workload,
    /// 200 000-run cap.
    #[must_use]
    pub fn new(n: usize, horizon: Time) -> Self {
        ExploreConfig {
            n,
            horizon,
            max_failures: n.saturating_sub(1),
            allow_stutter: true,
            fd: None,
            fd_forced: true,
            initiations: Vec::new(),
            forced_initiations: true,
            max_runs: 200_000,
            reduction: Reduction::default(),
        }
    }

    /// Declares `class` as interchangeable processes for symmetry
    /// reduction (see [`Reduction`]). May be called once per class.
    #[must_use]
    pub fn symmetric(mut self, class: Vec<usize>) -> Self {
        self.reduction.symmetry.push(class);
        self
    }

    /// Enables sleep-set pruning of refused deliveries (see
    /// [`Reduction`]).
    #[must_use]
    pub fn with_sleep_sets(mut self) -> Self {
        self.reduction.sleep_sets = true;
        self
    }

    /// Sets the failure budget.
    #[must_use]
    pub fn max_failures(mut self, t: usize) -> Self {
        self.max_failures = t;
        self
    }

    /// Sets the deterministic failure-detector rule.
    #[must_use]
    pub fn fd(mut self, fd: ExplorerFd) -> Self {
        self.fd = Some(fd);
        self
    }

    /// Makes failure-detector reports a branch instead of preempting the
    /// slot (see [`ExploreConfig::fd_forced`]).
    #[must_use]
    pub fn optional_fd(mut self) -> Self {
        self.fd_forced = false;
        self
    }

    /// Adds an initiation to the workload.
    #[must_use]
    pub fn initiate(mut self, tick: Time, action: ktudc_model::ActionId) -> Self {
        self.initiations.push((tick, action));
        self
    }

    /// Makes initiations optional branches instead of forced events: from
    /// the scheduled tick onward the initiator *may* initiate (once), or
    /// never. Required for the A3/A4 context conditions to hold, since
    /// forced initiations make `init` derivable from elapsed time.
    #[must_use]
    pub fn optional_initiations(mut self) -> Self {
        self.forced_initiations = false;
        self
    }

    /// Sets the run cap.
    #[must_use]
    pub fn max_runs(mut self, cap: usize) -> Self {
        self.max_runs = cap;
        self
    }

    /// Disables the unconditional stutter branch.
    #[must_use]
    pub fn without_stutter(mut self) -> Self {
        self.allow_stutter = false;
        self
    }
}

/// The result of an exploration.
#[derive(Debug)]
pub struct ExploreResult<M> {
    /// The generated system.
    pub system: System<M>,
    /// `false` if the run cap truncated the enumeration, in which case
    /// downstream epistemic verdicts are only sound for *violations* (a
    /// larger system can only refute more knowledge, not restore it).
    pub complete: bool,
}

/// The outcome of a *budgeted* exploration ([`explore_budgeted`]).
#[derive(Debug)]
pub enum ExploreStatus<M> {
    /// The enumeration ran to its natural end (which may still be
    /// truncated by `max_runs` — see [`ExploreResult::complete`]).
    Done(ExploreResult<M>),
    /// The budget tripped mid-walk. `partial` holds every run fully
    /// generated before the trip (always `complete == false`); the
    /// verdict soundness caveat of [`ExploreResult::complete`] applies.
    Aborted {
        /// Why the budget tripped.
        reason: AbortReason,
        /// Runs generated before the trip — `None` when the budget
        /// tripped before the first full run (a [`System`] must be
        /// nonempty for knowledge to be well defined). When present,
        /// always `complete == false`.
        partial: Option<ExploreResult<M>>,
    },
}

#[derive(Clone)]
pub(crate) struct ExploreState<M, P> {
    builder: RunBuilder<M>,
    protocols: Vec<P>,
    /// FIFO channel contents, indexed `from * n + to`.
    channels: Vec<VecDeque<M>>,
    crashes: usize,
    /// Which entries of `config.initiations` have fired, by index.
    inits_done: Vec<bool>,
    /// Sleep masks, one per process: bit `q` set means the process
    /// stuttered at its previous slot while channel `q → p` held a
    /// deliverable message (it *refused* that delivery). Maintained only
    /// when sleep-set reduction is on; always all-zero otherwise.
    sleep: Vec<u128>,
}

/// One process's options at a tick.
enum Choice<M> {
    Stutter,
    Crash,
    Init(ktudc_model::ActionId),
    Suspect(SuspectReport),
    Recv(ProcessId),
    Act(ProtoAction<M>),
}

fn initial_state<M, P, F>(config: &ExploreConfig, make: &F) -> ExploreState<M, P>
where
    M: Clone + Eq + Hash,
    P: Protocol<M> + Clone,
    F: Fn(ProcessId) -> P,
{
    let n = config.n;
    ExploreState {
        builder: RunBuilder::new(n),
        protocols: ProcessId::all(n)
            .map(|p| {
                let mut proto = make(p);
                proto.start(p, n);
                proto
            })
            .collect(),
        channels: (0..n * n).map(|_| VecDeque::new()).collect(),
        crashes: 0,
        inits_done: vec![false; config.initiations.len()],
        sleep: vec![0; n],
    }
}

/// Whether sleep-set pruning is live for this config: the knob is on AND
/// stutter is allowed (without a stutter branch the "idle refusal" the
/// rule keys on cannot arise, and pruning could strand a process with no
/// choice at all).
fn sleep_sets_on(config: &ExploreConfig) -> bool {
    config.reduction.sleep_sets && config.allow_stutter
}

/// One process relabeling: `fwd[old] = new` and its inverse. Identity
/// outside the declared symmetry classes.
struct Perm {
    fwd: Vec<usize>,
    inv: Vec<usize>,
}

/// The validated symmetry group of a config: every composition of
/// within-class permutations (identity included, first). `None` when no
/// usable class survives validation — then symmetry reduction is off.
pub(crate) struct SymmetryPlan {
    perms: Vec<Perm>,
}

/// All permutations of `items` (as reordered copies). Sizes here are
/// class sizes (≤ a handful), so the factorial is tiny.
fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for (i, &head) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head);
            out.push(tail);
        }
    }
    out
}

/// Validates the declared classes and materializes the full permutation
/// group. Classes are clipped to in-range indices, deduplicated, made
/// disjoint (first declaration wins), and stripped of any process that an
/// initiation names as initiator — relabeling such a process would move
/// its `init` event onto a process the config forbids from initiating,
/// producing non-runs of the context.
pub(crate) fn symmetry_plan(config: &ExploreConfig) -> Option<SymmetryPlan> {
    let n = config.n;
    let mut claimed = vec![false; n];
    for (_, a) in &config.initiations {
        if a.initiator().index() < n {
            claimed[a.initiator().index()] = true;
        }
    }
    let mut classes: Vec<Vec<usize>> = Vec::new();
    for declared in &config.reduction.symmetry {
        let mut class: Vec<usize> = declared
            .iter()
            .copied()
            .filter(|&p| p < n && !claimed[p])
            .collect();
        class.sort_unstable();
        class.dedup();
        for &p in &class {
            claimed[p] = true;
        }
        if class.len() > 1 {
            classes.push(class);
        }
    }
    if classes.is_empty() {
        return None;
    }
    // The group is the product of per-class symmetric groups: extend each
    // accumulated permutation by every arrangement of the next class.
    let mut fwds: Vec<Vec<usize>> = vec![(0..n).collect()];
    for class in &classes {
        let images = permutations(class);
        let mut next = Vec::with_capacity(fwds.len() * images.len());
        for base in &fwds {
            for image in &images {
                let mut fwd = base.clone();
                for (&slot, &target) in class.iter().zip(image.iter()) {
                    fwd[slot] = target;
                }
                next.push(fwd);
            }
        }
        fwds = next;
    }
    let perms = fwds
        .into_iter()
        .map(|fwd| {
            let mut inv = vec![0; n];
            for (old, &new) in fwd.iter().enumerate() {
                inv[new] = old;
            }
            Perm { fwd, inv }
        })
        .collect();
    Some(SymmetryPlan { perms })
}

/// Hashes one event with every embedded process identity pushed through
/// `fwd`. Message payloads hash as-is — the caller vouches they do not
/// encode process identities (true of every wire protocol in this repo).
fn hash_event_relabeled<M: Hash>(h: &mut StableHasher, event: &Event<M>, fwd: &[usize]) {
    match event {
        Event::Send { to, msg } => {
            h.write_u8(0);
            h.write_usize(fwd[to.index()]);
            msg.hash(h);
        }
        Event::Recv { from, msg } => {
            h.write_u8(1);
            h.write_usize(fwd[from.index()]);
            msg.hash(h);
        }
        Event::Init { action } => {
            h.write_u8(2);
            h.write_usize(fwd[action.initiator().index()]);
            h.write_u32(action.seq());
        }
        Event::Do { action } => {
            h.write_u8(3);
            h.write_usize(fwd[action.initiator().index()]);
            h.write_u32(action.seq());
        }
        Event::Crash => h.write_u8(4),
        Event::Suspect(report) => {
            h.write_u8(5);
            match report {
                SuspectReport::Standard(set) => {
                    h.write_u8(0);
                    h.write_u128(relabel_set(*set, fwd));
                }
                SuspectReport::Generalized { set, min_faulty } => {
                    h.write_u8(1);
                    h.write_u128(relabel_set(*set, fwd));
                    h.write_usize(*min_faulty);
                }
            }
        }
    }
}

/// A [`ProcSet`] as a bitmask with every member pushed through `fwd`.
fn relabel_set(set: ProcSet, fwd: &[usize]) -> u128 {
    set.iter().fold(0u128, |m, p| m | (1 << fwd[p.index()]))
}

/// A per-process sleep mask (bits are *sender* indices) pushed through
/// `fwd`.
fn relabel_mask(mask: u128, fwd: &[usize], n: usize) -> u128 {
    (0..n)
        .filter(|&q| mask >> q & 1 == 1)
        .fold(0u128, |m, q| m | (1 << fwd[q]))
}

/// Structural digest of the branch state as seen through one relabeling:
/// the state that would have resulted had class members been named
/// differently from the start. Two states with equal digests under some
/// pair of group elements are isomorphic (modulo 64-bit collisions), and
/// — protocols being deterministic functions of `(me, observed history)`
/// — generate relabeled-identical subtrees.
fn relabeled_digest<M, P>(state: &ExploreState<M, P>, n: usize, t: Time, perm: &Perm) -> u64
where
    M: Clone + Eq + Hash,
{
    let mut h = StableHasher::new();
    // The tick matters: an all-stutter tick leaves every component below
    // unchanged, but the state one tick later has one tick less future —
    // pruning it as "the same" would drop its runs entirely.
    h.write_u64(t);
    for new_p in 0..n {
        let old_p = ProcessId::new(perm.inv[new_p]);
        for (time, event) in state.builder.timed_history(old_p) {
            h.write_u64(time);
            hash_event_relabeled(&mut h, event, &perm.fwd);
        }
        h.write_u8(0xFE);
    }
    for new_from in 0..n {
        for new_to in 0..n {
            let chan = &state.channels[perm.inv[new_from] * n + perm.inv[new_to]];
            h.write_usize(chan.len());
            for msg in chan {
                msg.hash(&mut h);
            }
        }
    }
    h.write_usize(state.crashes);
    for &done in &state.inits_done {
        h.write_u8(u8::from(done));
    }
    for new_p in 0..n {
        h.write_u128(relabel_mask(state.sleep[perm.inv[new_p]], &perm.fwd, n));
    }
    h.finish()
}

/// The canonical digest: minimum of [`relabeled_digest`] over the whole
/// group. Equal canonical digests ⇒ the states are in the same orbit
/// (group closure turns the two witnessing relabelings into one mapping
/// state to state), so one representative subtree covers both.
fn canonical_digest<M, P>(state: &ExploreState<M, P>, n: usize, t: Time, plan: &SymmetryPlan) -> u64
where
    M: Clone + Eq + Hash,
{
    plan.perms
        .iter()
        .map(|perm| relabeled_digest(state, n, t, perm))
        .min()
        .expect("the group always contains the identity")
}

/// One finished run's canonical digest: the minimum, over the config's
/// declared symmetry group, of a digest of its per-process histories with
/// every process index relabeled. `timed` selects whether event times are
/// hashed alongside the events.
fn run_canonical_digest<M>(run: &Run<M>, plan: &SymmetryPlan, timed: bool) -> u64
where
    M: Clone + Eq + Hash,
{
    plan.perms
        .iter()
        .map(|perm| {
            let mut h = StableHasher::new();
            for new_p in 0..run.n() {
                let old_p = ProcessId::new(perm.inv[new_p]);
                for (time, event) in run.timed_history(old_p) {
                    if timed {
                        h.write_u64(time);
                    }
                    hash_event_relabeled(&mut h, event, &perm.fwd);
                }
                h.write_u8(0xFE);
            }
            h.finish()
        })
        .min()
        .expect("the group always contains the identity")
}

/// The canonical run digests of a system under `config`'s declared
/// [`Reduction`] symmetry, in run order — the differential-testing
/// companion of the reduced explorer.
///
/// Two runs get equal digests iff (up to the 2⁻⁶⁴ hash-collision caveat)
/// one is a process relabeling of the other under the declared classes.
/// A reduced exploration *covers* its reference iff the reference's
/// digest **set** is contained in the reduced one's (the reduced side
/// keeps one representative per orbit, so multisets differ by design):
///
/// * symmetry-only reductions preserve the `timed = true` digest set;
/// * sleep sets shift delivery times, so anything involving them is
///   compared with `timed = false` (the per-process *event sequences*,
///   which is what a time-oblivious protocol observes).
///
/// With no symmetry declared the digest is plain (identity-only), making
/// this a run-content digest usable for exact set comparisons too.
#[must_use]
pub fn canonical_run_digests<M>(config: &ExploreConfig, system: &System<M>, timed: bool) -> Vec<u64>
where
    M: Clone + Eq + Hash,
{
    let identity = SymmetryPlan {
        perms: vec![Perm {
            fwd: (0..config.n).collect(),
            inv: (0..config.n).collect(),
        }],
    };
    let plan = symmetry_plan(config).unwrap_or(identity);
    system
        .runs()
        .iter()
        .map(|run| run_canonical_digest(run, &plan, timed))
        .collect()
}

/// Exhaustively enumerates the system generated by the protocol in the
/// configured context.
///
/// Runs are produced in depth-first branch order — identical, run for run,
/// to [`explore_reference`] — but the tree is walked copy-light (one shared
/// state, rewound via an undo log) and the frontier subtrees fan out
/// across threads when the `parallel` feature is on.
///
/// # Panics
///
/// Panics if `config.n` is zero or exceeds the supported maximum.
pub fn explore<M, P, F>(config: &ExploreConfig, make: F) -> ExploreResult<M>
where
    M: Clone + Eq + Hash + Send,
    P: Protocol<M> + Clone + Send,
    F: Fn(ProcessId) -> P,
{
    explore_with_stats(config, make).0
}

/// [`explore`] returning its [`ReductionStats`] alongside the result —
/// the entry point for benchmarks and any caller that wants to see how
/// much the configured reductions and the work-stealing fan-out did.
///
/// Plain and reduced explorations take the same walk: with
/// `config.reduction` at its default the output is bit-identical to
/// [`explore_reference`]; with reductions on, the run set shrinks as
/// documented on [`Reduction`]. Either way the output is the same for
/// every thread count.
///
/// # Panics
///
/// Panics if `config.n` is zero or exceeds the supported maximum.
pub fn explore_with_stats<M, P, F>(
    config: &ExploreConfig,
    make: F,
) -> (ExploreResult<M>, ReductionStats)
where
    M: Clone + Eq + Hash + Send,
    P: Protocol<M> + Clone + Send,
    F: Fn(ProcessId) -> P,
{
    let mut stats = ReductionStats::default();
    let (runs, complete) = explore_runs(config, &make, None, &mut stats);
    (
        ExploreResult {
            system: System::new(runs),
            complete,
        },
        stats,
    )
}

/// [`explore`] under a [`Budget`]: the walk polls the budget at every DFS
/// node and unwinds cooperatively when it trips, returning the runs
/// generated so far as a partial (incomplete) system.
///
/// The budget is shared across all fan-out workers, so the first worker
/// to exhaust it makes every sibling's next poll fail fast. Run order is
/// identical to [`explore`] up to the truncation point.
///
/// # Panics
///
/// Panics if `config.n` is zero or exceeds the supported maximum.
pub fn explore_budgeted<M, P, F>(
    config: &ExploreConfig,
    make: F,
    budget: &Budget,
) -> ExploreStatus<M>
where
    M: Clone + Eq + Hash + Send,
    P: Protocol<M> + Clone + Send,
    F: Fn(ProcessId) -> P,
{
    let mut stats = ReductionStats::default();
    let (runs, complete) = explore_runs(config, &make, Some(budget), &mut stats);
    match budget.tripped() {
        Some(reason) => ExploreStatus::Aborted {
            reason,
            partial: (!runs.is_empty()).then(|| ExploreResult {
                system: System::new(runs),
                complete: false,
            }),
        },
        None => ExploreStatus::Done(ExploreResult {
            system: System::new(runs),
            complete,
        }),
    }
}

fn explore_runs<M, P, F>(
    config: &ExploreConfig,
    make: &F,
    budget: Option<&Budget>,
    stats: &mut ReductionStats,
) -> (Vec<Run<M>>, bool)
where
    M: Clone + Eq + Hash + Send,
    P: Protocol<M> + Clone + Send,
    F: Fn(ProcessId) -> P,
{
    // Frontier expansion polls nothing, so a budget that is already
    // cancelled or expired is caught here, before any of it is paid for.
    if budget.is_some_and(|b| b.check().is_err()) {
        return (Vec::new(), false);
    }
    let plan = symmetry_plan(config);
    let frontier = expand_frontier(config, make, FRONTIER_TARGET, plan.as_ref(), stats);
    // Only the reduction counters could see work past the run cap, and a
    // walk without reductions has none: its subtrees share the cap.
    let share_cap = plan.is_none() && !sleep_sets_on(config);
    let results = subtree_runs(config, plan.as_ref(), frontier, budget, share_cap, stats);
    assemble_subtree_runs(results, config.max_runs)
}

/// The breadth-first fan-out width of every exploration. Deliberately not
/// the thread count: symmetry dedup is hierarchical (frontier-level, then
/// per-subtree seen-sets), so the subtree split is part of a reduced
/// walk's output — pinning it makes every run set identical on every
/// machine and thread count. A plain walk's output does not depend on it.
pub(crate) const FRONTIER_TARGET: usize = 64;

/// A breadth-first expansion of the first scheduling slots: independent
/// subtree roots, all parked at the same `(t, p_idx)` slot, whose
/// level-order concatenation is exactly the sequential depth-first run
/// order. Produced by [`expand_frontier`]; consumed by [`subtree_runs`],
/// both for [`explore`] and for the checkpointed explorer
/// (`crate::checkpoint`), which journals completed subtrees by their index
/// in `level`. When the horizon runs out first (`t > horizon`), every root
/// is a leaf — a one-run subtree.
pub(crate) struct Frontier<M, P> {
    /// The subtree roots, in sequential branch order.
    pub(crate) level: Vec<ExploreState<M, P>>,
    /// Tick of the next unexplored slot.
    pub(crate) t: Time,
    /// Process index of the next unexplored slot.
    pub(crate) p_idx: usize,
}

/// Expands the first scheduling slots breadth-first until there are at
/// least `target` independent subtrees (or the horizon is exhausted),
/// applying the reductions on the way: the first slots are part of the
/// tree, so sleep-set pruning filters their choices, and at every
/// completed tick the level is deduplicated by canonical digest in
/// frontier order (the first orbit member reached keeps the subtree;
/// later ones are pruned). Level order is preserved, so the surviving
/// subtrees' concatenation is still the sequential depth-first order.
pub(crate) fn expand_frontier<M, P, F>(
    config: &ExploreConfig,
    make: &F,
    target: usize,
    plan: Option<&SymmetryPlan>,
    stats: &mut ReductionStats,
) -> Frontier<M, P>
where
    M: Clone + Eq + Hash,
    P: Protocol<M> + Clone,
    F: Fn(ProcessId) -> P,
{
    let mut t: Time = 1;
    let mut p_idx = 0usize;
    let mut level: Vec<ExploreState<M, P>> = vec![initial_state(config, make)];
    while level.len() < target && t <= config.horizon {
        let p = ProcessId::new(p_idx);
        let mut next = Vec::with_capacity(level.len() * 2);
        for mut st in level {
            let mut choices = choices_for(config, &mut st, p, t);
            filter_sleeping(&mut choices, st.sleep[p.index()], stats);
            for choice in choices {
                let mut s = st.clone();
                let _ = apply(config, &mut s, p, t, choice);
                next.push(s);
            }
        }
        level = next;
        p_idx += 1;
        if p_idx == config.n {
            p_idx = 0;
            t += 1;
            if let Some(plan) = plan {
                let mut seen = HashSet::new();
                let before = level.len();
                level.retain(|s| seen.insert(canonical_digest(s, config.n, t, plan)));
                stats.states_canonicalized += (before - level.len()) as u64;
            }
        }
    }
    Frontier { level, t, p_idx }
}

/// Drops `Recv` choices whose sender bit is set in the process's sleep
/// mask (the same delivery was enabled and refused at the previous slot;
/// the channel head cannot have changed since sends only append). Masks
/// are all-zero unless sleep sets are on, so plain walks pass through.
fn filter_sleeping<M>(choices: &mut Vec<Choice<M>>, mask: u128, stats: &mut ReductionStats) {
    if mask == 0 {
        return;
    }
    let before = choices.len();
    choices.retain(|c| !matches!(c, Choice::Recv(from) if mask >> from.index() & 1 == 1));
    stats.sleep_set_pruned += (before - choices.len()) as u64;
}

/// Walks every frontier subtree to completion on the work-stealing map,
/// each with its own copy-light DFS, canonical-digest seen-set and run
/// cap, returning `(runs, complete)` per subtree in frontier order.
/// Subtree sizes are wildly uneven, so contiguous chunking would
/// serialize behind the unluckiest worker; stealing does not change the
/// output. Dedup never races across threads: cross-subtree duplicates
/// are missed, costing reduction, never soundness.
///
/// Each subtree is capped at `config.max_runs` on its own. With
/// `share_cap` it takes only the room its finished predecessors left (see
/// [`room`]): the first `max_runs` runs of the concatenation are the
/// same, but a capped walk stops near the cap. Callers that report the
/// walk's work (reduction counters) or each subtree's own output
/// (checkpoint journal entries) must not share it.
pub(crate) fn subtree_runs<M, P>(
    config: &ExploreConfig,
    plan: Option<&SymmetryPlan>,
    frontier: Frontier<M, P>,
    budget: Option<&Budget>,
    share_cap: bool,
    stats: &mut ReductionStats,
) -> Vec<(Vec<Run<M>>, bool)>
where
    M: Clone + Eq + Hash + Send,
    P: Protocol<M> + Clone + Send,
{
    let Frontier { level, t, p_idx } = frontier;
    // Run counts of the finished subtrees, by frontier index.
    let finished = Mutex::new(vec![None; level.len()]);
    let lock = || finished.lock().expect("finished-subtree lock poisoned");
    let roots: Vec<_> = level.into_iter().enumerate().collect();
    let (walks, steal_stats) = ktudc_par::par_map_steal(roots, |(index, mut root)| {
        let cap = if share_cap {
            room(&lock(), index, config.max_runs)
        } else {
            config.max_runs
        };
        let mut walk = Walk {
            config,
            plan,
            budget,
            cap,
            runs: Vec::new(),
            complete: true,
            seen: HashSet::new(),
            stats: ReductionStats::default(),
        };
        walk.dfs(&mut root, t, p_idx);
        if share_cap {
            lock()[index] = Some(walk.runs.len());
        }
        walk
    });
    stats.steals += steal_stats.steals;
    stats.workers = steal_stats.workers;
    walks
        .into_iter()
        .map(|walk| {
            stats.absorb(walk.stats);
            (walk.runs, walk.complete)
        })
        .collect()
}

/// The cap of subtree `index`, given the run counts of the subtrees that
/// have finished: nothing once the finished leading subtrees fill
/// `max_runs`, what they left once all of its predecessors have finished,
/// and the whole cap while an unfinished one may still fall short. Never
/// less than the subtree's share of the first `max_runs` runs.
fn room(finished: &[Option<usize>], index: usize, max_runs: usize) -> usize {
    let leading = finished[..index].iter().map_while(|&runs| runs);
    let (done, runs) = leading.fold((0, 0), |(done, runs), r| (done + 1, runs + r));
    if runs >= max_runs {
        0
    } else if done == index {
        max_runs - runs
    } else {
        max_runs
    }
}

/// Concatenates per-subtree results (in frontier order) under the run
/// cap. Each subtree was capped at no less than its share of the first
/// `max_runs` runs, so those runs equal the sequential result; the
/// enumeration is complete iff every subtree finished and the total
/// stayed under the cap (matching the sequential flag semantics). The
/// concatenation may be empty (a budget abort before the first leaf).
pub(crate) fn assemble_subtree_runs<M: Eq + Hash>(
    results: Vec<(Vec<Run<M>>, bool)>,
    max_runs: usize,
) -> (Vec<Run<M>>, bool) {
    let total: usize = results.iter().map(|(rs, _)| rs.len()).sum();
    let complete = total < max_runs && results.iter().all(|&(_, c)| c);
    let mut runs = Vec::with_capacity(total.min(max_runs));
    for (rs, _) in results {
        let room = max_runs - runs.len();
        runs.extend(rs.into_iter().take(room));
    }
    (runs, complete)
}

/// The original clone-per-branch enumerator, kept as the baseline the
/// copy-light [`explore`] is differentially tested (and benchmarked)
/// against.
pub fn explore_reference<M, P, F>(config: &ExploreConfig, make: F) -> ExploreResult<M>
where
    M: Clone + Eq + Hash,
    P: Protocol<M> + Clone,
    F: Fn(ProcessId) -> P,
{
    let state = initial_state(config, &make);
    let mut runs: Vec<Run<M>> = Vec::new();
    let mut complete = true;
    dfs_reference(config, state, 1, 0, &mut runs, &mut complete);
    ExploreResult {
        system: System::new(runs),
        complete,
    }
}

fn choices_for<M, P>(
    config: &ExploreConfig,
    state: &mut ExploreState<M, P>,
    p: ProcessId,
    t: Time,
) -> Vec<Choice<M>>
where
    M: Clone + Eq + Hash,
    P: Protocol<M> + Clone,
{
    let n = config.n;
    if state.builder.crashed().contains(p) {
        return vec![Choice::Stutter];
    }
    // Scheduled initiations: deterministic preemption when forced, an
    // extra branch when optional.
    let mut pending_init: Option<(usize, ktudc_model::ActionId)> = None;
    for (i, &(it, a)) in config.initiations.iter().enumerate() {
        if a.initiator() != p || state.inits_done[i] {
            continue;
        }
        if config.forced_initiations {
            if it == t {
                return vec![Choice::Init(a)];
            }
        } else if it <= t {
            pending_init = Some((i, a));
            break;
        }
    }
    // A deterministic failure-detector report takes the slot when forced;
    // otherwise it becomes one more branch below.
    let mut fd_report = None;
    if let Some(fd) = config.fd {
        if let Some(report) = fd(p, t, state.builder.crashed()) {
            if config.fd_forced {
                return vec![Choice::Suspect(report)];
            }
            fd_report = Some(report);
        }
    }
    let mut choices = Vec::new();
    if config.allow_stutter {
        choices.push(Choice::Stutter);
    }
    if state.crashes < config.max_failures {
        choices.push(Choice::Crash);
    }
    if let Some((_, a)) = pending_init {
        choices.push(Choice::Init(a));
    }
    if let Some(report) = fd_report {
        choices.push(Choice::Suspect(report));
    }
    for from in ProcessId::all(n) {
        if !state.channels[from.index() * n + p.index()].is_empty() {
            choices.push(Choice::Recv(from));
        }
    }
    // `next_action` may mutate protocol state, so probe on a clone and keep
    // the original untouched; the action is re-derived on the branch clone.
    let mut probe = state.protocols[p.index()].clone();
    if let Some(action) = probe.next_action(t) {
        choices.push(Choice::Act(action));
    }
    if choices.is_empty() {
        choices.push(Choice::Stutter);
    }
    choices
}

/// What [`apply`] did to the shared state, with everything needed to take
/// it back. The protocol is the one piece that cannot be rewound (its state
/// transition is opaque), so mutating choices stash a clone of the *single*
/// protocol they step — far lighter than the old whole-state clone.
enum Undo<M, P> {
    Stutter,
    Crash {
        /// Channels to the crashed process that were emptied.
        drained: Vec<(usize, VecDeque<M>)>,
    },
    Init {
        proto: P,
        /// Index into `config.initiations` that was marked done.
        slot: Option<usize>,
    },
    Suspect {
        proto: P,
    },
    Recv {
        proto: P,
        /// Channel index the message was popped from (the message itself is
        /// recovered from the unappended event).
        chan: usize,
    },
    Act {
        proto: P,
        /// Channel index a sent message was enqueued to, if any.
        sent_chan: Option<usize>,
    },
}

/// Applies `choice` to the shared state, returning the undo record.
fn apply<M, P>(
    config: &ExploreConfig,
    state: &mut ExploreState<M, P>,
    p: ProcessId,
    t: Time,
    choice: Choice<M>,
) -> Undo<M, P>
where
    M: Clone + Eq + Hash,
    P: Protocol<M> + Clone,
{
    let n = config.n;
    if sleep_sets_on(config) {
        // A stutter while deliveries were pending is a *refusal*: record
        // which senders' heads were refused, so the next slot can prune
        // re-offering them. Any real event resets the refusal context.
        // The rewinding DFS saves and restores this mask around
        // apply/revert; clone-per-branch callers need no undo.
        state.sleep[p.index()] = match &choice {
            Choice::Stutter => ProcessId::all(n)
                .filter(|from| !state.channels[from.index() * n + p.index()].is_empty())
                .fold(0u128, |mask, from| mask | (1 << from.index())),
            _ => 0,
        };
    }
    match choice {
        Choice::Stutter => Undo::Stutter,
        Choice::Crash => {
            state
                .builder
                .append(p, t, Event::Crash)
                .expect("crash append");
            state.crashes += 1;
            // Undelivered messages to a crashed process can never be
            // received; clear them so they do not generate choices.
            let mut drained = Vec::new();
            for from in ProcessId::all(n) {
                let idx = from.index() * n + p.index();
                if !state.channels[idx].is_empty() {
                    drained.push((idx, std::mem::take(&mut state.channels[idx])));
                }
            }
            Undo::Crash { drained }
        }
        Choice::Init(action) => {
            let proto = state.protocols[p.index()].clone();
            let event = Event::Init { action };
            state
                .builder
                .append(p, t, event.clone())
                .expect("init append");
            state.protocols[p.index()].observe(t, &event);
            let slot = config.initiations.iter().position(|&(_, a)| a == action);
            if let Some(i) = slot {
                state.inits_done[i] = true;
            }
            Undo::Init { proto, slot }
        }
        Choice::Suspect(report) => {
            let proto = state.protocols[p.index()].clone();
            let event = Event::Suspect(report);
            state
                .builder
                .append(p, t, event.clone())
                .expect("suspect append");
            state.protocols[p.index()].observe(t, &event);
            Undo::Suspect { proto }
        }
        Choice::Recv(from) => {
            let proto = state.protocols[p.index()].clone();
            let chan = from.index() * n + p.index();
            let msg = state.channels[chan]
                .pop_front()
                .expect("choice guaranteed a pending message");
            let event = Event::Recv { from, msg };
            state
                .builder
                .append(p, t, event.clone())
                .expect("recv append");
            state.protocols[p.index()].observe(t, &event);
            Undo::Recv { proto, chan }
        }
        Choice::Act(_) => {
            let proto = state.protocols[p.index()].clone();
            // Re-derive the action on this branch's own protocol state.
            match state.protocols[p.index()].next_action(t) {
                Some(ProtoAction::Send { to, msg }) => {
                    let event = Event::Send {
                        to,
                        msg: msg.clone(),
                    };
                    state
                        .builder
                        .append(p, t, event.clone())
                        .expect("send append");
                    state.protocols[p.index()].observe(t, &event);
                    let sent_chan = if state.builder.crashed().contains(to) {
                        None
                    } else {
                        let c = p.index() * n + to.index();
                        state.channels[c].push_back(msg);
                        Some(c)
                    };
                    Undo::Act { proto, sent_chan }
                }
                Some(ProtoAction::Do(action)) => {
                    let event = Event::Do { action };
                    state
                        .builder
                        .append(p, t, event.clone())
                        .expect("do append");
                    state.protocols[p.index()].observe(t, &event);
                    Undo::Act {
                        proto,
                        sent_chan: None,
                    }
                }
                None => unreachable!("probe saw an action; protocols are deterministic"),
            }
        }
    }
}

/// Rewinds [`apply`]. Undo records must be replayed strictly LIFO across
/// the whole exploration (the recursion structure guarantees it).
fn revert<M, P>(state: &mut ExploreState<M, P>, p: ProcessId, undo: Undo<M, P>)
where
    M: Clone + Eq + Hash,
{
    match undo {
        Undo::Stutter => {}
        Undo::Crash { drained } => {
            state.builder.unappend(p);
            state.crashes -= 1;
            for (idx, q) in drained {
                state.channels[idx] = q;
            }
        }
        Undo::Init { proto, slot } => {
            state.builder.unappend(p);
            state.protocols[p.index()] = proto;
            if let Some(i) = slot {
                state.inits_done[i] = false;
            }
        }
        Undo::Suspect { proto } => {
            state.builder.unappend(p);
            state.protocols[p.index()] = proto;
        }
        Undo::Recv { proto, chan } => {
            match state.builder.unappend(p) {
                Some(Event::Recv { msg, .. }) => state.channels[chan].push_front(msg),
                _ => unreachable!("recv undo must pop the recv it appended"),
            }
            state.protocols[p.index()] = proto;
        }
        Undo::Act { proto, sent_chan } => {
            state.builder.unappend(p);
            if let Some(c) = sent_chan {
                state.channels[c].pop_back();
            }
            state.protocols[p.index()] = proto;
        }
    }
}

/// One subtree's depth-first walk: what it reads, and what it has found.
struct Walk<'a, M> {
    config: &'a ExploreConfig,
    /// The symmetry group to canonicalize under; `None` when symmetry
    /// reduction is off.
    plan: Option<&'a SymmetryPlan>,
    budget: Option<&'a Budget>,
    /// Runs this subtree may produce (see [`subtree_runs`]).
    cap: usize,
    runs: Vec<Run<M>>,
    complete: bool,
    /// Canonical digests of the tick-boundary states explored so far.
    seen: HashSet<u64>,
    stats: ReductionStats,
}

impl<M: Clone + Eq + Hash> Walk<'_, M> {
    /// Copy-light depth-first walk: one shared state, rewound after every
    /// branch. Check placement mirrors [`dfs_reference`] exactly so the
    /// truncation flag semantics stay identical. A tripped budget behaves
    /// like the run cap (marks the walk incomplete and unwinds), except
    /// the trip is shared: once any worker trips it, every subtree's next
    /// poll fails fast too. Each tick boundary is checked against the
    /// seen-set when there is a symmetry plan, and sleep masks are saved
    /// and restored around apply/revert since [`revert`] does not touch
    /// them.
    fn dfs<P>(&mut self, state: &mut ExploreState<M, P>, t: Time, p_idx: usize)
    where
        P: Protocol<M> + Clone,
    {
        let config = self.config;
        if self.budget.is_some_and(|b| b.poll().is_err()) || self.runs.len() >= self.cap {
            self.complete = false;
            return;
        }
        if t > config.horizon {
            self.runs.push(state.builder.snapshot(config.horizon));
            return;
        }
        if p_idx == config.n {
            if let Some(plan) = self.plan {
                // Completed tick `t`: prune if an isomorphic state (same
                // canonical digest, which includes the tick) was already
                // explored in this subtree.
                if !self
                    .seen
                    .insert(canonical_digest(state, config.n, t + 1, plan))
                {
                    self.stats.states_canonicalized += 1;
                    return;
                }
            }
            self.dfs(state, t + 1, 0);
            return;
        }
        let p = ProcessId::new(p_idx);
        let saved_sleep = state.sleep[p.index()];
        let mut choices = choices_for(config, state, p, t);
        filter_sleeping(&mut choices, saved_sleep, &mut self.stats);
        for choice in choices {
            let undo = apply(config, state, p, t, choice);
            self.dfs(state, t, p_idx + 1);
            revert(state, p, undo);
            state.sleep[p.index()] = saved_sleep;
            if self.runs.len() >= self.cap {
                self.complete = false;
                return;
            }
        }
    }
}

fn dfs_reference<M, P>(
    config: &ExploreConfig,
    mut state: ExploreState<M, P>,
    t: Time,
    p_idx: usize,
    runs: &mut Vec<Run<M>>,
    complete: &mut bool,
) where
    M: Clone + Eq + Hash,
    P: Protocol<M> + Clone,
{
    if runs.len() >= config.max_runs {
        *complete = false;
        return;
    }
    if t > config.horizon {
        runs.push(state.builder.finish(config.horizon));
        return;
    }
    if p_idx == config.n {
        dfs_reference(config, state, t + 1, 0, runs, complete);
        return;
    }
    let p = ProcessId::new(p_idx);
    let n = config.n;
    let choices = choices_for(config, &mut state, p, t);
    let last = choices.len() - 1;
    for (i, choice) in choices.into_iter().enumerate() {
        // Reuse the state on the final branch instead of cloning it.
        let mut s = if i == last {
            std::mem::replace(
                &mut state,
                ExploreState {
                    builder: RunBuilder::new(n),
                    protocols: Vec::new(),
                    channels: Vec::new(),
                    crashes: 0,
                    inits_done: Vec::new(),
                    sleep: Vec::new(),
                },
            )
        } else {
            state.clone()
        };
        let _ = apply(config, &mut s, p, t, choice);
        dfs_reference(config, s, t, p_idx + 1, runs, complete);
        if runs.len() >= config.max_runs {
            *complete = false;
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktudc_model::ActionId;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// A protocol that does nothing, ever.
    #[derive(Clone, Debug)]
    struct Idle;

    impl<M> Protocol<M> for Idle {
        fn start(&mut self, _me: ProcessId, _n: usize) {}
        fn observe(&mut self, _time: Time, _event: &Event<M>) {}
        fn next_action(&mut self, _time: Time) -> Option<ProtoAction<M>> {
            None
        }
        fn quiescent(&self) -> bool {
            true
        }
    }

    /// Sends one message p0 → p1 at the first opportunity.
    #[derive(Clone, Debug)]
    struct OneShot {
        me: ProcessId,
        sent: bool,
    }

    impl Protocol<u8> for OneShot {
        fn start(&mut self, me: ProcessId, _n: usize) {
            self.me = me;
        }
        fn observe(&mut self, _time: Time, event: &Event<u8>) {
            if matches!(event, Event::Send { .. }) {
                self.sent = true;
            }
        }
        fn next_action(&mut self, _time: Time) -> Option<ProtoAction<u8>> {
            if self.me == ProcessId::new(0) && !self.sent {
                Some(ProtoAction::Send {
                    to: ProcessId::new(1),
                    msg: 42,
                })
            } else {
                None
            }
        }
        fn quiescent(&self) -> bool {
            self.sent
        }
    }

    #[test]
    fn idle_no_failures_yields_single_run() {
        let cfg = ExploreConfig::new(2, 3).max_failures(0);
        let result = explore::<u8, _, _>(&cfg, |_| Idle);
        assert!(result.complete);
        // Only stuttering: exactly one run, with empty histories.
        assert_eq!(result.system.len(), 1);
        assert_eq!(result.system.run(0).event_count(), 0);
    }

    #[test]
    fn failure_budget_bounds_crash_count() {
        let cfg = ExploreConfig::new(2, 2).max_failures(1);
        let result = explore::<u8, _, _>(&cfg, |_| Idle);
        assert!(result.complete);
        assert!(result.system.len() > 1);
        for run in result.system.runs() {
            assert!(run.faulty().len() <= 1);
            run.check_conditions(0).unwrap();
        }
        // Some run crashes p0, some run crashes p1, some run crashes nobody.
        let faulties: Vec<ProcSet> = result.system.runs().iter().map(Run::faulty).collect();
        assert!(faulties.contains(&ProcSet::new()));
        assert!(faulties.contains(&ProcSet::singleton(p(0))));
        assert!(faulties.contains(&ProcSet::singleton(p(1))));
    }

    #[test]
    fn oneshot_generates_delivered_and_undelivered_branches() {
        let cfg = ExploreConfig::new(2, 3).max_failures(0);
        let result = explore(&cfg, |_| OneShot {
            me: ProcessId::new(0),
            sent: false,
        });
        assert!(result.complete);
        let mut saw_delivery = false;
        let mut saw_loss = false;
        for run in result.system.runs() {
            run.check_conditions(0).unwrap();
            let received = run.view_at(p(1), run.horizon()).received(p(0), &42);
            let sent = run.view_at(p(0), run.horizon()).sent(p(1), &42);
            if sent && received {
                saw_delivery = true;
            }
            if sent && !received {
                saw_loss = true;
            }
        }
        assert!(saw_delivery, "some schedule delivers the message");
        assert!(saw_loss, "some schedule never delivers it (loss/delay)");
    }

    #[test]
    fn initiations_are_forced_deterministically() {
        let alpha = ActionId::new(p(0), 0);
        let cfg = ExploreConfig::new(2, 2).max_failures(0).initiate(1, alpha);
        let result = explore::<u8, _, _>(&cfg, |_| Idle);
        for run in result.system.runs() {
            assert!(
                run.view_at(p(0), run.horizon()).initiated(alpha),
                "initiation must appear in every run (no crash can preempt it with budget 0)"
            );
        }
    }

    #[test]
    fn fd_rule_takes_the_slot() {
        fn always_report(p: ProcessId, t: Time, crashed: ProcSet) -> Option<SuspectReport> {
            // Report the crashed set at tick 2 only.
            (t == 2 && !crashed.contains(p)).then_some(SuspectReport::Standard(crashed))
        }
        let cfg = ExploreConfig::new(2, 2).max_failures(1).fd(always_report);
        let result = explore::<u8, _, _>(&cfg, |_| Idle);
        for run in result.system.runs() {
            for q in ProcessId::all(2) {
                if run.crash_time(q).is_none_or(|ct| ct > 2) {
                    let reports: Vec<_> = run.view_at(q, 2).suspect_reports().collect();
                    assert_eq!(reports.len(), 1, "live process must report at tick 2");
                    // Perfect-style accuracy: only actually-crashed suspected.
                    if let SuspectReport::Standard(s) = reports[0] {
                        assert!(s.is_subset_of(run.crashed_by(2)));
                    }
                }
            }
        }
    }

    #[test]
    fn run_cap_truncates_and_flags() {
        let cfg = ExploreConfig::new(3, 3).max_runs(10);
        let result = explore::<u8, _, _>(&cfg, |_| Idle);
        assert!(!result.complete);
        assert!(result.system.len() <= 10);
    }

    #[test]
    fn copy_light_explorer_matches_reference() {
        fn report_at_two(p: ProcessId, t: Time, crashed: ProcSet) -> Option<SuspectReport> {
            (t == 2 && !crashed.contains(p)).then_some(SuspectReport::Standard(crashed))
        }
        let alpha = ActionId::new(p(0), 0);
        let configs = vec![
            ExploreConfig::new(2, 3),
            ExploreConfig::new(2, 3).max_failures(0),
            ExploreConfig::new(3, 2).max_runs(50),
            ExploreConfig::new(2, 2)
                .initiate(1, alpha)
                .optional_initiations(),
            ExploreConfig::new(2, 2)
                .max_failures(1)
                .fd(report_at_two)
                .optional_fd(),
            ExploreConfig::new(2, 3).without_stutter(),
        ];
        for cfg in configs {
            let fast = explore::<u8, _, _>(&cfg, |_| Idle);
            let slow = explore_reference::<u8, _, _>(&cfg, |_| Idle);
            assert_eq!(fast.system.runs(), slow.system.runs(), "config {cfg:?}");
            assert_eq!(fast.complete, slow.complete, "config {cfg:?}");
        }
        // And with a protocol that actually sends/receives.
        let cfg = ExploreConfig::new(2, 3).max_failures(1);
        let mk = |_| OneShot {
            me: ProcessId::new(0),
            sent: false,
        };
        let fast = explore(&cfg, mk);
        let slow = explore_reference(&cfg, mk);
        assert_eq!(fast.system.runs(), slow.system.runs());
        assert_eq!(fast.complete, slow.complete);
    }

    #[test]
    fn unlimited_budget_matches_unbudgeted_exploration() {
        let cfg = ExploreConfig::new(2, 3).max_failures(1);
        let mk = |_| OneShot {
            me: ProcessId::new(0),
            sent: false,
        };
        let plain = explore(&cfg, mk);
        let budget = Budget::unlimited();
        match explore_budgeted(&cfg, mk, &budget) {
            ExploreStatus::Done(result) => {
                assert_eq!(result.system.runs(), plain.system.runs());
                assert_eq!(result.complete, plain.complete);
            }
            ExploreStatus::Aborted { reason, .. } => panic!("unexpected abort: {reason}"),
        }
        assert!(budget.steps() > 0, "the walk must have polled");
    }

    #[test]
    fn step_capped_exploration_aborts_with_partial_runs() {
        // Plain and reduced walks alike. The symmetric tree fits inside the
        // frontier, so this also pins that every leaf root is polled.
        for cfg in [
            ExploreConfig::new(3, 3),
            ExploreConfig::new(3, 3).symmetric(vec![0, 1, 2]),
            ExploreConfig::new(3, 3).with_sleep_sets(),
        ] {
            let full = explore::<u8, _, _>(&cfg, |_| Idle);
            // Probe how many polls the full walk takes, then allow only
            // half: the abort is then guaranteed, whatever the fan-out.
            let probe = Budget::unlimited();
            assert!(matches!(
                explore_budgeted::<u8, _, _>(&cfg, |_| Idle, &probe),
                ExploreStatus::Done(_)
            ));
            let budget = Budget::unlimited().with_max_steps(probe.steps() / 2);
            match explore_budgeted::<u8, _, _>(&cfg, |_| Idle, &budget) {
                ExploreStatus::Aborted { reason, partial } => {
                    assert_eq!(reason, AbortReason::StepLimit, "config {cfg:?}");
                    let partial = partial.expect("half the walk generates at least one run");
                    assert!(!partial.complete);
                    assert!(partial.system.len() < full.system.len());
                    // Partial runs are a prefix-consistent subset: every
                    // run is fully formed (no torn histories).
                    for run in partial.system.runs() {
                        run.check_conditions(cfg.max_failures).unwrap();
                    }
                }
                ExploreStatus::Done(_) => panic!("a half-walk step cap must trip: {cfg:?}"),
            }
        }
    }

    #[test]
    fn a_capped_plain_walk_stops_near_the_cap() {
        // Ten runs in each frontier subtree would take a poll per run at
        // least; sharing the cap in frontier order walks about ten runs.
        let cfg = ExploreConfig::new(3, 5).max_runs(10);
        let mk = |_| OneShot {
            me: ProcessId::new(0),
            sent: false,
        };
        let budget = Budget::unlimited();
        let _ = explore_budgeted(&cfg, mk, &budget);
        assert!(
            budget.steps() < 10 * FRONTIER_TARGET as u64,
            "{} polls",
            budget.steps()
        );
    }

    #[test]
    fn cancelled_exploration_aborts_promptly() {
        // Plain and reduced walks alike, whatever the thread count: the
        // frontier expansion ahead of the fan-out must not run first.
        for cfg in [
            ExploreConfig::new(2, 3),
            ExploreConfig::new(2, 3).with_sleep_sets(),
        ] {
            let budget = Budget::unlimited();
            budget.cancel_token().cancel();
            match explore_budgeted::<u8, _, _>(&cfg, |_| Idle, &budget) {
                ExploreStatus::Aborted { reason, partial } => {
                    assert_eq!(reason, AbortReason::Cancelled);
                    assert!(partial.is_none(), "cancelled before any leaf");
                    assert_eq!(budget.steps(), 1, "one poll, then out");
                }
                ExploreStatus::Done(_) => panic!("pre-cancelled budget must abort"),
            }
        }
    }

    #[test]
    fn without_stutter_shrinks_the_space() {
        let big = explore(&ExploreConfig::new(2, 3).max_failures(0), |_| OneShot {
            me: ProcessId::new(0),
            sent: false,
        });
        let small = explore(
            &ExploreConfig::new(2, 3).max_failures(0).without_stutter(),
            |_| OneShot {
                me: ProcessId::new(0),
                sent: false,
            },
        );
        assert!(small.system.len() < big.system.len());
    }

    /// The canonical (min-over-group) digest of a finished run's timed
    /// histories — the run-level analogue of [`canonical_digest`], used to
    /// compare run sets up to relabeling.
    fn canonical_run_digest(run: &Run<u8>, plan: &SymmetryPlan) -> u64 {
        run_canonical_digest(run, plan, true)
    }

    /// The per-process event sequences at the horizon, with times erased —
    /// the observable a time-oblivious protocol acts on.
    fn untimed_tuple(run: &Run<u8>) -> Vec<Vec<Event<u8>>> {
        (0..run.n())
            .map(|i| run.history_at(p(i), run.horizon()).to_vec())
            .collect()
    }

    #[test]
    fn degenerate_symmetry_class_matches_reference_exactly() {
        // Out-of-range members yield no usable permutation, so the walk
        // must reproduce the reference system verbatim — this pins the
        // fan-out plumbing (fixed frontier target, subtree assembly) as
        // order-preserving.
        let make = |_me: ProcessId| OneShot {
            me: ProcessId::new(0),
            sent: false,
        };
        let cfg = ExploreConfig::new(2, 3)
            .max_failures(1)
            .symmetric(vec![7, 9]);
        let (reduced, stats) = explore_with_stats(&cfg, make);
        let reference = explore_reference(&ExploreConfig::new(2, 3).max_failures(1), make);
        assert!(reduced.complete && reference.complete);
        assert_eq!(reduced.system.runs(), reference.system.runs());
        assert_eq!(stats.states_canonicalized, 0);
        assert_eq!(stats.sleep_set_pruned, 0);
    }

    #[test]
    fn symmetry_covers_the_reference_up_to_relabeling() {
        // All three Idle processes are interchangeable; crashes are the only
        // branching, so orbits collapse e.g. {p0 crashes} ~ {p1 crashes}.
        let make = |_me: ProcessId| Idle;
        let cfg = ExploreConfig::new(3, 3)
            .max_failures(2)
            .symmetric(vec![0, 1, 2]);
        let (reduced, stats) = explore_with_stats::<u8, _, _>(&cfg, make);
        let reference =
            explore_reference::<u8, _, _>(&ExploreConfig::new(3, 3).max_failures(2), make);
        assert!(reduced.complete && reference.complete);
        assert!(
            reduced.system.len() < reference.system.len(),
            "symmetry must shrink the crash orbits: {} vs {}",
            reduced.system.len(),
            reference.system.len()
        );
        assert!(stats.states_canonicalized > 0);

        // Every reduced run is literally a reference run (pruning only ever
        // skips branches)...
        for run in reduced.system.runs() {
            assert!(reference.system.runs().contains(run), "reduced ⊄ reference");
        }
        // ...and every reference run is covered by a reduced representative
        // in the same orbit.
        let plan = symmetry_plan(&cfg).expect("class of 3 yields a plan");
        let covered: HashSet<u64> = reduced
            .system
            .runs()
            .iter()
            .map(|r| canonical_run_digest(r, &plan))
            .collect();
        for run in reference.system.runs() {
            assert!(
                covered.contains(&canonical_run_digest(run, &plan)),
                "reference run not covered up to relabeling: {run:?}"
            );
        }
    }

    #[test]
    fn symmetry_skips_initiation_initiators() {
        // p0 initiates, so it is observably distinct: declaring it
        // symmetric with p1 must be ignored rather than unsound.
        let alpha = ActionId::new(p(0), 0);
        let cfg = ExploreConfig::new(2, 3)
            .max_failures(0)
            .initiate(1, alpha)
            .symmetric(vec![0, 1]);
        assert!(
            symmetry_plan(&cfg).is_none(),
            "p0 stripped leaves a singleton"
        );
        let make = |_me: ProcessId| Idle;
        let (reduced, _) = explore_with_stats::<u8, _, _>(&cfg, make);
        let reference = explore_reference::<u8, _, _>(
            &ExploreConfig::new(2, 3).max_failures(0).initiate(1, alpha),
            make,
        );
        assert_eq!(reduced.system.runs(), reference.system.runs());
    }

    #[test]
    fn sleep_sets_shrink_and_preserve_untimed_leaf_histories() {
        // OneShot is time-oblivious, so refusing a delivery and taking it
        // one tick later must not produce any new untimed observation: the
        // reduced system sees exactly the reference's set of per-process
        // untimed history tuples, with strictly fewer runs.
        let make = |_me: ProcessId| OneShot {
            me: ProcessId::new(0),
            sent: false,
        };
        let cfg = ExploreConfig::new(2, 4).max_failures(1).with_sleep_sets();
        let (reduced, stats) = explore_with_stats(&cfg, make);
        let reference = explore_reference(&ExploreConfig::new(2, 4).max_failures(1), make);
        assert!(reduced.complete && reference.complete);
        assert!(
            reduced.system.len() < reference.system.len(),
            "sleep sets must prune delayed-delivery interleavings: {} vs {}",
            reduced.system.len(),
            reference.system.len()
        );
        assert!(stats.sleep_set_pruned > 0);

        for run in reduced.system.runs() {
            assert!(reference.system.runs().contains(run), "reduced ⊄ reference");
        }
        let reduced_tuples: HashSet<_> = reduced.system.runs().iter().map(untimed_tuple).collect();
        let reference_tuples: HashSet<_> =
            reference.system.runs().iter().map(untimed_tuple).collect();
        assert_eq!(reduced_tuples, reference_tuples);
    }

    #[test]
    fn sleep_sets_are_inert_without_stutter() {
        // The rule keys on "stuttered while deliverable": with stuttering
        // disabled the premise never holds, so the gate turns them off
        // rather than risking a process with an emptied choice set.
        let make = |_me: ProcessId| OneShot {
            me: ProcessId::new(0),
            sent: false,
        };
        let cfg = ExploreConfig::new(2, 3)
            .max_failures(0)
            .without_stutter()
            .with_sleep_sets();
        let (reduced, stats) = explore_with_stats(&cfg, make);
        let reference = explore_reference(
            &ExploreConfig::new(2, 3).max_failures(0).without_stutter(),
            make,
        );
        assert_eq!(reduced.system.runs(), reference.system.runs());
        assert_eq!(stats.sleep_set_pruned, 0);
    }

    #[test]
    fn combined_reductions_compose() {
        let make = |_me: ProcessId| Idle;
        let cfg = ExploreConfig::new(3, 3)
            .max_failures(1)
            .symmetric(vec![0, 1, 2])
            .with_sleep_sets();
        let (reduced, _) = explore_with_stats::<u8, _, _>(&cfg, make);
        let reference =
            explore_reference::<u8, _, _>(&ExploreConfig::new(3, 3).max_failures(1), make);
        assert!(reduced.complete);
        assert!(reduced.system.len() < reference.system.len());
        for run in reduced.system.runs() {
            assert!(reference.system.runs().contains(run));
        }
    }
}
