//! Violation-detection campaigns: mutation testing for the checker stack.
//!
//! A *chaos plan* perturbs a Table-1 cell — network faults from
//! [`ktudc_sim::FaultPlan`], contract-violating failure-detector wrappers
//! from [`ktudc_fd::perturb`], or crash schedules that overrun the context
//! bound `t`. Each plan is classified, **per cell**, as in-model (the
//! paper's run conditions R1–R5 and the cell's context assumptions still
//! hold) or out-of-model (some assumption is deliberately broken), and the
//! campaign asserts a detection matrix:
//!
//! * every **in-model** plan leaves the UDC verdict unchanged and raises
//!   no alarm from any checker (zero false alarms), and
//! * every **out-of-model** plan is either *detected* — flagged by the
//!   structural R1–R5 checker, the cell's claimed FD-class properties, the
//!   fault-bound audit, or a changed UDC verdict — or explicitly recorded
//!   as *survived*, with the injection evidence in the row. Nothing falls
//!   through silently, and every plan kind must be detected at least once
//!   across the campaign (the mutation-kill criterion).
//!
//! The campaign runs over the *positive* (achievable) UDC cells of
//! Table 1. Negative cells violate the specification by design, so a
//! changed verdict there is not a detection signal; they are exercised by
//! the ordinary harness instead.
//!
//! Everything is deterministic: a campaign over fixed cells, plans, and
//! seeds produces a byte-identical report (pinned by its digest).

use crate::harness::{make_oracle, CellSpec, FdChoice, ProtocolChoice};
use crate::protocols::generalized::GeneralizedUdc;
use crate::protocols::reliable::ReliableUdc;
use crate::protocols::strong_fd::StrongFdUdc;
use crate::protocols::CoordMsg;
use crate::spec::{check_udc, Verdict};
use ktudc_fd::{
    check_fd_property, FalseSuspector, FdProperty, MinFaultyInflater, SuspicionSuppressor,
};
use ktudc_model::hashing::stable_hash;
use ktudc_model::{ModelError, ProcessId, Time};
use ktudc_sim::{
    run_protocol, ChannelKind, CrashPlan, FaultPlan, FdOracle, SimConfig, SimOutcome, Workload,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Fairness threshold (R5 reading) used by the campaign's structural
/// check: a message sent this many times to a live receiver with zero
/// receipts counts as an unfair-channel witness. High enough that benign
/// lossy channels never trip it at campaign horizons, low enough that a
/// severed link under a retransmitting protocol does.
pub const FAIRNESS_THRESHOLD: usize = 25;

/// Whether a plan stays inside the model assumptions of a given cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlanClass {
    /// R1–R5 and the cell's context assumptions still hold; checkers must
    /// stay silent and the verdict must not move.
    InModel,
    /// Some assumption is deliberately broken; the campaign demands
    /// detection or an explicitly recorded survival.
    OutOfModel,
}

/// A scheduled failure-detector contract violation (wrappers from
/// [`ktudc_fd::perturb`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum FdMutation {
    /// One false suspicion of the immune process (lowest-indexed correct)
    /// at the first poll at or after `at` — breaks strong accuracy.
    FalseSuspect {
        /// Earliest tick at which the false suspicion fires.
        at: Time,
    },
    /// Erase every suspicion of the highest-indexed process — breaks
    /// strong/weak completeness whenever that process crashes.
    Suppress,
    /// Inflate one generalized report's claimed `min_faulty` bound at the
    /// first qualifying poll at or after `at` — breaks generalized strong
    /// accuracy.
    InflateMinFaulty {
        /// Earliest tick at which the inflated bound fires.
        at: Time,
    },
}

/// One mutation: a named bundle of network faults, an optional FD
/// contract violation, and an optional crash-bound overrun.
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    /// Display name (stable across runs; part of the report digest).
    pub name: &'static str,
    /// Network-level faults injected into the simulated channels.
    pub network: FaultPlan,
    /// Failure-detector contract violation, if any.
    pub fd: Option<FdMutation>,
    /// How far beyond the cell's `t` the crash schedule may draw.
    pub extra_crashes: usize,
}

impl ChaosPlan {
    /// A pure network-fault plan.
    #[must_use]
    pub fn network(name: &'static str, network: FaultPlan) -> Self {
        ChaosPlan {
            name,
            network,
            fd: None,
            extra_crashes: 0,
        }
    }

    /// A pure FD-mutation plan.
    #[must_use]
    pub fn fd_mutation(name: &'static str, fd: FdMutation) -> Self {
        ChaosPlan {
            name,
            network: FaultPlan::none(),
            fd: Some(fd),
            extra_crashes: 0,
        }
    }

    /// A plan whose crash schedule may exceed the context bound `t` by up
    /// to `extra` victims.
    #[must_use]
    pub fn crash_overrun(name: &'static str, extra: usize) -> Self {
        ChaosPlan {
            name,
            network: FaultPlan::none(),
            fd: None,
            extra_crashes: extra,
        }
    }

    /// Whether this plan is meaningful for `cell`. FD mutations only
    /// target cells whose detector actually claims the property they
    /// break (so detection is guaranteed rather than probabilistic).
    #[must_use]
    pub fn applies_to(&self, cell: &CellSpec) -> bool {
        match self.fd {
            None => true,
            Some(FdMutation::FalseSuspect { .. } | FdMutation::Suppress) => {
                matches!(cell.fd, FdChoice::Perfect)
            }
            Some(FdMutation::InflateMinFaulty { .. }) => {
                matches!(cell.fd, FdChoice::TUseful | FdChoice::Cycling)
            }
        }
    }

    /// Classifies this plan relative to `cell`'s model assumptions.
    ///
    /// Duplication (R3), permanently severed links (R5), FD contract
    /// violations, and crash-bound overruns are always out-of-model.
    /// Burst loss and bounded partitions only destroy copies, which is
    /// in-model on channels already declared lossy (the protocols there
    /// retransmit) but breaks the reliable-channel assumption of
    /// Proposition 2.4 otherwise. Bounded delay spikes are in-model
    /// everywhere.
    #[must_use]
    pub fn class_for(&self, cell: &CellSpec) -> PlanClass {
        if self.fd.is_some()
            || self.extra_crashes > 0
            || self.network.duplicates()
            || self.network.has_unfair_link()
        {
            return PlanClass::OutOfModel;
        }
        if self.network.drops_copies() && cell.drop_prob.is_none() {
            return PlanClass::OutOfModel;
        }
        PlanClass::InModel
    }
}

/// The standard mutation catalog for an `n`-process grid: three in-model
/// controls (on lossy cells) and six out-of-model violations covering R3,
/// R5, bounded loss against reliable-channel cells, the crash bound, and
/// three FD-class contracts.
///
/// The bounded partition isolates *all* of process 0's outgoing links for
/// its window (hence the `n` parameter): a single cut link is masked by
/// the protocols' relaying and would never be caught, but full egress
/// isolation while p0 initiates actions is detectable on reliable cells.
#[must_use]
pub fn standard_plans(n: usize) -> Vec<ChaosPlan> {
    let mut isolate = FaultPlan::none();
    for to in 1..n {
        isolate = isolate.partition_link(0, to, 20, 80);
    }
    vec![
        ChaosPlan::network("delay-spikes", FaultPlan::none().delay_spikes(40, 8, 5)),
        ChaosPlan::network("burst-loss", FaultPlan::none().burst_loss(30, 3)),
        ChaosPlan::network("bounded-partition", isolate),
        ChaosPlan::network("duplication", FaultPlan::none().duplicate(0.25)),
        ChaosPlan::network("severed-link", FaultPlan::none().sever_link(0, 1, 1)),
        ChaosPlan::crash_overrun("crash-overrun", 2),
        ChaosPlan::fd_mutation("fd-false-suspect", FdMutation::FalseSuspect { at: 40 }),
        ChaosPlan::fd_mutation("fd-suppress", FdMutation::Suppress),
        ChaosPlan::fd_mutation(
            "fd-inflate-min-faulty",
            FdMutation::InflateMinFaulty { at: 40 },
        ),
    ]
}

/// The positive (achievable) UDC cells of Table 1, sized for the chaos
/// campaign in CI: n = 4, horizon 600, loss 0.25.
#[must_use]
pub fn chaos_cells() -> Vec<(String, CellSpec)> {
    let (n, horizon, loss, (t_low, t_mid, t_high)) = (4, 600, 0.25, (1, 2, 3));
    let cell = |t: usize, drop: Option<f64>, fd: FdChoice, proto: ProtocolChoice| {
        CellSpec::new(n, t, drop, fd, proto).horizon(horizon)
    };
    vec![
        (
            format!("reliable / no FD / t={t_low}"),
            cell(t_low, None, FdChoice::None, ProtocolChoice::Reliable),
        ),
        (
            format!("reliable / no FD / t={t_high}"),
            cell(t_high, None, FdChoice::None, ProtocolChoice::Reliable),
        ),
        (
            format!("lossy / cycling / t={t_low}"),
            cell(
                t_low,
                Some(loss),
                FdChoice::Cycling,
                ProtocolChoice::Generalized,
            ),
        ),
        (
            format!("lossy / t-useful / t={t_mid}"),
            cell(
                t_mid,
                Some(loss),
                FdChoice::TUseful,
                ProtocolChoice::Generalized,
            ),
        ),
        (
            format!("lossy / strong / t={t_high}"),
            cell(
                t_high,
                Some(loss),
                FdChoice::Strong,
                ProtocolChoice::StrongFd,
            ),
        ),
        (
            format!("lossy / perfect / t={t_high}"),
            cell(
                t_high,
                Some(loss),
                FdChoice::Perfect,
                ProtocolChoice::StrongFd,
            ),
        ),
    ]
}

/// The FD-class properties a cell's detector *claims*, i.e. the
/// contracts the campaign holds it to. Checked on every campaign run:
/// they must hold under in-model plans and catch the matching FD
/// mutation.
#[must_use]
pub fn claimed_properties(fd: FdChoice) -> &'static [FdProperty] {
    match fd {
        FdChoice::None => &[],
        FdChoice::Cycling | FdChoice::TUseful => &[FdProperty::GeneralizedStrongAccuracy],
        FdChoice::Weak => &[FdProperty::WeakAccuracy, FdProperty::WeakCompleteness],
        FdChoice::ImpermanentStrong => &[FdProperty::ImpermanentStrongCompleteness],
        FdChoice::Strong => &[FdProperty::WeakAccuracy, FdProperty::StrongCompleteness],
        FdChoice::Perfect => &[FdProperty::StrongAccuracy, FdProperty::StrongCompleteness],
        // The empirical detectors unconditionally claim only completeness
        // (a crashed process goes silent in every regime, so beats stop and
        // counters freeze); their *accuracy* is regime-dependent — that is
        // precisely what `ktudc_fd::classify` measures per fault regime.
        FdChoice::Heartbeat | FdChoice::PhiAccrual | FdChoice::Gossip => {
            &[FdProperty::StrongCompleteness]
        }
    }
}

/// How one campaign row was classified.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RowOutcome {
    /// In-model plan, verdict unchanged, every checker silent.
    Clean,
    /// In-model plan, but a checker fired or the verdict moved — a
    /// campaign failure.
    FalseAlarm,
    /// Out-of-model plan caught by at least one checker.
    Detected,
    /// Out-of-model plan absorbed by the protocol; the injection evidence
    /// is recorded in the row.
    Survived,
}

/// One (cell, plan, seed) trial of the campaign.
///
/// Owns its strings (rather than borrowing the plan catalog's `'static`
/// names) so rows journaled by [`run_chaos_campaign_journaled`] can be
/// deserialized on resume; `String` and `&str` hash identically, so the
/// report digest is unaffected.
#[derive(Clone, Debug, Hash, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosRow {
    /// Cell display label.
    pub cell: String,
    /// Plan name.
    pub plan: String,
    /// Plan classification relative to this cell.
    pub class: PlanClass,
    /// Trial seed.
    pub seed: u64,
    /// Injection evidence: network injections, crashes beyond `t`, and
    /// scheduled FD perturbations that could fire.
    pub injected: u64,
    /// UDC verdict of the unperturbed trial at the same seed.
    pub baseline_verdict: String,
    /// UDC verdict of the perturbed trial.
    pub verdict: String,
    /// Every alarm raised, in checker order (structural, FD-class,
    /// fault-bound, spec verdict).
    pub detections: Vec<String>,
    /// Row classification.
    pub outcome: RowOutcome,
    /// Tick of the structural witness, when the checker exposes one
    /// (R3 duplication does; used for detection-latency reporting).
    pub detection_tick: Option<Time>,
}

fn simulate(
    cell: &CellSpec,
    network: &FaultPlan,
    fd: Option<FdMutation>,
    extra_crashes: usize,
    seed: u64,
) -> (SimOutcome<CoordMsg>, &'static str) {
    let channel = match cell.drop_prob {
        None => ChannelKind::reliable(),
        Some(p) => ChannelKind::fair_lossy(p),
    };
    let config = SimConfig::new(cell.n)
        .channel(channel)
        .crashes(CrashPlan::Random {
            max_failures: cell.t + extra_crashes,
            latest: cell.horizon / 4,
        })
        .horizon(cell.horizon)
        .seed(seed)
        .faults(network.clone());
    let workload = Workload::periodic(cell.n, 9, cell.horizon / 6);
    let base = make_oracle(cell);
    let mut oracle: Box<dyn FdOracle> = match fd {
        None => base,
        Some(FdMutation::FalseSuspect { at }) => {
            Box::new(FalseSuspector::new(base, ProcessId::new(0), at))
        }
        Some(FdMutation::Suppress) => {
            Box::new(SuspicionSuppressor::new(base, ProcessId::new(cell.n - 1)))
        }
        Some(FdMutation::InflateMinFaulty { at }) => Box::new(MinFaultyInflater::new(base, at)),
    };
    let out = match cell.protocol {
        ProtocolChoice::Reliable => {
            run_protocol(&config, |_| ReliableUdc::new(), oracle.as_mut(), &workload)
        }
        ProtocolChoice::StrongFd => {
            run_protocol(&config, |_| StrongFdUdc::new(), oracle.as_mut(), &workload)
        }
        ProtocolChoice::Generalized => run_protocol(
            &config,
            |_| GeneralizedUdc::new(cell.t),
            oracle.as_mut(),
            &workload,
        ),
    };
    let verdict = match check_udc(&out.run, &workload.actions()) {
        Verdict::Satisfied => "satisfied",
        Verdict::Violated(_) if out.quiescent => "violated-permanent",
        Verdict::Violated(_) => "unsatisfied-pending",
    };
    (out, verdict)
}

fn fd_injection_evidence(fd: Option<FdMutation>, out: &SimOutcome<CoordMsg>, n: usize) -> u64 {
    match fd {
        None => 0,
        // The suppressor only has an observable effect when its target
        // actually crashed in this trial; a vacuous run is recorded as 0.
        Some(FdMutation::Suppress) => {
            u64::from(out.truth.crash_time(ProcessId::new(n - 1)).is_some())
        }
        // One-shot perturbations fire at the first qualifying poll, which
        // periodic FD polling guarantees before the horizon.
        Some(_) => 1,
    }
}

/// Runs one (cell, plan, seed) trial: the unperturbed baseline, the
/// perturbed run, and the full checker battery over the result.
#[must_use]
pub fn run_chaos_trial(label: &str, cell: &CellSpec, plan: &ChaosPlan, seed: u64) -> ChaosRow {
    let class = plan.class_for(cell);
    let (_, baseline_verdict) = simulate(cell, &FaultPlan::none(), None, 0, seed);
    let (out, verdict) = simulate(cell, &plan.network, plan.fd, plan.extra_crashes, seed);

    let mut detections = Vec::new();
    let mut detection_tick = None;
    if let Err(e) = out.run.check_conditions(FAIRNESS_THRESHOLD) {
        if let ModelError::ReceiveWithoutSend { time, .. } = &e {
            detection_tick = Some(*time);
        }
        detections.push(format!("structural: {e}"));
    }
    for prop in claimed_properties(cell.fd) {
        if let Err(v) = check_fd_property(&out.run, *prop) {
            detections.push(format!("fd: {v}"));
        }
    }
    let crashes = out.truth.faulty().len();
    if crashes > cell.t {
        detections.push(format!(
            "fault-bound: {crashes} crashes exceed the context bound t = {}",
            cell.t
        ));
    }
    if verdict != baseline_verdict {
        // A flip to a *safety* violation is always evidence. A flip to a
        // mere stall ("unsatisfied-pending") is evidence only against an
        // out-of-model plan: legal extra loss on an already-lossy channel
        // may push quiescence past the finite horizon without violating
        // anything — R5 fairness only promises delivery in the limit —
        // so for in-model plans a stall is the expected finite-horizon
        // artifact, not an alarm.
        if verdict == "violated-permanent" || class == PlanClass::OutOfModel {
            detections.push(format!(
                "spec: verdict changed ({baseline_verdict} -> {verdict})"
            ));
        }
    }

    let injected = out.faults.total()
        + crashes.saturating_sub(cell.t) as u64
        + fd_injection_evidence(plan.fd, &out, cell.n);
    let outcome = match (class, detections.is_empty()) {
        (PlanClass::InModel, true) => RowOutcome::Clean,
        (PlanClass::InModel, false) => RowOutcome::FalseAlarm,
        (PlanClass::OutOfModel, true) => RowOutcome::Survived,
        (PlanClass::OutOfModel, false) => RowOutcome::Detected,
    };
    ChaosRow {
        cell: label.to_string(),
        plan: plan.name.to_string(),
        class,
        seed,
        injected,
        baseline_verdict: baseline_verdict.to_string(),
        verdict: verdict.to_string(),
        detections,
        outcome,
        detection_tick,
    }
}

/// The campaign's detection matrix, with a platform-pinned digest over
/// the serialized rows: identical cells, plans, and seeds reproduce an
/// identical digest.
#[derive(Clone, Debug, Serialize)]
pub struct ChaosReport {
    /// R5 threshold the structural checks ran at.
    pub fairness_threshold: usize,
    /// In-model rows with no alarm and an unchanged verdict.
    pub clean: usize,
    /// In-model rows that raised an alarm — must be zero.
    pub false_alarms: usize,
    /// Out-of-model rows caught by a checker.
    pub detected: usize,
    /// Out-of-model rows absorbed by the protocol (with evidence).
    pub survived: usize,
    /// Every trial row.
    pub rows: Vec<ChaosRow>,
    /// 64-bit FNV-1a digest (hex) of the serialized rows.
    pub digest: String,
}

impl ChaosReport {
    fn tally(rows: Vec<ChaosRow>) -> Self {
        let count = |o: RowOutcome| rows.iter().filter(|r| r.outcome == o).count();
        let digest = format!("{:016x}", stable_hash(&rows));
        ChaosReport {
            fairness_threshold: FAIRNESS_THRESHOLD,
            clean: count(RowOutcome::Clean),
            false_alarms: count(RowOutcome::FalseAlarm),
            detected: count(RowOutcome::Detected),
            survived: count(RowOutcome::Survived),
            rows,
            digest,
        }
    }

    /// No in-model plan raised any alarm.
    #[must_use]
    pub fn zero_false_alarms(&self) -> bool {
        self.false_alarms == 0
    }

    /// Every out-of-model plan kind was detected at least once across the
    /// campaign (the mutation-kill criterion; surviving *rows* are fine —
    /// a plan kind that is *never* caught means a checker is dead).
    #[must_use]
    pub fn all_mutants_killed(&self) -> bool {
        let mut killed: BTreeMap<&str, bool> = BTreeMap::new();
        for row in &self.rows {
            if row.class == PlanClass::OutOfModel {
                *killed.entry(row.plan.as_str()).or_insert(false) |=
                    row.outcome == RowOutcome::Detected;
            }
        }
        !killed.is_empty() && killed.values().all(|&d| d)
    }

    /// Rows that violate the campaign contract, for diagnostics.
    #[must_use]
    pub fn offending_rows(&self) -> Vec<&ChaosRow> {
        self.rows
            .iter()
            .filter(|r| r.outcome == RowOutcome::FalseAlarm)
            .collect()
    }
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rows: {} clean, {} false alarms, {} detected, {} survived (digest {})",
            self.rows.len(),
            self.clean,
            self.false_alarms,
            self.detected,
            self.survived,
            self.digest
        )
    }
}

/// Sweeps `plans` (where applicable) across `cells` at each seed. Trials
/// are independent and fully seed-determined, so they run in parallel;
/// the row order — cells outer, plans middle, seeds inner — is identical
/// either way.
#[must_use]
pub fn run_chaos_campaign(
    cells: &[(String, CellSpec)],
    plans: &[ChaosPlan],
    seeds: &[u64],
) -> ChaosReport {
    let mut work = Vec::new();
    for (label, cell) in cells {
        for plan in plans.iter().filter(|p| p.applies_to(cell)) {
            for &seed in seeds {
                work.push((label.clone(), cell.clone(), plan.clone(), seed));
            }
        }
    }
    let rows = ktudc_par::par_map(work, |(label, cell, plan, seed)| {
        run_chaos_trial(&label, &cell, &plan, seed)
    });
    ChaosReport::tally(rows)
}

/// What a journaled campaign replayed versus recomputed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosResumeStats {
    /// Trials in the campaign's work list.
    pub total_trials: usize,
    /// Trials whose rows were replayed from the journal.
    pub resumed_trials: usize,
    /// Trials computed (and journaled) by this invocation.
    pub computed_trials: usize,
    /// Valid journal entries found at open (including the header).
    pub replayed_entries: u64,
    /// Torn/corrupt bytes the journal layer truncated at open.
    pub truncated_bytes: u64,
    /// Whether the journal already existed (i.e. this was a resume).
    pub resumed: bool,
}

/// One journal entry of a checkpointed campaign, JSON-encoded.
#[derive(Clone, Debug, Serialize, Deserialize)]
enum ChaosJournalEntry {
    /// First entry: pins the exact work list (cells, plans, seeds, order).
    Header {
        /// [`campaign_fingerprint`] of the work list.
        fingerprint: u64,
    },
    /// One completed trial, by work-list index.
    Trial {
        /// Index into the deterministic work list.
        index: usize,
        /// The finished row, exactly as a fresh run would produce it.
        row: ChaosRow,
    },
}

/// Stable fingerprint of a campaign's work list: every (label, cell,
/// plan name, seed) in order. Two campaigns share a journal iff they
/// agree on this.
fn campaign_fingerprint(work: &[(String, CellSpec, ChaosPlan, u64)]) -> Result<u64, String> {
    let mut items: Vec<(String, String, String, u64)> = Vec::with_capacity(work.len());
    for (label, cell, plan, seed) in work {
        let cell_json =
            serde_json::to_string(cell).map_err(|e| format!("chaos journal: encode cell: {e}"))?;
        items.push((label.clone(), cell_json, plan.name.to_string(), *seed));
    }
    Ok(stable_hash(&items))
}

/// [`run_chaos_campaign`], checkpointed: every completed trial is
/// appended to the journal at `path`, so a killed campaign resumes from
/// the last durable trial and — because trials are fully
/// seed-determined — produces a report digest **identical** to an
/// uninterrupted run's, whatever mixture of replay and recomputation
/// built it.
///
/// # Errors
///
/// Returns I/O failures, a journal written for a different campaign
/// (cells/plans/seeds mismatch), or an unparseable (version-skewed)
/// journal.
pub fn run_chaos_campaign_journaled(
    cells: &[(String, CellSpec)],
    plans: &[ChaosPlan],
    seeds: &[u64],
    path: &Path,
    sync: ktudc_store::SyncPolicy,
) -> Result<(ChaosReport, ChaosResumeStats), String> {
    let mut work = Vec::new();
    for (label, cell) in cells {
        for plan in plans.iter().filter(|p| p.applies_to(cell)) {
            for &seed in seeds {
                work.push((label.clone(), cell.clone(), plan.clone(), seed));
            }
        }
    }
    let fingerprint = campaign_fingerprint(&work)?;

    let (mut journal, recovered) = ktudc_store::Journal::recover(path, sync)
        .map_err(|e| format!("chaos journal {}: {e}", path.display()))?;
    let mut stats = ChaosResumeStats {
        total_trials: work.len(),
        replayed_entries: recovered.entries.len() as u64,
        truncated_bytes: recovered.truncated_bytes,
        resumed: recovered.existed && !recovered.entries.is_empty(),
        ..ChaosResumeStats::default()
    };

    let mut done: BTreeMap<usize, ChaosRow> = BTreeMap::new();
    for (i, bytes) in recovered.entries.iter().enumerate() {
        let entry: ChaosJournalEntry = std::str::from_utf8(bytes)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str(s).map_err(|e| e.to_string()))
            .map_err(|e| {
                format!(
                    "chaos journal {}: entry {i} does not parse ({e}); \
                     the journal was written by an incompatible version",
                    path.display()
                )
            })?;
        match (i, entry) {
            (0, ChaosJournalEntry::Header { fingerprint: f }) if f == fingerprint => {}
            (0, ChaosJournalEntry::Header { .. }) => {
                return Err(format!(
                    "chaos journal {} was written for a different campaign; \
                     refusing to merge (delete it to start over)",
                    path.display()
                ));
            }
            (0, ChaosJournalEntry::Trial { .. }) => {
                return Err(format!(
                    "chaos journal {}: first entry is not a header",
                    path.display()
                ));
            }
            (_, ChaosJournalEntry::Trial { index, row }) if index < work.len() => {
                done.insert(index, row);
            }
            (_, ChaosJournalEntry::Trial { index, .. }) => {
                return Err(format!(
                    "chaos journal {}: trial index {index} out of range",
                    path.display()
                ));
            }
            (_, ChaosJournalEntry::Header { .. }) => {
                return Err(format!(
                    "chaos journal {}: duplicate header at entry {i}",
                    path.display()
                ));
            }
        }
    }
    if recovered.entries.is_empty() {
        let bytes = serde_json::to_string(&ChaosJournalEntry::Header { fingerprint })
            .map_err(|e| format!("chaos journal encode: {e}"))?;
        journal
            .append(bytes.as_bytes())
            .map_err(|e| format!("chaos journal append: {e}"))?;
    }

    let mut rows: Vec<Option<ChaosRow>> = Vec::with_capacity(work.len());
    let mut todo = Vec::new();
    for (index, item) in work.into_iter().enumerate() {
        match done.remove(&index) {
            Some(row) => {
                stats.resumed_trials += 1;
                rows.push(Some(row));
            }
            None => {
                rows.push(None);
                todo.push((index, item));
            }
        }
    }

    // Compute missing trials in small parallel chunks, journaling after
    // each chunk; chunking affects only the checkpoint cadence, never the
    // report (assembly is by index).
    let chunk = ktudc_par::thread_count().max(1) * 2;
    for batch in todo.chunks(chunk) {
        let computed: Vec<(usize, ChaosRow)> =
            ktudc_par::par_map(batch.to_vec(), |(index, (label, cell, plan, seed))| {
                (index, run_chaos_trial(&label, &cell, &plan, seed))
            });
        for (index, row) in computed {
            let bytes = serde_json::to_string(&ChaosJournalEntry::Trial {
                index,
                row: row.clone(),
            })
            .map_err(|e| format!("chaos journal encode: {e}"))?;
            journal
                .append(bytes.as_bytes())
                .map_err(|e| format!("chaos journal append: {e}"))?;
            stats.computed_trials += 1;
            rows[index] = Some(row);
        }
    }
    journal
        .sync()
        .map_err(|e| format!("chaos journal {}: sync: {e}", path.display()))?;

    let rows: Vec<ChaosRow> = rows
        .into_iter()
        .map(|r| r.expect("every trial index resolved"))
        .collect();
    Ok((ChaosReport::tally(rows), stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cells() -> Vec<(String, CellSpec)> {
        vec![
            (
                "reliable / no FD / t=1".into(),
                CellSpec::new(4, 1, None, FdChoice::None, ProtocolChoice::Reliable).horizon(600),
            ),
            (
                "lossy / t-useful / t=2".into(),
                CellSpec::new(
                    4,
                    2,
                    Some(0.25),
                    FdChoice::TUseful,
                    ProtocolChoice::Generalized,
                )
                .horizon(600),
            ),
            (
                "lossy / perfect / t=3".into(),
                CellSpec::new(
                    4,
                    3,
                    Some(0.25),
                    FdChoice::Perfect,
                    ProtocolChoice::StrongFd,
                )
                .horizon(600),
            ),
        ]
    }

    #[test]
    fn classification_depends_on_the_cell() {
        let reliable = CellSpec::new(4, 1, None, FdChoice::None, ProtocolChoice::Reliable);
        let lossy = CellSpec::new(4, 3, Some(0.3), FdChoice::Strong, ProtocolChoice::StrongFd);
        let spikes = ChaosPlan::network("s", FaultPlan::none().delay_spikes(40, 8, 5));
        let burst = ChaosPlan::network("b", FaultPlan::none().burst_loss(30, 3));
        let dup = ChaosPlan::network("d", FaultPlan::none().duplicate(0.2));
        let sever = ChaosPlan::network("x", FaultPlan::none().sever_link(0, 1, 1));
        assert_eq!(spikes.class_for(&reliable), PlanClass::InModel);
        assert_eq!(spikes.class_for(&lossy), PlanClass::InModel);
        // Destroying copies breaks Prop 2.4's reliable-channel assumption
        // but is business as usual on a lossy channel.
        assert_eq!(burst.class_for(&reliable), PlanClass::OutOfModel);
        assert_eq!(burst.class_for(&lossy), PlanClass::InModel);
        assert_eq!(dup.class_for(&lossy), PlanClass::OutOfModel);
        assert_eq!(sever.class_for(&lossy), PlanClass::OutOfModel);
        // FD mutations only target cells claiming the broken property.
        let inflate = ChaosPlan::fd_mutation("i", FdMutation::InflateMinFaulty { at: 40 });
        assert!(!inflate.applies_to(&lossy));
        assert!(inflate.applies_to(&CellSpec::new(
            4,
            2,
            Some(0.25),
            FdChoice::TUseful,
            ProtocolChoice::Generalized
        )));
    }

    #[test]
    fn campaign_is_clean_and_kills_every_mutant() {
        let report = run_chaos_campaign(&small_cells(), &standard_plans(4), &[1, 2, 5]);
        assert!(
            report.zero_false_alarms(),
            "in-model plans raised alarms: {:#?}",
            report.offending_rows()
        );
        assert!(
            report.all_mutants_killed(),
            "some plan kind was never detected:\n{report}\n{:#?}",
            report.rows
        );
        assert!(report.clean > 0, "campaign exercised no in-model rows");
        assert!(report.detected > 0, "campaign detected nothing");
    }

    #[test]
    fn journaled_campaign_matches_direct_and_resumes_identically() {
        let mut path = std::env::temp_dir();
        path.push(format!("ktudc-chaos-journal-test-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let cells = small_cells();
        let plans = vec![
            ChaosPlan::network("delay-spikes", FaultPlan::none().delay_spikes(40, 8, 5)),
            ChaosPlan::network("duplication", FaultPlan::none().duplicate(0.25)),
        ];
        let seeds = [7, 8];
        let direct = run_chaos_campaign(&cells, &plans, &seeds);

        let (fresh, s1) = run_chaos_campaign_journaled(
            &cells,
            &plans,
            &seeds,
            &path,
            ktudc_store::SyncPolicy::Never,
        )
        .unwrap();
        assert_eq!(fresh.digest, direct.digest, "fresh journaled run drifted");
        assert!(!s1.resumed);
        assert_eq!(s1.computed_trials, s1.total_trials);

        // Simulate a kill mid-campaign: tear bytes off the journal tail,
        // losing the last trial(s); the resume must recompute exactly
        // those and land on the identical digest.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - bytes.len() / 4]).unwrap();
        let (resumed, s2) = run_chaos_campaign_journaled(
            &cells,
            &plans,
            &seeds,
            &path,
            ktudc_store::SyncPolicy::Never,
        )
        .unwrap();
        assert_eq!(resumed.digest, direct.digest, "resumed run drifted");
        assert!(s2.resumed);
        assert!(s2.resumed_trials > 0, "nothing was replayed");
        assert!(s2.computed_trials > 0, "nothing was recomputed");

        // A different campaign must be refused, not merged.
        let err = run_chaos_campaign_journaled(
            &cells,
            &plans,
            &[99],
            &path,
            ktudc_store::SyncPolicy::Never,
        )
        .unwrap_err();
        assert!(err.contains("different campaign"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn campaign_report_is_deterministic() {
        let cells = small_cells();
        let plans = vec![
            ChaosPlan::network("delay-spikes", FaultPlan::none().delay_spikes(40, 8, 5)),
            ChaosPlan::network("duplication", FaultPlan::none().duplicate(0.25)),
        ];
        let a = run_chaos_campaign(&cells, &plans, &[7, 8]);
        let b = run_chaos_campaign(&cells, &plans, &[7, 8]);
        assert_eq!(a.digest, b.digest);
        assert_eq!(
            serde_json::to_string(&a.rows).unwrap(),
            serde_json::to_string(&b.rows).unwrap()
        );
    }
}
