//! Checkpointed exhaustive exploration — kill it, restart it, get the
//! same answer.
//!
//! [`explore`](crate::explore) fans the first scheduling slots out into
//! independent subtrees whose level-order concatenation is the sequential
//! depth-first run order, for *any* fan-out width. That makes the subtree
//! the natural checkpoint unit: this module journals each completed
//! subtree's runs to a [`ktudc_store::Journal`], so a SIGKILL'd
//! exploration resumes from the last durable subtree instead of tick
//! zero.
//!
//! # Bit-identical resumption
//!
//! The whole point is machine-checkable recovery: a resumed exploration
//! must produce the **same** [`ExploreResult`] — run for run, byte for
//! byte, hence the same [`system_digest`](crate::system_digest) — as an
//! uninterrupted one. Three choices make that hold:
//!
//! * the fan-out width is a fixed constant ([`CHECKPOINT_SUBTREE_TARGET`])
//!   recorded in the journal header, never the machine's thread count, so
//!   the subtree split replays identically anywhere;
//! * the journal header pins the full [`ExploreSpec`]; resuming against a
//!   journal written for a different spec is an error, not a silent
//!   garbage merge;
//! * assembly is by subtree index with [`explore`](crate::explore)'s
//!   exact run-cap semantics, so completion order (and how many crashes
//!   interrupted the job) is invisible in the output.
//!
//! Torn final entries — the expected artifact of a kill mid-append — are
//! truncated off by the journal layer; the affected subtree is simply
//! recomputed.

use crate::ckpt_codec;
use crate::explorer::{
    assemble_subtree_runs, expand_frontier, subtree_runs, symmetry_plan, ExploreResult, Frontier,
    ReductionStats, FRONTIER_TARGET,
};
use crate::wire::{ExploreSpec, WireMsg};
use ktudc_model::budget::{AbortReason, Budget};
use ktudc_model::{Run, System};
use ktudc_store::{Journal, SyncPolicy};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::Path;

/// The breadth-first fan-out width of checkpointed explorations — the
/// explorer's own, recorded in every journal header.
///
/// Deliberately NOT derived from the thread count: the subtree split must
/// replay identically on any machine that resumes the journal.
pub const CHECKPOINT_SUBTREE_TARGET: usize = FRONTIER_TARGET;

/// One journal entry of a checkpointed exploration, JSON-encoded.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
enum JournalEntry {
    /// First entry of every journal: pins the job and the subtree split.
    Header {
        spec: ExploreSpec,
        subtree_target: usize,
    },
    /// A completed subtree: its frontier index and its capped DFS output.
    Subtree {
        index: usize,
        runs: Vec<Run<WireMsg>>,
        complete: bool,
    },
    /// The degenerate all-leaves case (the whole space fit inside the
    /// frontier): the final assembled result in one entry.
    Leaves {
        runs: Vec<Run<WireMsg>>,
        complete: bool,
    },
}

/// What a checkpointed exploration did: how much was replayed from the
/// journal versus computed fresh.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointStats {
    /// Independent subtrees the exploration splits into.
    pub total_subtrees: usize,
    /// Subtrees whose runs were replayed from the journal.
    pub resumed_subtrees: usize,
    /// Subtrees computed (and journaled) by this invocation.
    pub computed_subtrees: usize,
    /// Valid journal entries found at open (including the header).
    pub replayed_entries: u64,
    /// Torn/corrupt bytes the journal layer truncated at open.
    pub truncated_bytes: u64,
    /// Whether the journal already existed (i.e. this was a resume).
    pub resumed: bool,
}

/// The outcome of a *budgeted* checkpointed exploration
/// ([`explore_spec_checkpointed_budgeted`]).
#[derive(Debug)]
pub enum CheckpointOutcome {
    /// The exploration ran to its natural end.
    Done(ExploreResult<WireMsg>),
    /// The budget tripped. The journal holds only subtrees whose DFS
    /// finished *before* the trip, so resuming against it with a fresh
    /// budget reproduces the uninterrupted result bit-identically.
    Aborted {
        /// Why the budget tripped.
        reason: AbortReason,
        /// Runs assembled from the subtrees available at the trip
        /// (journaled or in-memory); `None` when the trip preceded the
        /// first full run. When present, always `complete == false`.
        partial: Option<ExploreResult<WireMsg>>,
        /// Subtrees durable in the journal — the resume position.
        subtrees_done: usize,
    },
}

/// Runs the exploration a spec describes, checkpointing completed
/// subtrees to the journal at `path` so a killed job can resume. The
/// result is bit-identical to [`explore_spec`](crate::explore_spec) for
/// the same spec, whatever mixture of replay and fresh computation
/// produced it.
///
/// `sync` sets the fsync discipline of the journal
/// ([`SyncPolicy::Always`] for crash tests, [`SyncPolicy::EveryN`] to
/// amortize when losing a few recomputable subtrees is acceptable).
///
/// # Errors
///
/// Returns the spec-validation error, any I/O failure, a journal written
/// for a *different* spec, or an unparseable (version-skewed) journal.
pub fn explore_spec_checkpointed(
    spec: &ExploreSpec,
    path: &Path,
    sync: SyncPolicy,
) -> Result<(ExploreResult<WireMsg>, CheckpointStats), String> {
    match explore_spec_checkpointed_budgeted(spec, path, sync, None)? {
        (CheckpointOutcome::Done(result), stats) => Ok((result, stats)),
        (CheckpointOutcome::Aborted { .. }, _) => {
            unreachable!("an unbudgeted exploration cannot abort")
        }
    }
}

/// [`explore_spec_checkpointed`] under an optional [`Budget`].
///
/// When the budget trips, the walk stops cooperatively and returns
/// [`CheckpointOutcome::Aborted`] with the partial system and the resume
/// position. The abort rule that keeps resumption sound: a subtree is
/// journaled only if the budget had not tripped by the time its batch
/// finished — a budget-truncated subtree looks exactly like a run-cap-
/// truncated one (`complete == false`) and journaling it would silently
/// poison every later resume, so whole batches in flight at the trip are
/// kept in-memory (for the partial result) but *not* journaled, and a
/// resume recomputes them.
///
/// # Errors
///
/// Same failure modes as [`explore_spec_checkpointed`].
pub fn explore_spec_checkpointed_budgeted(
    spec: &ExploreSpec,
    path: &Path,
    sync: SyncPolicy,
    budget: Option<&Budget>,
) -> Result<(CheckpointOutcome, CheckpointStats), String> {
    let config = spec.to_config()?;
    let (mut journal, recovered) = Journal::recover(path, sync)
        .map_err(|e| format!("checkpoint journal {}: {e}", path.display()))?;

    let mut stats = CheckpointStats {
        replayed_entries: recovered.entries.len() as u64,
        truncated_bytes: recovered.truncated_bytes,
        resumed: recovered.existed && !recovered.entries.is_empty(),
        ..CheckpointStats::default()
    };

    // Replay the journal: header first, then completed subtrees.
    let mut subtree_target = CHECKPOINT_SUBTREE_TARGET;
    let mut done: HashMap<usize, (Vec<Run<WireMsg>>, bool)> = HashMap::new();
    let mut leaves: Option<(Vec<Run<WireMsg>>, bool)> = None;
    for (i, bytes) in recovered.entries.iter().enumerate() {
        let entry: JournalEntry = decode_entry(bytes).map_err(|e| {
            format!(
                "checkpoint journal {}: entry {i} does not parse ({e}); \
                     the journal was written by an incompatible version",
                path.display()
            )
        })?;
        match (i, entry) {
            (
                0,
                JournalEntry::Header {
                    spec: pinned,
                    subtree_target: target,
                },
            ) => {
                if pinned != *spec {
                    return Err(format!(
                        "checkpoint journal {} was written for a different exploration; \
                         refusing to merge (delete it to start over)",
                        path.display()
                    ));
                }
                subtree_target = target;
            }
            (0, _) => {
                return Err(format!(
                    "checkpoint journal {}: first entry is not a header",
                    path.display()
                ));
            }
            (
                _,
                JournalEntry::Subtree {
                    index,
                    runs,
                    complete,
                },
            ) => {
                done.insert(index, (runs, complete));
            }
            (_, JournalEntry::Leaves { runs, complete }) => {
                leaves = Some((runs, complete));
            }
            (_, JournalEntry::Header { .. }) => {
                return Err(format!(
                    "checkpoint journal {}: duplicate header at entry {i}",
                    path.display()
                ));
            }
        }
    }
    if recovered.entries.is_empty() {
        append(
            &mut journal,
            &JournalEntry::Header {
                spec: spec.clone(),
                subtree_target,
            },
        )?;
    }

    // Journal entries hold each subtree's own capped output: no cap sharing.
    let plan = symmetry_plan(&config);
    let plan = plan.as_ref();
    let mut reduction = ReductionStats::default();
    let frontier: Frontier<WireMsg, _> = expand_frontier(
        &config,
        &|p| spec.protocol.instantiate(p),
        subtree_target,
        plan,
        &mut reduction,
    );

    if frontier.t > config.horizon {
        // Whole space fit inside the frontier: every root is a one-run
        // subtree, journaled together as one terminal entry.
        stats.total_subtrees = 1;
        if let Some((runs, complete)) = leaves {
            stats.resumed_subtrees = 1;
            return Ok((CheckpointOutcome::Done(explored(runs, complete)), stats));
        }
        // Leaf polls read the clock only every `POLL_STRIDE` steps.
        let computed = if budget.is_some_and(|b| b.check().is_err()) {
            Vec::new()
        } else {
            subtree_runs(&config, plan, frontier, budget, false, &mut reduction)
        };
        if let Some(reason) = budget.and_then(Budget::tripped) {
            return Ok((aborted(reason, computed, config.max_runs, 0), stats));
        }
        let (runs, complete) = assemble_subtree_runs(computed, config.max_runs);
        journal
            .append(&ckpt_codec::encode_leaves(&runs, complete))
            .map_err(|e| format!("checkpoint append: {e}"))?;
        stats.computed_subtrees = 1;
        return Ok((CheckpointOutcome::Done(explored(runs, complete)), stats));
    }

    let Frontier { level, t, p_idx } = frontier;
    stats.total_subtrees = level.len();

    // Split the frontier into already-journaled subtrees and fresh work.
    let mut results: Vec<Option<(Vec<Run<WireMsg>>, bool)>> = Vec::with_capacity(level.len());
    let mut todo = Vec::new();
    for (index, state) in level.into_iter().enumerate() {
        match done.remove(&index) {
            Some(replayed) => {
                stats.resumed_subtrees += 1;
                results.push(Some(replayed));
            }
            None => {
                results.push(None);
                todo.push((index, state));
            }
        }
    }

    // Compute missing subtrees in small parallel chunks, journaling after
    // each chunk so a kill between chunks loses at most one chunk of
    // work. Chunk size tracks the worker count; it affects only the
    // checkpoint cadence, never the output (assembly is by index).
    // At least 8 per chunk so group commit amortizes even on one core;
    // a kill between syncs costs at most one chunk of recomputation.
    let chunk = (ktudc_par::thread_count().max(1) * 2).max(8);
    let mut todo = todo.into_iter().peekable();
    while todo.peek().is_some() {
        if budget.is_some_and(|b| b.check().is_err()) {
            break;
        }
        let (indices, level): (Vec<usize>, Vec<_>) = todo.by_ref().take(chunk).unzip();
        let batch = Frontier { level, t, p_idx };
        let computed = subtree_runs(&config, plan, batch, budget, false, &mut reduction);
        // If the budget tripped during this batch, at least one of its
        // subtrees was abort-truncated — and an abort-truncated subtree is
        // indistinguishable from a legitimately run-cap-truncated one
        // (`complete == false` either way). Journaling it would poison
        // every later resume, so the whole batch stays in-memory (it still
        // feeds the partial result) and a resume recomputes it.
        let tripped = budget.is_some_and(|b| b.tripped().is_some());
        if !tripped {
            // Group commit: one framed write and at most one fsync for
            // the whole chunk, instead of an fsync per subtree. Durability
            // granularity is unchanged (frames validate individually; a
            // torn batch recovers its prefix and the rest is recomputed).
            let entries: Vec<Vec<u8>> = indices
                .iter()
                .zip(&computed)
                .map(|(&index, (runs, complete))| {
                    ckpt_codec::encode_subtree(index, runs, *complete)
                })
                .collect();
            journal
                .append_batch(&entries)
                .map_err(|e| format!("checkpoint append: {e}"))?;
            stats.computed_subtrees += computed.len();
        }
        for (index, runs_complete) in indices.into_iter().zip(computed) {
            results[index] = Some(runs_complete);
        }
        if tripped {
            break;
        }
    }
    journal
        .sync()
        .map_err(|e| format!("checkpoint journal {}: sync: {e}", path.display()))?;

    if let Some(reason) = budget.and_then(Budget::tripped) {
        let subtrees_done = stats.resumed_subtrees + stats.computed_subtrees;
        let available = results.into_iter().flatten().collect();
        return Ok((
            aborted(reason, available, config.max_runs, subtrees_done),
            stats,
        ));
    }

    let ordered: Vec<(Vec<Run<WireMsg>>, bool)> = results
        .into_iter()
        .map(|r| r.expect("every subtree index resolved"))
        .collect();
    let (runs, complete) = assemble_subtree_runs(ordered, config.max_runs);
    Ok((CheckpointOutcome::Done(explored(runs, complete)), stats))
}

fn explored(runs: Vec<Run<WireMsg>>, complete: bool) -> ExploreResult<WireMsg> {
    ExploreResult {
        system: System::new(runs),
        complete,
    }
}

/// The outcome of a tripped budget: the subtrees available at the trip,
/// assembled in frontier order into an incomplete partial system.
fn aborted(
    reason: AbortReason,
    available: Vec<(Vec<Run<WireMsg>>, bool)>,
    max_runs: usize,
    subtrees_done: usize,
) -> CheckpointOutcome {
    let (runs, _) = assemble_subtree_runs(available, max_runs);
    CheckpointOutcome::Aborted {
        reason,
        partial: (!runs.is_empty()).then(|| explored(runs, false)),
        subtrees_done,
    }
}

/// Resumes (or, if already finished, replays) the checkpointed
/// exploration journaled at `path`, reading the pinned [`ExploreSpec`]
/// from the journal header instead of requiring the caller to restate
/// it. This is what a `--resume <checkpoint>` CLI does.
///
/// # Errors
///
/// Returns an error when `path` does not exist (a missing journal is
/// *not* silently started fresh — there is no spec to start from), has
/// no parseable header, or when [`explore_spec_checkpointed`] fails.
pub fn resume_checkpoint(
    path: &Path,
    sync: SyncPolicy,
) -> Result<(ExploreSpec, ExploreResult<WireMsg>, CheckpointStats), String> {
    if !path.exists() {
        return Err(format!(
            "no checkpoint journal at {}; nothing to resume",
            path.display()
        ));
    }
    let header = {
        let (journal, recovered) = Journal::recover(path, SyncPolicy::Never)
            .map_err(|e| format!("checkpoint journal {}: {e}", path.display()))?;
        drop(journal);
        let Some(first) = recovered.entries.first() else {
            return Err(format!(
                "checkpoint journal {} is empty; nothing to resume",
                path.display()
            ));
        };
        std::str::from_utf8(first)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str::<JournalEntry>(s).map_err(|e| e.to_string()))
            .map_err(|e| {
                format!(
                    "checkpoint journal {}: header does not parse ({e})",
                    path.display()
                )
            })?
    };
    let JournalEntry::Header { spec, .. } = header else {
        return Err(format!(
            "checkpoint journal {}: first entry is not a header",
            path.display()
        ));
    };
    let (result, stats) = explore_spec_checkpointed(&spec, path, sync)?;
    Ok((spec, result, stats))
}

/// Serializes and appends one entry (the JSON form — used for the
/// header; run-carrying entries go through the binary codec).
fn append(journal: &mut Journal, entry: &JournalEntry) -> Result<(), String> {
    let bytes = serde_json::to_string(entry)
        .map_err(|e| format!("checkpoint encode: {e}"))?
        .into_bytes();
    journal
        .append(&bytes)
        .map_err(|e| format!("checkpoint append: {e}"))
}

/// Decodes one journal entry: binary (tagged) entries through the
/// compact codec, everything else — the header, and whole journals
/// written before the codec existed — as JSON.
fn decode_entry(bytes: &[u8]) -> Result<JournalEntry, String> {
    if ckpt_codec::is_binary(bytes) {
        return Ok(match ckpt_codec::decode(bytes)? {
            ckpt_codec::RunsEntry::Subtree {
                index,
                runs,
                complete,
            } => JournalEntry::Subtree {
                index,
                runs,
                complete,
            },
            ckpt_codec::RunsEntry::Leaves { runs, complete } => {
                JournalEntry::Leaves { runs, complete }
            }
        });
    }
    std::str::from_utf8(bytes)
        .map_err(|e| e.to_string())
        .and_then(|s| serde_json::from_str(s).map_err(|e| e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{run_explore_spec, system_digest, WireProtocol};
    use std::path::PathBuf;

    struct TempPath(PathBuf);

    impl TempPath {
        fn new(tag: &str) -> Self {
            let mut p = std::env::temp_dir();
            p.push(format!(
                "ktudc-checkpoint-test-{tag}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&p);
            TempPath(p)
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn oneshot_spec() -> ExploreSpec {
        let mut spec = ExploreSpec::new(2, 3);
        spec.max_failures = 1;
        spec.protocol = WireProtocol::OneShot {
            from: 0,
            to: 1,
            msg: 7,
        };
        spec
    }

    #[test]
    fn fresh_checkpointed_run_matches_direct_exploration() {
        let tmp = TempPath::new("fresh");
        let spec = oneshot_spec();
        let (result, stats) = explore_spec_checkpointed(&spec, &tmp.0, SyncPolicy::Never).unwrap();
        let direct = run_explore_spec(&spec).unwrap();
        assert_eq!(system_digest(&result.system), direct.digest);
        assert_eq!(result.complete, direct.complete);
        assert_eq!(result.system.len(), direct.runs);
        assert!(!stats.resumed);
        assert_eq!(stats.computed_subtrees, stats.total_subtrees);
        assert_eq!(stats.resumed_subtrees, 0);
    }

    #[test]
    fn second_invocation_replays_everything_bit_identically() {
        let tmp = TempPath::new("replay");
        let spec = oneshot_spec();
        let (first, _) = explore_spec_checkpointed(&spec, &tmp.0, SyncPolicy::Never).unwrap();
        let (second, stats) = explore_spec_checkpointed(&spec, &tmp.0, SyncPolicy::Never).unwrap();
        assert!(stats.resumed);
        assert_eq!(stats.computed_subtrees, 0);
        assert_eq!(stats.resumed_subtrees, stats.total_subtrees);
        assert_eq!(first.system.runs(), second.system.runs());
        assert_eq!(system_digest(&first.system), system_digest(&second.system));
    }

    #[test]
    fn torn_tail_resumes_to_the_identical_digest() {
        let tmp = TempPath::new("torn");
        let spec = oneshot_spec();
        let baseline = run_explore_spec(&spec).unwrap();
        explore_spec_checkpointed(&spec, &tmp.0, SyncPolicy::Never).unwrap();

        // Simulate a kill mid-append: tear bytes off the journal tail.
        let bytes = std::fs::read(&tmp.0).unwrap();
        std::fs::write(&tmp.0, &bytes[..bytes.len() - bytes.len() / 3]).unwrap();

        let (resumed, stats) = explore_spec_checkpointed(&spec, &tmp.0, SyncPolicy::Never).unwrap();
        assert!(stats.truncated_bytes > 0 || stats.computed_subtrees > 0);
        assert_eq!(system_digest(&resumed.system), baseline.digest);
        assert_eq!(resumed.complete, baseline.complete);
    }

    #[test]
    fn journal_for_a_different_spec_is_refused() {
        let tmp = TempPath::new("mismatch");
        let spec = oneshot_spec();
        explore_spec_checkpointed(&spec, &tmp.0, SyncPolicy::Never).unwrap();
        let other = ExploreSpec::new(2, 2);
        let err = explore_spec_checkpointed(&other, &tmp.0, SyncPolicy::Never).unwrap_err();
        assert!(err.contains("different exploration"), "{err}");
    }

    #[test]
    fn all_leaves_case_checkpoints_and_replays() {
        // Horizon 1 with 2 idle processes: the space fits inside the
        // frontier, exercising the Leaves path.
        let tmp = TempPath::new("leaves");
        let spec = ExploreSpec::new(2, 1);
        let direct = run_explore_spec(&spec).unwrap();
        let (first, s1) = explore_spec_checkpointed(&spec, &tmp.0, SyncPolicy::Never).unwrap();
        assert_eq!(system_digest(&first.system), direct.digest);
        assert_eq!(s1.computed_subtrees, 1);
        let (second, s2) = explore_spec_checkpointed(&spec, &tmp.0, SyncPolicy::Never).unwrap();
        assert_eq!(system_digest(&second.system), direct.digest);
        assert_eq!(s2.resumed_subtrees, 1);
        assert_eq!(s2.computed_subtrees, 0);
    }

    #[test]
    fn resume_reads_the_spec_from_the_header() {
        let tmp = TempPath::new("resume-header");
        let spec = oneshot_spec();
        let baseline = run_explore_spec(&spec).unwrap();
        explore_spec_checkpointed(&spec, &tmp.0, SyncPolicy::Never).unwrap();

        // Tear the tail so the resume has real work to do.
        let bytes = std::fs::read(&tmp.0).unwrap();
        std::fs::write(&tmp.0, &bytes[..bytes.len() - bytes.len() / 4]).unwrap();

        let (recovered_spec, result, _stats) =
            resume_checkpoint(&tmp.0, SyncPolicy::Never).unwrap();
        assert_eq!(recovered_spec, spec);
        assert_eq!(system_digest(&result.system), baseline.digest);
    }

    #[test]
    fn resume_refuses_missing_and_headerless_journals() {
        let missing = TempPath::new("resume-missing");
        let err = resume_checkpoint(&missing.0, SyncPolicy::Never).unwrap_err();
        assert!(err.contains("nothing to resume"), "{err}");
        // A missing journal must not be created by the failed resume.
        assert!(!missing.0.exists());

        let empty = TempPath::new("resume-empty");
        {
            let _ = ktudc_store::Journal::create(&empty.0, SyncPolicy::Never).unwrap();
        }
        let err = resume_checkpoint(&empty.0, SyncPolicy::Never).unwrap_err();
        assert!(err.contains("nothing to resume"), "{err}");
    }

    #[test]
    fn budget_aborted_checkpoint_resumes_to_the_identical_digest() {
        let tmp = TempPath::new("budget-abort");
        let spec = oneshot_spec();
        let baseline = run_explore_spec(&spec).unwrap();

        // Probe how many polls a full checkpointed walk takes (on a
        // scratch journal), then allow only half: the abort is then
        // guaranteed on any machine, whatever its fan-out.
        let probe = Budget::unlimited();
        {
            let scratch = TempPath::new("budget-abort-probe");
            explore_spec_checkpointed_budgeted(&spec, &scratch.0, SyncPolicy::Never, Some(&probe))
                .unwrap();
        }
        let budget = Budget::unlimited().with_max_steps(probe.steps() / 2);
        let (outcome, _stats) =
            explore_spec_checkpointed_budgeted(&spec, &tmp.0, SyncPolicy::Never, Some(&budget))
                .unwrap();
        let CheckpointOutcome::Aborted {
            reason,
            partial,
            subtrees_done,
        } = outcome
        else {
            panic!("a half-walk step cap must abort this exploration");
        };
        assert_eq!(reason, ktudc_model::AbortReason::StepLimit);
        if let Some(partial) = &partial {
            assert!(!partial.complete);
            assert!(partial.system.len() <= baseline.runs);
        }
        assert!(subtrees_done < CHECKPOINT_SUBTREE_TARGET);

        // Resume with no budget: the journal must contain only clean
        // subtrees, so the final result is bit-identical to uninterrupted.
        let (resumed, stats) = explore_spec_checkpointed(&spec, &tmp.0, SyncPolicy::Never).unwrap();
        assert!(stats.resumed);
        assert_eq!(system_digest(&resumed.system), baseline.digest);
        assert_eq!(resumed.complete, baseline.complete);
        assert_eq!(resumed.system.len(), baseline.runs);
    }

    #[test]
    fn pre_cancelled_budget_aborts_without_poisoning_the_journal() {
        let tmp = TempPath::new("budget-cancel");
        let spec = oneshot_spec();
        let baseline = run_explore_spec(&spec).unwrap();

        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        let (outcome, _) =
            explore_spec_checkpointed_budgeted(&spec, &tmp.0, SyncPolicy::Never, Some(&budget))
                .unwrap();
        let CheckpointOutcome::Aborted {
            reason,
            subtrees_done,
            ..
        } = outcome
        else {
            panic!("a pre-cancelled budget must abort");
        };
        assert_eq!(reason, ktudc_model::AbortReason::Cancelled);
        assert_eq!(subtrees_done, 0);

        let (resumed, _) = explore_spec_checkpointed(&spec, &tmp.0, SyncPolicy::Never).unwrap();
        assert_eq!(system_digest(&resumed.system), baseline.digest);
    }

    #[test]
    fn run_cap_semantics_survive_checkpointing() {
        let tmp = TempPath::new("cap");
        let mut spec = oneshot_spec();
        spec.max_runs = 10;
        let direct = run_explore_spec(&spec).unwrap();
        assert!(!direct.complete);
        let (result, _) = explore_spec_checkpointed(&spec, &tmp.0, SyncPolicy::Never).unwrap();
        assert_eq!(system_digest(&result.system), direct.digest);
        assert!(!result.complete);
        let (replayed, _) = explore_spec_checkpointed(&spec, &tmp.0, SyncPolicy::Never).unwrap();
        assert_eq!(system_digest(&replayed.system), direct.digest);
    }
}
