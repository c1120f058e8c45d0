//! Cluster consistency auditor — the uniform invariants, checked on the
//! wire.
//!
//! The paper's *uniformity* requirement is a "zero wrong answers, even
//! at failed or degraded participants" guarantee. On the serve plane
//! that becomes a concrete wire contract, and this module is its
//! referee: an [`Auditor`] is handed the ground truth for every
//! scenario a chaos campaign will exercise (computed directly, with no
//! network in the way), then every response, typed failure, or
//! harness-observed anomaly is recorded against it. [`Auditor::report`]
//! condenses the ledger into an [`AuditReport`] asserting the uniform
//! invariants:
//!
//! * **Byte-identical answers** — every payload equals the direct
//!   computation for its scenario, byte for byte in canonical JSON; a
//!   payload for a scenario with no registered truth is also a wrong
//!   answer (the auditor refuses to be blind).
//! * **Typed-error-only degradation** — every non-payload outcome is a
//!   typed wire error or a typed client error. Panics, hangs, and
//!   silently truncated results are recorded via
//!   [`Auditor::record_untyped`] and any count above zero fails the
//!   audit.
//! * **Exactly-once compute** — the caller feeds the server-side
//!   computed-outcome count ([`Auditor::note_computed`]); it must equal
//!   the number of *unique* scenarios, however many resend storms the
//!   chaos schedule provoked.
//! * **Hedges never double-compute** — with a hedged-request count fed
//!   ([`Auditor::note_hedges`]), firing hedges must not have raised the
//!   compute count above the unique scenarios: a hedge may only win a
//!   race, never buy its answer with duplicate work.
//! * **Per-worker generation monotonicity** — within each answering
//!   shard (or the single server), response generations never regress;
//!   a regression means a stale process answered after its successor.
//! * **Bounded latency** — with a bound armed
//!   ([`Auditor::with_latency_bound_ms`]), every recorded outcome must
//!   have resolved inside it: detection plus failover must be prompt,
//!   not merely eventual.
//! * **Zero stuck connections** — the caller reports the server's
//!   post-campaign watchdog count ([`Auditor::note_stuck_connections`]).
//!
//! The auditor is `Sync` (interior mutex) so a fan-out campaign can
//! record from many client threads at once.

use crate::client::ClientError;
use crate::wire::{RequestKind, Response, ResponseKind};
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::Duration;

/// Canonical key of a scenario: the same canonical JSON string the
/// scenario cache and the hash ring key on.
fn scenario_key(kind: &RequestKind) -> String {
    serde_json::to_string(kind).unwrap_or_default()
}

/// One recorded outcome.
#[derive(Clone, Debug)]
enum Outcome {
    /// A payload response: canonical JSON of its result.
    Payload {
        result: String,
        generation: u64,
        shard: Option<usize>,
    },
    /// A typed wire error (`ResponseKind::Error`), by code name.
    TypedWireError(String),
    /// A typed client error ([`ClientError`]), by variant name.
    TypedClientError(String),
    /// Anything untyped: a panic, a hang the harness had to break, a
    /// silently truncated result a caller accepted. Always a failure.
    Untyped(String),
}

#[derive(Debug, Default)]
struct Ledger {
    expected: HashMap<String, String>,
    rows: Vec<(String, Outcome, u64)>,
    computed: Option<u64>,
    stuck_connections: Option<u64>,
    hedges_fired: u64,
}

/// Records a chaos campaign's every request/response and checks the
/// uniform invariants. See the module docs for the contract.
#[derive(Debug, Default)]
pub struct Auditor {
    latency_bound_ms: Option<u64>,
    ledger: Mutex<Ledger>,
}

impl Auditor {
    /// An empty auditor with no latency bound.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms a per-outcome latency bound: any recorded outcome that took
    /// longer than `ms` to resolve counts as a latency violation.
    #[must_use]
    pub fn with_latency_bound_ms(mut self, ms: u64) -> Self {
        self.latency_bound_ms = Some(ms);
        self
    }

    /// Registers the direct-computation ground truth for `kind`.
    /// Payloads recorded for `kind` must match `result` byte-for-byte
    /// in canonical JSON.
    pub fn expect(&self, kind: &RequestKind, result: &ResponseKind) {
        let mut ledger = self.ledger.lock().expect("audit ledger poisoned");
        ledger.expected.insert(
            scenario_key(kind),
            serde_json::to_string(result).unwrap_or_default(),
        );
    }

    /// Number of distinct scenarios with registered ground truth.
    #[must_use]
    pub fn expected_scenarios(&self) -> usize {
        self.ledger
            .lock()
            .expect("audit ledger poisoned")
            .expected
            .len()
    }

    /// Records a response the campaign received for `kind` after
    /// `latency` of wall-clock effort (retries included).
    pub fn record_response(&self, kind: &RequestKind, response: &Response, latency: Duration) {
        let outcome = match &response.result {
            ResponseKind::Error(e) => Outcome::TypedWireError(format!("{:?}", e.code)),
            other => Outcome::Payload {
                result: serde_json::to_string(other).unwrap_or_default(),
                generation: response.generation,
                shard: response.shard,
            },
        };
        self.push(kind, outcome, latency);
    }

    /// Records a typed client-side failure (every [`ClientError`]
    /// variant is typed by construction).
    pub fn record_client_error(&self, kind: &RequestKind, err: &ClientError, latency: Duration) {
        let name = match err {
            ClientError::Io(_) => "Io",
            ClientError::Torn(_) => "Torn",
            ClientError::Protocol(_) => "Protocol",
            ClientError::RetriesExhausted { .. } => "RetriesExhausted",
            ClientError::CircuitOpen { .. } => "CircuitOpen",
        };
        self.push(kind, Outcome::TypedClientError(name.to_string()), latency);
    }

    /// Records an untyped failure — a panic, a hang the harness had to
    /// break, anything the typed vocabulary does not cover. Any such
    /// record fails the audit.
    pub fn record_untyped(&self, kind: &RequestKind, what: impl Into<String>, latency: Duration) {
        self.push(kind, Outcome::Untyped(what.into()), latency);
    }

    /// Feeds the server-side count of *computed* (non-cached,
    /// non-error) outcomes, for the exactly-once check.
    pub fn note_computed(&self, computed: u64) {
        let mut ledger = self.ledger.lock().expect("audit ledger poisoned");
        ledger.computed = Some(computed);
    }

    /// Feeds the post-campaign stuck-worker/stuck-connection count from
    /// the server's watchdog.
    pub fn note_stuck_connections(&self, stuck: u64) {
        let mut ledger = self.ledger.lock().expect("audit ledger poisoned");
        ledger.stuck_connections = Some(stuck);
    }

    /// Feeds the campaign's hedged-request count (backup requests fired
    /// by the detector plane). With hedges in play, exactly-once compute
    /// is only guaranteed when the primary never received the request —
    /// `hedges_never_double_compute` asserts that the campaign's hedging
    /// indeed added zero duplicate compute.
    pub fn note_hedges(&self, fired: u64) {
        let mut ledger = self.ledger.lock().expect("audit ledger poisoned");
        ledger.hedges_fired = fired;
    }

    fn push(&self, kind: &RequestKind, outcome: Outcome, latency: Duration) {
        let latency_ms = u64::try_from(latency.as_millis()).unwrap_or(u64::MAX);
        let mut ledger = self.ledger.lock().expect("audit ledger poisoned");
        ledger.rows.push((scenario_key(kind), outcome, latency_ms));
    }

    /// Condenses the ledger into the invariant verdicts.
    #[must_use]
    pub fn report(&self) -> AuditReport {
        let ledger = self.ledger.lock().expect("audit ledger poisoned");
        let mut report = AuditReport {
            latency_bound_ms: self.latency_bound_ms,
            unique_scenarios: ledger.expected.len() as u64,
            computed: ledger.computed,
            stuck_connections: ledger.stuck_connections.unwrap_or(0),
            hedges_fired: ledger.hedges_fired,
            ..AuditReport::default()
        };
        // Generation monotonicity is judged per answering shard, in
        // recorded order; `None` (a direct single-process answer) is
        // its own lane.
        let mut last_gen: HashMap<Option<usize>, u64> = HashMap::new();
        let mut breakdown: BTreeMap<String, u64> = BTreeMap::new();
        for (key, outcome, latency_ms) in &ledger.rows {
            report.requests += 1;
            report.max_latency_ms = report.max_latency_ms.max(*latency_ms);
            if let Some(bound) = self.latency_bound_ms {
                if *latency_ms > bound {
                    report.latency_violations += 1;
                }
            }
            match outcome {
                Outcome::Payload {
                    result,
                    generation,
                    shard,
                } => {
                    report.payloads += 1;
                    match ledger.expected.get(key) {
                        Some(expected) if expected == result => {}
                        Some(_) | None => report.wrong_answers += 1,
                    }
                    let last = last_gen.entry(*shard).or_insert(*generation);
                    if *generation < *last {
                        report.generation_regressions += 1;
                    } else {
                        *last = *generation;
                    }
                }
                Outcome::TypedWireError(code) => {
                    report.typed_wire_errors += 1;
                    *breakdown.entry(format!("wire:{code}")).or_insert(0) += 1;
                }
                Outcome::TypedClientError(name) => {
                    report.typed_client_errors += 1;
                    *breakdown.entry(format!("client:{name}")).or_insert(0) += 1;
                }
                Outcome::Untyped(what) => {
                    report.untyped_failures += 1;
                    *breakdown.entry(format!("untyped:{what}")).or_insert(0) += 1;
                }
            }
        }
        report.failure_breakdown = breakdown
            .into_iter()
            .map(|(label, count)| FailureCount { label, count })
            .collect();
        report.exactly_once = report
            .computed
            .map(|computed| computed == report.unique_scenarios);
        // Vacuously true with no hedges; with hedges fired, true exactly
        // when the compute count still matched the unique scenarios —
        // i.e. no hedge leg caused a second computation of its scenario.
        report.hedges_never_double_compute = report
            .computed
            .map(|computed| report.hedges_fired == 0 || computed == report.unique_scenarios);
        report.zero_wrong_answers = report.wrong_answers == 0;
        report.no_untyped_failures = report.untyped_failures == 0;
        report.latency_within_bound = report.latency_violations == 0;
        report.passed = report.zero_wrong_answers
            && report.no_untyped_failures
            && report.generation_regressions == 0
            && report.stuck_connections == 0
            && report.latency_within_bound
            && report.exactly_once != Some(false)
            && report.hedges_never_double_compute != Some(false);
        report
    }
}

/// The condensed verdicts of a chaos campaign. `passed` is the
/// conjunction of every uniform invariant the ledger could check.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct AuditReport {
    /// Outcomes recorded.
    pub requests: u64,
    /// Payload responses among them.
    pub payloads: u64,
    /// Typed wire errors (`ResponseKind::Error`).
    pub typed_wire_errors: u64,
    /// Typed client errors ([`ClientError`]).
    pub typed_client_errors: u64,
    /// Untyped failures (panics, hangs, silent truncation). Must be 0.
    pub untyped_failures: u64,
    /// Payloads differing from (or missing) their ground truth. Must
    /// be 0.
    pub wrong_answers: u64,
    /// Responses whose generation regressed within their shard lane.
    pub generation_regressions: u64,
    /// Distinct scenarios with registered ground truth.
    pub unique_scenarios: u64,
    /// Server-side computed-outcome count, when the caller fed one.
    pub computed: Option<u64>,
    /// `computed == unique_scenarios`; `None` when not fed.
    pub exactly_once: Option<bool>,
    /// Hedged backup requests the campaign fired
    /// ([`Auditor::note_hedges`]).
    pub hedges_fired: u64,
    /// With hedges fired, whether compute still matched the unique
    /// scenario count (no hedge leg computed its scenario twice);
    /// vacuously `Some(true)` with zero hedges, `None` when no compute
    /// count was fed.
    pub hedges_never_double_compute: Option<bool>,
    /// Post-campaign stuck-worker count. Must be 0.
    pub stuck_connections: u64,
    /// Slowest recorded outcome, milliseconds.
    pub max_latency_ms: u64,
    /// The armed bound, if any.
    pub latency_bound_ms: Option<u64>,
    /// Outcomes that resolved over the bound.
    pub latency_violations: u64,
    /// `wrong_answers == 0`.
    pub zero_wrong_answers: bool,
    /// `untyped_failures == 0`.
    pub no_untyped_failures: bool,
    /// `latency_violations == 0`.
    pub latency_within_bound: bool,
    /// Every invariant held.
    pub passed: bool,
    /// Non-payload outcomes tallied by label (`wire:<code>`,
    /// `client:<variant>`, `untyped:<description>`), sorted by label.
    pub failure_breakdown: Vec<FailureCount>,
}

/// One labelled tally in [`AuditReport::failure_breakdown`].
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct FailureCount {
    /// `wire:<code>`, `client:<variant>`, or `untyped:<description>`.
    pub label: String,
    /// Outcomes recorded under the label.
    pub count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ErrorCode;
    use ktudc_core::harness::{CellOutcome, CellSpec, FdChoice, ProtocolChoice};

    fn kind(i: u64) -> RequestKind {
        RequestKind::Cell(
            CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable)
                .trials(1)
                .horizon(40 + i),
        )
    }

    fn outcome(satisfied: u64) -> ResponseKind {
        ResponseKind::Cell(CellOutcome {
            satisfied,
            violated_permanent: 0,
            unsatisfied_pending: 0,
            mean_messages: 1.0,
        })
    }

    fn payload(id: u64, generation: u64, shard: Option<usize>, result: ResponseKind) -> Response {
        let mut r = Response::new(id, false, 10, result);
        r.generation = generation;
        r.shard = shard;
        r
    }

    #[test]
    fn clean_campaign_passes_every_invariant() {
        let audit = Auditor::new().with_latency_bound_ms(5_000);
        for i in 0..3 {
            audit.expect(&kind(i), &outcome(1));
        }
        for i in 0..3 {
            // Resend storm: the same scenario answered twice is fine —
            // exactly-once is about *compute*, not responses.
            for _ in 0..2 {
                audit.record_response(
                    &kind(i),
                    &payload(i, 4, Some(0), outcome(1)),
                    Duration::from_millis(12),
                );
            }
        }
        audit.note_computed(3);
        audit.note_stuck_connections(0);
        let report = audit.report();
        assert_eq!(report.requests, 6);
        assert_eq!(report.payloads, 6);
        assert_eq!(report.wrong_answers, 0);
        assert_eq!(report.exactly_once, Some(true));
        assert!(report.zero_wrong_answers);
        assert!(report.no_untyped_failures);
        assert!(report.passed, "{report:?}");
    }

    #[test]
    fn wrong_and_unknown_payloads_fail_the_audit() {
        let audit = Auditor::new();
        audit.expect(&kind(0), &outcome(1));
        // Wrong bytes for a known scenario.
        audit.record_response(
            &kind(0),
            &payload(0, 0, None, outcome(0)),
            Duration::from_millis(1),
        );
        // A payload for a scenario the auditor was never told about.
        audit.record_response(
            &kind(9),
            &payload(9, 0, None, outcome(1)),
            Duration::from_millis(1),
        );
        let report = audit.report();
        assert_eq!(report.wrong_answers, 2);
        assert!(!report.zero_wrong_answers);
        assert!(!report.passed);
    }

    #[test]
    fn typed_degradation_is_accepted_untyped_is_not() {
        let audit = Auditor::new();
        audit.expect(&kind(0), &outcome(1));
        let shed = Response::error(1, ErrorCode::Overloaded, "queue full");
        audit.record_response(&kind(0), &shed, Duration::from_millis(1));
        audit.record_client_error(
            &kind(0),
            &ClientError::RetriesExhausted {
                attempts: 3,
                last: "overloaded".to_string(),
            },
            Duration::from_millis(2),
        );
        assert!(audit.report().passed);
        audit.record_untyped(&kind(0), "worker panicked", Duration::from_millis(1));
        let report = audit.report();
        assert_eq!(report.untyped_failures, 1);
        assert!(!report.no_untyped_failures);
        assert!(!report.passed);
        let labels: Vec<&str> = report
            .failure_breakdown
            .iter()
            .map(|f| f.label.as_str())
            .collect();
        assert_eq!(
            labels,
            vec![
                "client:RetriesExhausted",
                "untyped:worker panicked",
                "wire:Overloaded"
            ]
        );
    }

    #[test]
    fn generation_regression_is_caught_per_shard() {
        let audit = Auditor::new();
        audit.expect(&kind(0), &outcome(1));
        // Shard 0 moves 3 -> 4 (a restart: fine), shard 1 stays at 7.
        audit.record_response(
            &kind(0),
            &payload(0, 3, Some(0), outcome(1)),
            Duration::from_millis(1),
        );
        audit.record_response(
            &kind(0),
            &payload(0, 4, Some(0), outcome(1)),
            Duration::from_millis(1),
        );
        audit.record_response(
            &kind(0),
            &payload(0, 7, Some(1), outcome(1)),
            Duration::from_millis(1),
        );
        assert_eq!(audit.report().generation_regressions, 0);
        // Shard 0 answering with generation 2 after 4 is a regression.
        audit.record_response(
            &kind(0),
            &payload(0, 2, Some(0), outcome(1)),
            Duration::from_millis(1),
        );
        let report = audit.report();
        assert_eq!(report.generation_regressions, 1);
        assert!(!report.passed);
    }

    #[test]
    fn hedges_must_not_double_compute() {
        let audit = Auditor::new();
        audit.expect(&kind(0), &outcome(1));
        audit.record_response(
            &kind(0),
            &payload(0, 0, Some(1), outcome(1)),
            Duration::from_millis(1),
        );
        // Hedges fired but compute stayed at the unique-scenario count:
        // the backup legs landed on shards that never duplicated work.
        audit.note_computed(1);
        audit.note_hedges(5);
        let report = audit.report();
        assert_eq!(report.hedges_fired, 5);
        assert_eq!(report.hedges_never_double_compute, Some(true));
        assert!(report.passed, "{report:?}");
        // One extra computation with hedges in play fails the audit.
        audit.note_computed(2);
        let report = audit.report();
        assert_eq!(report.hedges_never_double_compute, Some(false));
        assert!(!report.passed);
    }

    #[test]
    fn exactly_once_and_latency_bounds_are_enforced() {
        let audit = Auditor::new().with_latency_bound_ms(10);
        audit.expect(&kind(0), &outcome(1));
        audit.record_response(
            &kind(0),
            &payload(0, 0, None, outcome(1)),
            Duration::from_millis(25),
        );
        audit.note_computed(2); // duplicate compute: single-flight failed
        let report = audit.report();
        assert_eq!(report.exactly_once, Some(false));
        assert_eq!(report.latency_violations, 1);
        assert_eq!(report.max_latency_ms, 25);
        assert!(!report.latency_within_bound);
        assert!(!report.passed);
    }
}
