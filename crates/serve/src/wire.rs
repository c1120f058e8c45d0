//! The request/response envelope of the service protocol.
//!
//! Transport framing is one JSON object per `\n`-terminated line. The
//! *bodies* — [`CellSpec`]/[`CellOutcome`], [`ExploreSpec`]/
//! [`ExploreOutcome`], [`Formula`] — are the wire types the library
//! crates already pin in their own unit tests; this module adds the
//! envelope around them: a schema version, a client-chosen request `id`
//! (echoed back so pipelined responses can be matched out of order), and
//! a typed error vocabulary.
//!
//! Compatibility contract: [`SCHEMA_VERSION`] names the encoding of
//! *everything* on the wire. Any change to the envelope or to a pinned
//! body encoding must bump it; the server refuses mismatched versions
//! with [`ErrorCode::UnsupportedVersion`] rather than guessing.

use crate::metrics::{Endpoint, StatsReport};
use ktudc_core::harness::{CellOutcome, CellSpec};
use ktudc_epistemic::Formula;
use ktudc_fd::{ClassifySpec, RegimeVerdict};
use ktudc_model::{AbortReason, Point};
use ktudc_sim::wire::WireMsg;
use ktudc_sim::{ExploreOutcome, ExploreSpec};
use serde::{Deserialize, Serialize};
use std::io::Write as _;

/// Version of the wire encoding (envelope + all body types).
///
/// History: 1 — original envelope; 2 — responses carry the server
/// `generation` (restart counter) and the `Health` endpoint exists;
/// 3 — requests may carry a deadline/priority/accept-partial triple
/// (omitted when default, so a v2 request line is also a valid v3
/// request line), responses carry `queue_wait_ms`/`compute_ms`, errors
/// carry a `retry_after_ms` hint, and `DeadlineExceeded` and
/// [`ResponseKind::Aborted`] exist; 4 — the `Classify` endpoint
/// (empirical detector classification:
/// [`RequestKind::Classify`]/[`ResponseKind::Classify`]), the `classify`
/// row in stats reports, and the derived-detector `FdChoice` variants in
/// cell specs; 5 — the cluster layer: the `ClusterHealth` endpoint
/// ([`RequestKind::ClusterHealth`]/[`ResponseKind::ClusterHealth`],
/// aggregating per-shard [`HealthReport`]s into a
/// [`ClusterHealthReport`]) and an optional `shard` field on responses
/// (omitted when absent, stamped by a router with the index of the
/// worker shard that answered); 6 — the detector plane: the cheap
/// [`RequestKind::Ping`] heartbeat probe (answered inline, never
/// queued), per-shard suspicion fields on [`ShardHealth`] (`phi`,
/// `suspected`, `probation` — omitted when absent/false, so a healthy
/// v6 row is byte-identical to a v5 row), a `suspected_shards`
/// aggregate on [`ClusterHealthReport`], and the suspicion counters in
/// stats reports. All additive, so v2–v5 request lines still parse.
/// Servers accept [`MIN_SCHEMA_VERSION`]..=[`SCHEMA_VERSION`] and stamp
/// each response with the version its request spoke.
pub const SCHEMA_VERSION: u32 = 6;

/// Oldest request schema the server still accepts. v2 request lines are
/// a strict subset of v3 ones (every v3 envelope addition is optional on
/// requests and additive on responses), so upgrading the server never
/// strands a deployed client.
pub const MIN_SCHEMA_VERSION: u32 = 2;

/// Hard cap on an inbound request line, in bytes. A connection that
/// accumulates this much without a newline is answered with a typed
/// [`ErrorCode::BadRequest`] and closed — no legitimate request body
/// comes anywhere near it, and an unbounded line would otherwise let a
/// single peer grow server memory without limit.
pub const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;

/// Per-request quality-of-service options (schema v3). All fields are
/// optional on the wire; a request that omits them behaves exactly like
/// a v2 request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestOptions {
    /// Soft deadline in milliseconds from server receipt. The server
    /// sheds the request with [`ErrorCode::DeadlineExceeded`] when its
    /// queue-wait estimate already exceeds it, and otherwise runs the
    /// computation under a budget that aborts at the deadline.
    pub deadline_ms: Option<u64>,
    /// Admission priority: 0 is normal; higher values get admission
    /// headroom when the adaptive concurrency limit is contended.
    pub priority: u8,
    /// When the budget aborts the computation, answer with the typed
    /// [`ResponseKind::Aborted`] partial result instead of a
    /// [`ErrorCode::DeadlineExceeded`] error.
    pub accept_partial: bool,
}

impl RequestOptions {
    /// Whether every field is at its default (the v2-compatible shape).
    #[must_use]
    pub fn is_default(&self) -> bool {
        *self == RequestOptions::default()
    }
}

/// One request line.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Must be within [`MIN_SCHEMA_VERSION`]..=[`SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Client-chosen correlation id, echoed in the [`Response`].
    pub id: u64,
    /// What to do.
    pub kind: RequestKind,
    /// Deadline/priority/partial-acceptance options (schema v3; encoded
    /// only when not default, so default-option request lines are
    /// byte-compatible with v2 apart from the version number).
    pub options: RequestOptions,
}

impl Request {
    /// A current-version request with default options.
    #[must_use]
    pub fn new(id: u64, kind: RequestKind) -> Self {
        Request::with_options(id, kind, RequestOptions::default())
    }

    /// A current-version request with explicit options.
    #[must_use]
    pub fn with_options(id: u64, kind: RequestKind, options: RequestOptions) -> Self {
        Request {
            schema_version: SCHEMA_VERSION,
            id,
            kind,
            options,
        }
    }
}

// The envelope is hand-encoded (not derived) so the v3 option fields can
// be *omitted* when default and *defaulted* when absent — the derive has
// no attribute support, and a derived decoder would reject every v2
// request line for missing keys.
impl Serialize for Request {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("schema_version".to_string(), self.schema_version.to_value()),
            ("id".to_string(), self.id.to_value()),
            ("kind".to_string(), self.kind.to_value()),
        ];
        if let Some(deadline_ms) = self.options.deadline_ms {
            fields.push(("deadline_ms".to_string(), deadline_ms.to_value()));
        }
        if self.options.priority != 0 {
            fields.push(("priority".to_string(), self.options.priority.to_value()));
        }
        if self.options.accept_partial {
            fields.push(("accept_partial".to_string(), true.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for Request {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let required = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::DeError(format!("request is missing `{name}`")))
        };
        Ok(Request {
            schema_version: u32::from_value(required("schema_version")?)?,
            id: u64::from_value(required("id")?)?,
            kind: RequestKind::from_value(required("kind")?)?,
            options: RequestOptions {
                deadline_ms: match v.get("deadline_ms") {
                    None => None,
                    Some(d) => Option::<u64>::from_value(d)?,
                },
                priority: match v.get("priority") {
                    None => 0,
                    Some(p) => u8::from_value(p)?,
                },
                accept_partial: match v.get("accept_partial") {
                    None => false,
                    Some(a) => bool::from_value(a)?,
                },
            },
        })
    }
}

/// A request line's envelope, decoded without decoding its body.
///
/// [`RequestLine::parse`] accepts exactly the lines that decode as a
/// [`Request`] in a supported schema version, except that it leaves
/// `kind` as text: [`RequestLine::decode_kind`] finishes the decode. The
/// server probes its cache with that text first (a client writing with
/// `serde_json::to_string` sends the canonical body the cache is keyed
/// by), so a cache hit never builds a value tree; see [`crate::cache`].
#[derive(Clone, Copy, Debug)]
pub struct RequestLine<'a> {
    /// Within [`MIN_SCHEMA_VERSION`]..=[`SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Client-chosen correlation id, echoed in the [`Response`].
    pub id: u64,
    /// Deadline/priority/partial-acceptance options.
    pub options: RequestOptions,
    /// The exact text of the `kind` value, without surrounding
    /// whitespace: valid JSON, but not yet known to be a [`RequestKind`].
    pub kind: &'a str,
}

/// Why a request line is refused before anything runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LineError {
    /// The line does not decode as a [`Request`]: answered with
    /// [`ErrorCode::BadRequest`] under id 0, since no id is trustworthy.
    Malformed(String),
    /// A well-formed request in a schema version outside
    /// [`MIN_SCHEMA_VERSION`]..=[`SCHEMA_VERSION`]: answered with
    /// [`ErrorCode::UnsupportedVersion`] under the request's id.
    UnsupportedVersion {
        /// The request's id.
        id: u64,
        /// The version it spoke.
        version: u32,
    },
}

impl LineError {
    /// The typed refusal, from a peer that calls itself `speaker`.
    #[must_use]
    pub fn response(&self, speaker: &str) -> Response {
        match self {
            LineError::Malformed(message) => Response::error(0, ErrorCode::BadRequest, message),
            LineError::UnsupportedVersion { id, version } => Response::error(
                *id,
                ErrorCode::UnsupportedVersion,
                format!(
                    "request schema_version {version} but this {speaker} speaks \
                     {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION}"
                ),
            ),
        }
    }
}

impl From<serde_json::Error> for LineError {
    fn from(e: serde_json::Error) -> Self {
        LineError::Malformed(e.to_string())
    }
}

/// The envelope keys [`RequestLine::parse`] reads; any other key is
/// validated and ignored, as [`Request`]'s decoder ignores it.
const ENVELOPE_KEYS: [&str; 6] = [
    "schema_version",
    "id",
    "kind",
    "deadline_ms",
    "priority",
    "accept_partial",
];

impl<'a> RequestLine<'a> {
    /// Decodes the envelope of `line` in one pass over its bytes; values
    /// are decoded with the same codecs as [`Request`]'s, from their
    /// spans. A repeated key counts at its first occurrence, as in the
    /// [`Request`] decoder.
    ///
    /// # Errors
    ///
    /// [`LineError::Malformed`] when `serde_json::from_str::<Request>`
    /// would fail for a reason outside `kind`;
    /// [`LineError::UnsupportedVersion`] when it would succeed but the
    /// version is out of range.
    pub fn parse(line: &'a str) -> Result<Self, LineError> {
        let mut spans: [Option<&'a str>; ENVELOPE_KEYS.len()] = [None; ENVELOPE_KEYS.len()];
        serde_json::object_fields(line, |field| {
            if let Some(i) = ENVELOPE_KEYS.iter().position(|key| field.key_is(key)) {
                spans[i].get_or_insert(field.value());
            }
        })?;
        let [schema_version, id, kind, deadline_ms, priority, accept_partial] = spans;
        let required = |span: Option<&'a str>, name: &str| {
            span.ok_or_else(|| {
                serde_json::Error::from(serde::DeError(format!("request is missing `{name}`")))
            })
        };
        let schema_version: u32 =
            serde_json::from_str(required(schema_version, "schema_version")?)?;
        let id: u64 = serde_json::from_str(required(id, "id")?)?;
        let kind = required(kind, "kind")?;
        let options = RequestOptions {
            deadline_ms: deadline_ms.map_or(Ok(None), serde_json::from_str)?,
            priority: priority.map_or(Ok(0), serde_json::from_str)?,
            accept_partial: accept_partial.map_or(Ok(false), serde_json::from_str)?,
        };
        let line = RequestLine {
            schema_version,
            id,
            options,
            kind,
        };
        if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&schema_version) {
            // A body that does not decode makes the line malformed before
            // its version is looked at, as with `Request`.
            line.decode_kind()?;
            return Err(LineError::UnsupportedVersion {
                id,
                version: schema_version,
            });
        }
        Ok(line)
    }

    /// Decodes the body.
    ///
    /// # Errors
    ///
    /// [`LineError::Malformed`] when `kind` is not a [`RequestKind`]: the
    /// whole line is then one the [`Request`] decoder rejects.
    pub fn decode_kind(&self) -> Result<RequestKind, LineError> {
        Ok(serde_json::from_str(self.kind)?)
    }

    /// The compute endpoint of a canonically written body, read from its
    /// variant tag (`{"Cell":` and so on), without decoding it. `None`
    /// for any other body, and every body the scenario cache holds has
    /// one: only such a body can be a cache hit.
    #[must_use]
    pub fn canonical_endpoint(&self) -> Option<Endpoint> {
        let (tag, _) = self.kind.strip_prefix("{\"")?.split_once("\":")?;
        match tag {
            "Cell" => Some(Endpoint::Cell),
            "Check" => Some(Endpoint::Check),
            "Explore" => Some(Endpoint::Explore),
            "Classify" => Some(Endpoint::Classify),
            _ => None,
        }
    }
}

/// The service endpoints.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum RequestKind {
    /// Run a Table-1 cell (seeded trials; deterministic tally).
    Cell(CellSpec),
    /// Exhaustively explore a scenario and model-check a formula over it.
    Check(CheckSpec),
    /// Exhaustively explore a scenario and return its summary + digest.
    Explore(ExploreSpec),
    /// Classify an empirical detector against a fault regime: which paper
    /// class its suspicion histories actually satisfy there.
    Classify(ClassifySpec),
    /// Report server metrics.
    Stats,
    /// Report durability health: generation plus recovery counters.
    Health,
    /// Report cluster health: per-shard [`HealthReport`]s plus an
    /// aggregate view. A single-process server answers with a one-shard
    /// cluster consisting of itself; a router polls every worker.
    ClusterHealth,
    /// A heartbeat probe (schema v6). Answered inline with
    /// [`ResponseKind::Pong`] — never queued, never cached, never
    /// forwarded — so its inter-arrival time measures the *wire and
    /// accept path*, which is exactly what the φ-accrual detector plane
    /// wants to learn. The response's `generation` doubles as the
    /// restart signal readmission listens for.
    Ping,
    /// Stop accepting work, drain, and exit.
    Shutdown,
}

impl RequestKind {
    /// The metrics endpoint this request counts against.
    #[must_use]
    pub fn endpoint(&self) -> Endpoint {
        match self {
            RequestKind::Cell(_) => Endpoint::Cell,
            RequestKind::Check(_) => Endpoint::Check,
            RequestKind::Explore(_) => Endpoint::Explore,
            RequestKind::Classify(_) => Endpoint::Classify,
            RequestKind::Stats => Endpoint::Stats,
            RequestKind::Health => Endpoint::Health,
            RequestKind::ClusterHealth => Endpoint::ClusterHealth,
            RequestKind::Ping => Endpoint::Ping,
            RequestKind::Shutdown => Endpoint::Shutdown,
        }
    }

    /// Whether the outcome is a pure function of the body (and therefore
    /// cacheable). `Stats`, `Health` and `Shutdown` are not.
    #[must_use]
    pub fn cacheable(&self) -> bool {
        matches!(
            self,
            RequestKind::Cell(_)
                | RequestKind::Check(_)
                | RequestKind::Explore(_)
                | RequestKind::Classify(_)
        )
    }
}

/// An epistemic check: explore `scenario`, then ask whether `formula` is
/// valid (true at every point) in the generated system.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CheckSpec {
    /// The system to generate.
    pub scenario: ExploreSpec,
    /// The formula to check over it (message alphabet is the wire
    /// protocols' [`WireMsg`]).
    pub formula: Formula<WireMsg>,
}

/// Result of a [`CheckSpec`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckOutcome {
    /// Whether the formula held at every point of the generated system.
    pub valid: bool,
    /// On failure, the earliest falsifying point (run index, time).
    pub counterexample: Option<Point>,
    /// Number of runs explored.
    pub runs: usize,
    /// Whether the enumeration finished under the spec's run cap. When
    /// `false`, `valid: true` is only a verdict about the explored
    /// prefix of the system.
    pub complete: bool,
    /// [`system_digest`](ktudc_sim::system_digest) of the explored
    /// system, for certifying against a local exploration.
    pub digest: u64,
}

/// One response line.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// The schema version the request spoke (so v2 clients keep parsing
    /// responses from a v3 server).
    pub schema_version: u32,
    /// The request's `id` (0 when the request line didn't parse far
    /// enough to recover one).
    pub id: u64,
    /// Whether the result was answered from the scenario cache.
    pub cached: bool,
    /// Service latency in microseconds as observed by the server
    /// (submission to completion, queue wait included).
    pub micros: u64,
    /// Milliseconds the request sat in the bounded queue before a worker
    /// picked it up (0 for inline answers: cache hits, stats, errors).
    pub queue_wait_ms: f64,
    /// Milliseconds the computation itself ran (0 for inline answers).
    pub compute_ms: f64,
    /// The answering server's generation — a counter that strictly
    /// increases across daemon restarts (persisted via the snapshot
    /// store when the daemon is durable, constant 0 otherwise). A client
    /// seeing this change mid-conversation knows the process it was
    /// talking to is gone, along with all its in-flight single-flight
    /// state. Stamped centrally at the write boundary.
    pub generation: u64,
    /// Which cluster shard answered (schema v5). `None` — and omitted
    /// from the encoding — for a direct single-process answer; a router
    /// stamps the index of the worker it routed to. `generation` then
    /// counts restarts of *that shard*, so per-shard restart tracking
    /// needs both fields together.
    pub shard: Option<usize>,
    /// The payload.
    pub result: ResponseKind,
}

impl Response {
    /// A current-version response (generation 0 until the server stamps
    /// it at the write boundary; queue/compute timings 0 until the
    /// worker path stamps them).
    #[must_use]
    pub fn new(id: u64, cached: bool, micros: u64, result: ResponseKind) -> Self {
        Response {
            schema_version: SCHEMA_VERSION,
            id,
            cached,
            micros,
            queue_wait_ms: 0.0,
            compute_ms: 0.0,
            generation: 0,
            shard: None,
            result,
        }
    }

    /// A current-version error response.
    #[must_use]
    pub fn error(id: u64, code: ErrorCode, message: impl Into<String>) -> Self {
        Response::error_with_retry(id, code, message, 0)
    }

    /// A current-version error response carrying a retry-after hint.
    #[must_use]
    pub fn error_with_retry(
        id: u64,
        code: ErrorCode,
        message: impl Into<String>,
        retry_after_ms: u64,
    ) -> Self {
        Response::new(
            id,
            false,
            0,
            ResponseKind::Error(WireError {
                code,
                message: message.into(),
                retry_after_ms,
            }),
        )
    }
}

// Hand-encoded like `Request`: the v5 `shard` field is *omitted* when
// `None` and *defaulted* when absent, so a v4 response line is a valid
// v5 response line and v4 parsers never see the key at all.
impl Serialize for Response {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("schema_version".to_string(), self.schema_version.to_value()),
            ("id".to_string(), self.id.to_value()),
            ("cached".to_string(), self.cached.to_value()),
            ("micros".to_string(), self.micros.to_value()),
            ("queue_wait_ms".to_string(), self.queue_wait_ms.to_value()),
            ("compute_ms".to_string(), self.compute_ms.to_value()),
            ("generation".to_string(), self.generation.to_value()),
        ];
        if let Some(shard) = self.shard {
            fields.push(("shard".to_string(), shard.to_value()));
        }
        fields.push(("result".to_string(), self.result.to_value()));
        serde::Value::Object(fields)
    }
}

impl Deserialize for Response {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let required = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::DeError(format!("response is missing `{name}`")))
        };
        Ok(Response {
            schema_version: u32::from_value(required("schema_version")?)?,
            id: u64::from_value(required("id")?)?,
            cached: bool::from_value(required("cached")?)?,
            micros: u64::from_value(required("micros")?)?,
            queue_wait_ms: f64::from_value(required("queue_wait_ms")?)?,
            compute_ms: f64::from_value(required("compute_ms")?)?,
            generation: u64::from_value(required("generation")?)?,
            shard: match v.get("shard") {
                None => None,
                Some(s) => Option::<usize>::from_value(s)?,
            },
            result: ResponseKind::from_value(required("result")?)?,
        })
    }
}

/// Everything on a response line except the payload: the fields of
/// [`Response`] minus `result`. The serving side writes a line from an
/// envelope plus the payload's JSON ([`write_response_line`]), so a
/// payload encoded once — a cache entry, a single-flight result — is
/// copied onto the wire under as many envelopes as it has requesters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Envelope {
    /// See [`Response::schema_version`].
    pub schema_version: u32,
    /// See [`Response::id`].
    pub id: u64,
    /// See [`Response::cached`].
    pub cached: bool,
    /// See [`Response::micros`].
    pub micros: u64,
    /// See [`Response::queue_wait_ms`].
    pub queue_wait_ms: f64,
    /// See [`Response::compute_ms`].
    pub compute_ms: f64,
    /// See [`Response::generation`].
    pub generation: u64,
    /// See [`Response::shard`].
    pub shard: Option<usize>,
}

impl Envelope {
    /// A current-version envelope with the defaults of [`Response::new`].
    #[must_use]
    pub fn new(id: u64, cached: bool, micros: u64) -> Self {
        Envelope {
            schema_version: SCHEMA_VERSION,
            id,
            cached,
            micros,
            queue_wait_ms: 0.0,
            compute_ms: 0.0,
            generation: 0,
            shard: None,
        }
    }
}

impl Response {
    /// This response's envelope (every field but `result`).
    #[must_use]
    pub fn envelope(&self) -> Envelope {
        Envelope {
            schema_version: self.schema_version,
            id: self.id,
            cached: self.cached,
            micros: self.micros,
            queue_wait_ms: self.queue_wait_ms,
            compute_ms: self.compute_ms,
            generation: self.generation,
            shard: self.shard,
        }
    }
}

/// Appends one `\n`-terminated response line to `out`: the envelope's
/// fields written directly, then `result_json` — the payload exactly as
/// `serde_json::to_string(&ResponseKind)` produced it — copied in. The
/// bytes before the newline are identical to
/// `serde_json::to_string(&Response)` of the same envelope and payload
/// (pinned by a differential test over every payload variant), without
/// building the `Value` tree that encoder goes through.
///
/// A non-finite timing is written as `0.0`; the stamps the server
/// computes are integer microseconds over a thousand, and JSON has no
/// spelling for the rest.
pub fn write_response_line(out: &mut Vec<u8>, envelope: &Envelope, result_json: &str) {
    // Writing into a `Vec<u8>` cannot fail.
    let _ = write!(
        out,
        "{{\"schema_version\":{},\"id\":{},\"cached\":{},\"micros\":{},\"queue_wait_ms\":",
        envelope.schema_version, envelope.id, envelope.cached, envelope.micros
    );
    write_millis(out, envelope.queue_wait_ms);
    out.extend_from_slice(b",\"compute_ms\":");
    write_millis(out, envelope.compute_ms);
    let _ = write!(out, ",\"generation\":{}", envelope.generation);
    if let Some(shard) = envelope.shard {
        let _ = write!(out, ",\"shard\":{shard}");
    }
    out.extend_from_slice(b",\"result\":");
    out.extend_from_slice(result_json.as_bytes());
    out.extend_from_slice(b"}\n");
}

/// A float the way `serde_json` prints it: shortest round-trip decimal,
/// with `.0` appended when that has no fraction or exponent.
fn write_millis(out: &mut Vec<u8>, millis: f64) {
    if !millis.is_finite() {
        out.extend_from_slice(b"0.0");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{millis}");
    if !out[start..].iter().any(|b| matches!(b, b'.' | b'e' | b'E')) {
        out.extend_from_slice(b".0");
    }
}

/// The payload JSON [`write_response_line`] takes. A payload the encoder
/// refuses (a non-finite float) becomes a typed [`ErrorCode::Internal`]
/// payload, so the requester gets an answer instead of silence.
#[must_use]
pub fn encode_result(result: &ResponseKind) -> String {
    serde_json::to_string(result).unwrap_or_else(|e| {
        serde_json::to_string(&ResponseKind::Error(WireError {
            code: ErrorCode::Internal,
            message: format!("result is unencodable: {e}"),
            retry_after_ms: 0,
        }))
        .expect("an error payload has no floats")
    })
}

/// A payload together with its wire encoding, made once and shared: the
/// scenario cache holds one per entry, and a computed result is sent to
/// its requester and every single-flight waiter from the same one.
#[derive(Debug, PartialEq)]
pub struct EncodedResult {
    kind: ResponseKind,
    json: String,
}

impl EncodedResult {
    /// Encodes `kind` ([`encode_result`]).
    #[must_use]
    pub fn new(kind: ResponseKind) -> Self {
        let json = encode_result(&kind);
        EncodedResult { kind, json }
    }

    /// The payload.
    #[must_use]
    pub fn kind(&self) -> &ResponseKind {
        &self.kind
    }

    /// The payload's JSON, as [`write_response_line`] takes it.
    #[must_use]
    pub fn json(&self) -> &str {
        &self.json
    }
}

/// Response payloads, one per endpoint plus the error arm.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ResponseKind {
    /// Tally of a [`RequestKind::Cell`].
    Cell(CellOutcome),
    /// Verdict of a [`RequestKind::Check`].
    Check(CheckOutcome),
    /// Summary of a [`RequestKind::Explore`].
    Explore(ExploreOutcome),
    /// Verdict of a [`RequestKind::Classify`].
    Classify(RegimeVerdict),
    /// Metrics snapshot.
    Stats(StatsReport),
    /// Durability health snapshot.
    Health(HealthReport),
    /// Cluster health snapshot (per-shard rows plus aggregate).
    ClusterHealth(ClusterHealthReport),
    /// Heartbeat acknowledgement for a [`RequestKind::Ping`] (schema
    /// v6). Deliberately empty: everything a probe wants (arrival time,
    /// `generation`) is in the envelope.
    Pong,
    /// Shutdown acknowledged; the server drains and exits.
    Shutdown,
    /// The computation's budget tripped and the requester opted into
    /// partial results ([`RequestOptions::accept_partial`]).
    Aborted(AbortedOutcome),
    /// The request was not served.
    Error(WireError),
}

/// What a budget-aborted computation still managed to produce.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AbortedOutcome {
    /// Why the budget tripped (deadline, cancellation, step or memory
    /// cap).
    pub reason: AbortReason,
    /// The partial result, if the computation got far enough to have
    /// one.
    pub partial: PartialOutcome,
}

/// The partial payload of an [`AbortedOutcome`], by endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum PartialOutcome {
    /// The explored prefix of the run space (`complete` is `false`).
    Explore(ExploreOutcome),
    /// The tally over the trials that completed before the trip.
    Cell(PartialCell),
    /// Nothing usable survived the abort.
    None,
}

/// A cell tally cut short by its budget.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PartialCell {
    /// Tally over the completed trials only.
    pub outcome: CellOutcome,
    /// How many of the spec's trials completed before the trip.
    pub trials_completed: u64,
}

/// The `Health` response body: the server's restart generation plus what
/// its boot-time recovery found on disk. A non-durable server (no data
/// directory) reports generation 0 and zeroed recovery counters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// The server's generation (strictly increasing across restarts of a
    /// durable server; 0 when running without a data directory).
    pub generation: u64,
    /// Whether the server has a data directory (snapshots + recovery).
    pub durable: bool,
    /// Cache outcomes warm-loaded from the newest valid snapshot at boot.
    pub recovered_cache_entries: usize,
    /// Snapshot files that failed validation (bad magic, generation or
    /// checksum) and were skipped — never loaded — during recovery.
    pub corrupt_snapshots_skipped: u64,
    /// The snapshot store's *live* corrupt-candidate counter: every
    /// corrupt candidate it has skipped over its lifetime, boot-time
    /// recovery included. Diverges from `corrupt_snapshots_skipped` if
    /// corruption appears after boot.
    pub store_corrupt_candidates: u64,
    /// Cache snapshots written since boot (including the boot snapshot
    /// that claims the generation).
    pub snapshots_written: u64,
    /// Outcomes currently in the scenario cache.
    pub cache_entries: usize,
    /// Requests queued (accepted, not yet started) at snapshot time.
    pub queue_depth: usize,
    /// Requests a worker is actively computing at snapshot time.
    pub in_flight: usize,
    /// Workers the watchdog currently considers stuck: their job's
    /// budget heartbeat has not advanced for the configured number of
    /// watchdog ticks.
    pub stuck_workers: u64,
    /// Jobs stolen across worker deques since the pool started (0 on a
    /// single worker).
    pub steals: u64,
    /// Depth of the deepest per-worker deque at snapshot time.
    pub deepest_queue: usize,
    /// Microseconds since the server started.
    pub uptime_micros: u64,
}

/// One shard's row in a [`ClusterHealthReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct ShardHealth {
    /// The shard's index on the hash ring.
    pub shard: usize,
    /// The shard's current address (`host:port`). After a worker restart
    /// under a fleet supervisor this may differ from the boot-time
    /// address (respawned workers bind ephemeral ports).
    pub addr: String,
    /// Whether the shard answered the health probe. A `false` row keeps
    /// the last known `generation` and has no `report`.
    pub reachable: bool,
    /// The shard's generation (strictly increasing across restarts of a
    /// durable worker; last observed value when unreachable).
    pub generation: u64,
    /// The shard's own [`HealthReport`] when it answered.
    pub report: Option<HealthReport>,
    /// The detector plane's current φ (suspicion level) for this shard
    /// (schema v6). `None` — and omitted from the encoding — when no
    /// detector plane is monitoring the shard.
    pub phi: Option<f64>,
    /// Whether the detector plane currently suspects this shard (schema
    /// v6; omitted when `false`). A suspected shard is skipped at
    /// routing time and served by its ring replicas.
    pub suspected: bool,
    /// Whether the shard is readmitted but still inside its probation
    /// window after a suspicion cleared (schema v6; omitted when
    /// `false`). A probationary shard takes traffic again but one missed
    /// heartbeat re-suspects it immediately.
    pub probation: bool,
}

impl ShardHealth {
    /// A row with no detector-plane annotations (the v5 shape).
    #[must_use]
    pub fn new(
        shard: usize,
        addr: String,
        reachable: bool,
        generation: u64,
        report: Option<HealthReport>,
    ) -> Self {
        ShardHealth {
            shard,
            addr,
            reachable,
            generation,
            report,
            phi: None,
            suspected: false,
            probation: false,
        }
    }
}

// Hand-encoded like `Response`: the v6 suspicion fields are *omitted*
// when absent/false and *defaulted* when missing, so a v5 row is a valid
// v6 row and a healthy v6 row is byte-identical to its v5 encoding.
impl Serialize for ShardHealth {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("shard".to_string(), self.shard.to_value()),
            ("addr".to_string(), self.addr.to_value()),
            ("reachable".to_string(), self.reachable.to_value()),
            ("generation".to_string(), self.generation.to_value()),
            ("report".to_string(), self.report.to_value()),
        ];
        if let Some(phi) = self.phi {
            fields.push(("phi".to_string(), phi.to_value()));
        }
        if self.suspected {
            fields.push(("suspected".to_string(), true.to_value()));
        }
        if self.probation {
            fields.push(("probation".to_string(), true.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for ShardHealth {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let required = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::DeError(format!("shard health is missing `{name}`")))
        };
        Ok(ShardHealth {
            shard: usize::from_value(required("shard")?)?,
            addr: String::from_value(required("addr")?)?,
            reachable: bool::from_value(required("reachable")?)?,
            generation: u64::from_value(required("generation")?)?,
            report: Option::<HealthReport>::from_value(required("report")?)?,
            phi: match v.get("phi") {
                None => None,
                Some(p) => Option::<f64>::from_value(p)?,
            },
            suspected: match v.get("suspected") {
                None => false,
                Some(s) => bool::from_value(s)?,
            },
            probation: match v.get("probation") {
                None => false,
                Some(p) => bool::from_value(p)?,
            },
        })
    }
}

/// The `ClusterHealth` response body: per-shard health rows plus the
/// aggregates a dashboard wants first. A single-process server answers
/// with a one-shard cluster consisting of itself.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterHealthReport {
    /// Per-shard rows, indexed by ring position.
    pub shards: Vec<ShardHealth>,
    /// How many shards answered the probe.
    pub reachable_shards: usize,
    /// Scenario-cache entries summed over reachable shards.
    pub total_cache_entries: usize,
    /// Queued requests summed over reachable shards.
    pub total_queue_depth: usize,
    /// In-flight computations summed over reachable shards.
    pub total_in_flight: usize,
    /// Stuck workers summed over reachable shards.
    pub total_stuck_workers: u64,
    /// The highest generation seen across shards (a fleet-wide restart
    /// counter floor).
    pub max_generation: u64,
    /// Shards the detector plane currently suspects (schema v6; omitted
    /// from the encoding when 0, so a v5 report is a valid v6 report).
    pub suspected_shards: usize,
}

impl ClusterHealthReport {
    /// Aggregate per-shard rows into the cluster view. The totals sum
    /// only over reachable shards; unreachable rows still contribute
    /// their last known generation to `max_generation`.
    #[must_use]
    pub fn aggregate(shards: Vec<ShardHealth>) -> Self {
        let mut report = ClusterHealthReport {
            shards: Vec::new(),
            reachable_shards: 0,
            total_cache_entries: 0,
            total_queue_depth: 0,
            total_in_flight: 0,
            total_stuck_workers: 0,
            max_generation: 0,
            suspected_shards: 0,
        };
        for row in &shards {
            report.max_generation = report.max_generation.max(row.generation);
            if row.suspected {
                report.suspected_shards += 1;
            }
            if !row.reachable {
                continue;
            }
            report.reachable_shards += 1;
            if let Some(health) = &row.report {
                report.total_cache_entries += health.cache_entries;
                report.total_queue_depth += health.queue_depth;
                report.total_in_flight += health.in_flight;
                report.total_stuck_workers += health.stuck_workers;
            }
        }
        report.shards = shards;
        report
    }
}

// Hand-encoded for the same reason as `ShardHealth`: `suspected_shards`
// is omitted when 0 and defaulted when missing.
impl Serialize for ClusterHealthReport {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("shards".to_string(), self.shards.to_value()),
            (
                "reachable_shards".to_string(),
                self.reachable_shards.to_value(),
            ),
            (
                "total_cache_entries".to_string(),
                self.total_cache_entries.to_value(),
            ),
            (
                "total_queue_depth".to_string(),
                self.total_queue_depth.to_value(),
            ),
            (
                "total_in_flight".to_string(),
                self.total_in_flight.to_value(),
            ),
            (
                "total_stuck_workers".to_string(),
                self.total_stuck_workers.to_value(),
            ),
            ("max_generation".to_string(), self.max_generation.to_value()),
        ];
        if self.suspected_shards != 0 {
            fields.push((
                "suspected_shards".to_string(),
                self.suspected_shards.to_value(),
            ));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for ClusterHealthReport {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let required = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::DeError(format!("cluster health is missing `{name}`")))
        };
        Ok(ClusterHealthReport {
            shards: Vec::<ShardHealth>::from_value(required("shards")?)?,
            reachable_shards: usize::from_value(required("reachable_shards")?)?,
            total_cache_entries: usize::from_value(required("total_cache_entries")?)?,
            total_queue_depth: usize::from_value(required("total_queue_depth")?)?,
            total_in_flight: usize::from_value(required("total_in_flight")?)?,
            total_stuck_workers: u64::from_value(required("total_stuck_workers")?)?,
            max_generation: u64::from_value(required("max_generation")?)?,
            suspected_shards: match v.get("suspected_shards") {
                None => 0,
                Some(s) => usize::from_value(s)?,
            },
        })
    }
}

/// A typed failure.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireError {
    /// Machine-readable class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// For shed requests ([`ErrorCode::Overloaded`],
    /// [`ErrorCode::DeadlineExceeded`]): the server's estimate, in
    /// milliseconds, of when a retry is worth attempting. 0 means no
    /// hint.
    pub retry_after_ms: u64,
}

/// Machine-readable failure classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The bounded request queue (or the adaptive concurrency limit) is
    /// full; retry later. This is the backpressure signal — the server
    /// sheds load instead of buffering.
    Overloaded,
    /// The request's deadline would expire before a worker could serve
    /// it (admission-time estimate), or its budget tripped mid-compute
    /// and the requester did not opt into partial results. Distinct from
    /// [`ErrorCode::Overloaded`]: the server had capacity, the *request*
    /// ran out of time.
    DeadlineExceeded,
    /// The request line didn't parse, or its body failed validation.
    BadRequest,
    /// `schema_version` is outside the server's accepted range.
    UnsupportedVersion,
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// The computation itself failed (e.g. an inconsistent spec the
    /// harness refuses at runtime).
    Internal,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktudc_core::harness::{FdChoice, ProtocolChoice};

    #[test]
    fn envelope_encoding_is_pinned() {
        // The envelope shape is the serve wire schema (schema_version 6:
        // v3's optional deadline/priority/accept_partial on requests,
        // queue and compute timings on responses, retry_after_ms on
        // errors, the v4 Classify endpoint, the v5 ClusterHealth
        // endpoint + optional response `shard` stamp, and the v6 Ping
        // probe + suspicion annotations); repin deliberately with a
        // version bump, never silently.
        let req = Request::new(7, RequestKind::Stats);
        assert_eq!(
            serde_json::to_string(&req).unwrap(),
            r#"{"schema_version":6,"id":7,"kind":"Stats"}"#
        );
        let req = Request::new(8, RequestKind::Health);
        assert_eq!(
            serde_json::to_string(&req).unwrap(),
            r#"{"schema_version":6,"id":8,"kind":"Health"}"#
        );

        let spec = CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable)
            .trials(2)
            .horizon(100);
        let req = Request::new(1, RequestKind::Cell(spec.clone()));
        assert_eq!(
            serde_json::to_string(&req).unwrap(),
            r#"{"schema_version":6,"id":1,"kind":{"Cell":{"n":3,"t":1,"drop_prob":null,"fd":"None","protocol":"Reliable","horizon":100,"trials":2}}}"#
        );

        // Non-default options are appended after the v2-compatible core.
        let req = Request::with_options(
            2,
            RequestKind::Cell(spec),
            RequestOptions {
                deadline_ms: Some(250),
                priority: 1,
                accept_partial: true,
            },
        );
        assert_eq!(
            serde_json::to_string(&req).unwrap(),
            r#"{"schema_version":6,"id":2,"kind":{"Cell":{"n":3,"t":1,"drop_prob":null,"fd":"None","protocol":"Reliable","horizon":100,"trials":2}},"deadline_ms":250,"priority":1,"accept_partial":true}"#
        );

        // The v4 Classify endpoint (body encoding pinned in ktudc-fd).
        let req = Request::new(
            3,
            RequestKind::Classify(ClassifySpec::new(
                ktudc_fd::DetectorKind::Heartbeat,
                ktudc_fd::FaultRegime::Clean,
            )),
        );
        assert_eq!(
            serde_json::to_string(&req).unwrap(),
            r#"{"schema_version":6,"id":3,"kind":{"Classify":{"detector":"Heartbeat","regime":"Clean","n":4,"trials":6,"horizon":240,"seed":0}}}"#
        );

        let resp = Response::error(9, ErrorCode::Overloaded, "queue full");
        assert_eq!(
            serde_json::to_string(&resp).unwrap(),
            r#"{"schema_version":6,"id":9,"cached":false,"micros":0,"queue_wait_ms":0.0,"compute_ms":0.0,"generation":0,"result":{"Error":{"code":"Overloaded","message":"queue full","retry_after_ms":0}}}"#
        );
    }

    #[test]
    fn ping_encoding_is_pinned() {
        // The v6 heartbeat probe: both directions deliberately minimal —
        // a Ping line is the cheapest thing the detector plane can put on
        // the wire, and the Pong carries nothing because the envelope
        // already has the arrival time implicitly and `generation`
        // explicitly.
        let req = Request::new(12, RequestKind::Ping);
        assert_eq!(
            serde_json::to_string(&req).unwrap(),
            r#"{"schema_version":6,"id":12,"kind":"Ping"}"#
        );
        let resp = Response::new(12, false, 0, ResponseKind::Pong);
        assert_eq!(
            serde_json::to_string(&resp).unwrap(),
            r#"{"schema_version":6,"id":12,"cached":false,"micros":0,"queue_wait_ms":0.0,"compute_ms":0.0,"generation":0,"result":"Pong"}"#
        );
        let json = serde_json::to_string(&resp).unwrap();
        assert_eq!(serde_json::from_str::<Response>(&json).unwrap(), resp);
    }

    #[test]
    fn cluster_health_encoding_is_pinned() {
        // The v5 endpoint itself.
        let req = Request::new(11, RequestKind::ClusterHealth);
        assert_eq!(
            serde_json::to_string(&req).unwrap(),
            r#"{"schema_version":6,"id":11,"kind":"ClusterHealth"}"#
        );

        // A one-shard cluster (what a direct single-process server
        // answers): the unreachable-row and reachable-row shapes are both
        // part of the schema.
        let report = ClusterHealthReport::aggregate(vec![
            ShardHealth::new(0, "127.0.0.1:7001".to_string(), true, 3, None),
            ShardHealth::new(1, "127.0.0.1:7002".to_string(), false, 2, None),
        ]);
        // No detector plane annotations: a v6 report with healthy rows is
        // byte-identical to its v5 encoding (no phi/suspected/probation
        // keys, no suspected_shards aggregate).
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            r#"{"shards":[{"shard":0,"addr":"127.0.0.1:7001","reachable":true,"generation":3,"report":null},{"shard":1,"addr":"127.0.0.1:7002","reachable":false,"generation":2,"report":null}],"reachable_shards":1,"total_cache_entries":0,"total_queue_depth":0,"total_in_flight":0,"total_stuck_workers":0,"max_generation":3}"#
        );
        let resp = Response::new(11, false, 0, ResponseKind::ClusterHealth(report));
        let json = serde_json::to_string(&resp).unwrap();
        assert_eq!(serde_json::from_str::<Response>(&json).unwrap(), resp);
    }

    #[test]
    fn suspicion_annotations_are_pinned_and_v5_compatible() {
        // A detector-plane-annotated row: phi appears after report,
        // suspected/probation only when true.
        let mut suspect = ShardHealth::new(1, "127.0.0.1:7002".to_string(), true, 2, None);
        suspect.phi = Some(8.5);
        suspect.suspected = true;
        let mut healthy = ShardHealth::new(0, "127.0.0.1:7001".to_string(), true, 3, None);
        healthy.phi = Some(0.25);
        let report = ClusterHealthReport::aggregate(vec![healthy, suspect]);
        assert_eq!(report.suspected_shards, 1);
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            r#"{"shards":[{"shard":0,"addr":"127.0.0.1:7001","reachable":true,"generation":3,"report":null,"phi":0.25},{"shard":1,"addr":"127.0.0.1:7002","reachable":true,"generation":2,"report":null,"phi":8.5,"suspected":true}],"reachable_shards":2,"total_cache_entries":0,"total_queue_depth":0,"total_in_flight":0,"total_stuck_workers":0,"max_generation":3,"suspected_shards":1}"#
        );
        let json = serde_json::to_string(&report).unwrap();
        assert_eq!(
            serde_json::from_str::<ClusterHealthReport>(&json).unwrap(),
            report
        );

        // A probationary row round-trips too.
        let mut probation = ShardHealth::new(2, "127.0.0.1:7003".to_string(), true, 4, None);
        probation.phi = Some(0.1);
        probation.probation = true;
        let json = serde_json::to_string(&probation).unwrap();
        assert!(json.contains(r#""probation":true"#));
        assert_eq!(
            serde_json::from_str::<ShardHealth>(&json).unwrap(),
            probation
        );

        // A v5 row (no suspicion keys) still parses, defaulting them.
        let legacy =
            r#"{"shard":0,"addr":"127.0.0.1:7001","reachable":true,"generation":3,"report":null}"#;
        let parsed: ShardHealth = serde_json::from_str(legacy).unwrap();
        assert_eq!(parsed.phi, None);
        assert!(!parsed.suspected);
        assert!(!parsed.probation);
        let legacy_report = r#"{"shards":[],"reachable_shards":0,"total_cache_entries":0,"total_queue_depth":0,"total_in_flight":0,"total_stuck_workers":0,"max_generation":0}"#;
        let parsed: ClusterHealthReport = serde_json::from_str(legacy_report).unwrap();
        assert_eq!(parsed.suspected_shards, 0);
    }

    #[test]
    fn response_shard_stamp_is_pinned_and_v4_compatible() {
        // Unstamped responses omit the key entirely — byte-identical to a
        // v4 response line apart from the version number.
        let mut resp = Response::error(9, ErrorCode::Overloaded, "queue full");
        assert!(!serde_json::to_string(&resp).unwrap().contains("shard"));

        // A router stamp appears between `generation` and `result`.
        resp.shard = Some(2);
        assert_eq!(
            serde_json::to_string(&resp).unwrap(),
            r#"{"schema_version":6,"id":9,"cached":false,"micros":0,"queue_wait_ms":0.0,"compute_ms":0.0,"generation":0,"shard":2,"result":{"Error":{"code":"Overloaded","message":"queue full","retry_after_ms":0}}}"#
        );
        let json = serde_json::to_string(&resp).unwrap();
        assert_eq!(serde_json::from_str::<Response>(&json).unwrap(), resp);

        // A v4 response line (no `shard` key) still parses, defaulting
        // the stamp to None.
        let legacy = r#"{"schema_version":4,"id":9,"cached":false,"micros":0,"queue_wait_ms":0.0,"compute_ms":0.0,"generation":0,"result":{"Error":{"code":"Overloaded","message":"queue full","retry_after_ms":0}}}"#;
        let parsed: Response = serde_json::from_str(legacy).unwrap();
        assert_eq!(parsed.shard, None);
        assert_eq!(parsed.schema_version, 4);
        assert_eq!(parsed.id, 9);
    }

    /// One payload per [`ResponseKind`] variant, errors with and without
    /// a retry hint.
    fn every_payload() -> Vec<ResponseKind> {
        let explore = ExploreOutcome {
            runs: 12,
            complete: true,
            events: 340,
            digest: u64::MAX,
        };
        let cell = CellOutcome {
            satisfied: 3,
            violated_permanent: 1,
            unsatisfied_pending: 0,
            mean_messages: 9.5,
        };
        let health = HealthReport {
            generation: 3,
            durable: true,
            recovered_cache_entries: 17,
            corrupt_snapshots_skipped: 0,
            store_corrupt_candidates: 1,
            snapshots_written: 2,
            cache_entries: 19,
            queue_depth: 5,
            in_flight: 2,
            stuck_workers: 0,
            steals: 6,
            deepest_queue: 4,
            uptime_micros: 1_000,
        };
        let metrics = crate::metrics::Metrics::new();
        metrics.record(Endpoint::Cell, 120, true);
        let classify = ktudc_fd::classify_detector(
            &ClassifySpec::new(
                ktudc_fd::DetectorKind::Heartbeat,
                ktudc_fd::FaultRegime::Clean,
            )
            .trials(1)
            .horizon(60),
        );
        vec![
            ResponseKind::Cell(cell),
            ResponseKind::Check(CheckOutcome {
                valid: false,
                counterexample: Some(Point::new(4, 2)),
                runs: 17,
                complete: true,
                digest: 0xDEAD_BEEF,
            }),
            ResponseKind::Explore(explore),
            ResponseKind::Classify(classify),
            ResponseKind::Stats(metrics.report(Default::default(), 1, 256)),
            ResponseKind::Health(health.clone()),
            ResponseKind::ClusterHealth(ClusterHealthReport::aggregate(vec![
                ShardHealth::new(0, "127.0.0.1:7001".to_string(), true, 3, Some(health)),
                ShardHealth::new(1, "127.0.0.1:7002".to_string(), false, 2, None),
            ])),
            ResponseKind::Pong,
            ResponseKind::Shutdown,
            ResponseKind::Aborted(AbortedOutcome {
                reason: AbortReason::Deadline,
                partial: PartialOutcome::Cell(PartialCell {
                    outcome: cell,
                    trials_completed: 3,
                }),
            }),
            ResponseKind::Aborted(AbortedOutcome {
                reason: AbortReason::StepLimit,
                partial: PartialOutcome::Explore(explore),
            }),
            ResponseKind::Error(WireError {
                code: ErrorCode::BadRequest,
                message: "a \"quoted\" message\nwith a newline and a caf\u{e9}".to_string(),
                retry_after_ms: 0,
            }),
            ResponseKind::Error(WireError {
                code: ErrorCode::Overloaded,
                message: "queue full".to_string(),
                retry_after_ms: 25,
            }),
        ]
    }

    #[test]
    fn response_lines_are_byte_identical_to_the_serde_encoding() {
        // What the server writes (envelope by hand + payload JSON copied
        // in) against what clients have always parsed (`Serialize for
        // Response`): every payload variant, stamped and unstamped, every
        // accepted version, and timings with and without a fraction.
        let timings = [(0.0, 0.0), (0.125, 3.0), (1e-7, 123_456_789.25)];
        for result in every_payload() {
            let encoded = EncodedResult::new(result.clone());
            assert_eq!(encoded.kind(), &result);
            for schema_version in MIN_SCHEMA_VERSION..=SCHEMA_VERSION {
                for shard in [None, Some(0), Some(17)] {
                    for (queue_wait_ms, compute_ms) in timings {
                        let response = Response {
                            schema_version,
                            id: u64::MAX - 1,
                            cached: shard.is_some(),
                            micros: 1_234_567,
                            queue_wait_ms,
                            compute_ms,
                            generation: 42,
                            shard,
                            result: result.clone(),
                        };
                        let mut line = Vec::new();
                        write_response_line(&mut line, &response.envelope(), encoded.json());
                        let mut want = serde_json::to_string(&response).unwrap();
                        want.push('\n');
                        assert_eq!(String::from_utf8(line).unwrap(), want);
                    }
                }
            }
        }
        // `Envelope::new` and `Response::new` agree on the defaults.
        let response = Response::new(5, true, 9, ResponseKind::Pong);
        assert_eq!(response.envelope(), Envelope::new(5, true, 9));
    }

    #[test]
    fn an_unencodable_result_becomes_a_typed_internal_error() {
        let nan = ResponseKind::Cell(CellOutcome {
            satisfied: 0,
            violated_permanent: 0,
            unsatisfied_pending: 0,
            mean_messages: f64::NAN,
        });
        assert!(serde_json::to_string(&nan).is_err());
        let payload: ResponseKind = serde_json::from_str(&encode_result(&nan)).unwrap();
        let ResponseKind::Error(e) = payload else {
            panic!("expected an error payload, got {payload:?}");
        };
        assert_eq!(e.code, ErrorCode::Internal);
    }

    #[test]
    fn legacy_v2_request_lines_still_parse() {
        // A v2 client omits every option field; the v3 decoder must
        // default them rather than reject the line.
        let legacy = r#"{"schema_version":2,"id":7,"kind":"Stats"}"#;
        let req: Request = serde_json::from_str(legacy).unwrap();
        assert_eq!(req.schema_version, 2);
        assert_eq!(req.id, 7);
        assert_eq!(req.kind, RequestKind::Stats);
        assert!(req.options.is_default());
        assert!((MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&req.schema_version));

        // An explicit-null deadline also decodes (Option round-trip).
        let with_null = r#"{"schema_version":3,"id":8,"kind":"Health","deadline_ms":null}"#;
        let req: Request = serde_json::from_str(with_null).unwrap();
        assert_eq!(req.options.deadline_ms, None);
    }

    #[test]
    fn request_options_round_trip() {
        let spec = CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable);
        for options in [
            RequestOptions::default(),
            RequestOptions {
                deadline_ms: Some(1),
                priority: 0,
                accept_partial: false,
            },
            RequestOptions {
                deadline_ms: Some(10_000),
                priority: 9,
                accept_partial: true,
            },
        ] {
            let req = Request::with_options(5, RequestKind::Cell(spec.clone()), options);
            let json = serde_json::to_string(&req).unwrap();
            assert_eq!(serde_json::from_str::<Request>(&json).unwrap(), req);
        }
    }

    #[test]
    fn aborted_outcomes_round_trip_with_pinned_reasons() {
        use ktudc_model::AbortReason;

        // The abort-reason vocabulary is part of the wire schema.
        assert_eq!(
            serde_json::to_string(&AbortReason::Deadline).unwrap(),
            r#""Deadline""#
        );
        let aborted = Response::new(
            4,
            false,
            120,
            ResponseKind::Aborted(AbortedOutcome {
                reason: AbortReason::Deadline,
                partial: PartialOutcome::Cell(PartialCell {
                    outcome: CellOutcome {
                        satisfied: 3,
                        violated_permanent: 0,
                        unsatisfied_pending: 0,
                        mean_messages: 9.5,
                    },
                    trials_completed: 3,
                }),
            }),
        );
        let json = serde_json::to_string(&aborted).unwrap();
        assert_eq!(serde_json::from_str::<Response>(&json).unwrap(), aborted);

        let empty = ResponseKind::Aborted(AbortedOutcome {
            reason: AbortReason::StepLimit,
            partial: PartialOutcome::None,
        });
        let json = serde_json::to_string(&empty).unwrap();
        assert_eq!(serde_json::from_str::<ResponseKind>(&json).unwrap(), empty);
    }

    #[test]
    fn envelope_round_trips() {
        let check = Request::new(
            3,
            RequestKind::Check(CheckSpec {
                scenario: ExploreSpec::new(2, 2),
                formula: Formula::crashed(ktudc_model::ProcessId::new(1)),
            }),
        );
        let json = serde_json::to_string(&check).unwrap();
        assert_eq!(serde_json::from_str::<Request>(&json).unwrap(), check);

        let resp = Response::new(
            3,
            true,
            42,
            ResponseKind::Check(CheckOutcome {
                valid: false,
                counterexample: Some(Point::new(4, 2)),
                runs: 17,
                complete: true,
                digest: 0xDEAD_BEEF,
            }),
        );
        let json = serde_json::to_string(&resp).unwrap();
        assert_eq!(serde_json::from_str::<Response>(&json).unwrap(), resp);

        let health = Response::new(
            4,
            false,
            11,
            ResponseKind::Health(HealthReport {
                generation: 3,
                durable: true,
                recovered_cache_entries: 17,
                corrupt_snapshots_skipped: 0,
                store_corrupt_candidates: 1,
                snapshots_written: 2,
                cache_entries: 19,
                queue_depth: 5,
                in_flight: 2,
                stuck_workers: 0,
                steals: 6,
                deepest_queue: 4,
                uptime_micros: 1_000,
            }),
        );
        let json = serde_json::to_string(&health).unwrap();
        assert_eq!(serde_json::from_str::<Response>(&json).unwrap(), health);
    }

    #[test]
    fn endpoints_and_cacheability() {
        assert_eq!(RequestKind::Stats.endpoint(), Endpoint::Stats);
        assert_eq!(RequestKind::Health.endpoint(), Endpoint::Health);
        assert_eq!(
            RequestKind::ClusterHealth.endpoint(),
            Endpoint::ClusterHealth
        );
        assert_eq!(
            RequestKind::Explore(ExploreSpec::new(2, 2)).endpoint(),
            Endpoint::Explore
        );
        assert_eq!(RequestKind::Ping.endpoint(), Endpoint::Ping);
        assert!(RequestKind::Explore(ExploreSpec::new(2, 2)).cacheable());
        assert!(!RequestKind::Stats.cacheable());
        assert!(!RequestKind::Health.cacheable());
        assert!(!RequestKind::ClusterHealth.cacheable());
        assert!(!RequestKind::Ping.cacheable());
        assert!(!RequestKind::Shutdown.cacheable());
    }
}
