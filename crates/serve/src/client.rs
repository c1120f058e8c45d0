//! Blocking clients for the service protocol: three layers over one
//! request surface, [`Call`], whose one required method pipelines a
//! batch and returns the responses **in request order**. [`ServerCall`]
//! adds the accessors that ask the one server at the far end of a
//! connection about itself.
//!
//! - [`Client`] is one connection. A batch writes every request line
//!   before reading any response (the requests pipeline through the
//!   server's worker pool and complete in whatever order they finish),
//!   then reads one line per request and reorders by the echoed `id`s.
//! - [`HardenedClient`] wraps `Client` with the fault-masking policy of
//!   a production caller: per-request socket deadlines,
//!   reconnect-and-resend on a broken or torn connection, and bounded
//!   exponential backoff with deterministic jitter on
//!   [`ErrorCode::Overloaded`]. Resending is safe because the server
//!   deduplicates identical in-flight bodies (single-flight) and
//!   memoizes results, so a retried request can only observe the one
//!   computation.
//! - [`ClusterClient`](crate::cluster::ClusterClient) routes by key and
//!   fails over; `&ClusterClient` is a [`Call`] but not a
//!   [`ServerCall`], which would quietly ask whichever shard owns a key.
//!
//! The salvage machinery is soaked against real wire faults — torn
//! frames, corrupted bytes, mid-response resets, half-open stalls,
//! one-way partitions — through the seeded [`crate::chaosnet`] proxy in
//! `tests/serve_chaosnet.rs`, with [`crate::audit::Auditor`] asserting
//! that every salvage produced a byte-identical answer and every
//! give-up a typed error.

use crate::metrics::StatsReport;
use crate::wire::{
    ClusterHealthReport, ErrorCode, HealthReport, Request, RequestKind, RequestOptions, Response,
    ResponseKind, SCHEMA_VERSION,
};
use ktudc_fd::{ClassifySpec, RegimeVerdict};
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed.
    Io(std::io::Error),
    /// The conversation broke off mid-exchange: the server closed the
    /// connection, sent a torn or garbled (unparseable) line, or
    /// answered a batch short. A fresh connection and a resend can
    /// succeed, so [`HardenedClient`] retries it.
    Torn(String),
    /// The server sent something outside the protocol (a foreign schema
    /// version, an unknown or duplicate id, a mismatched payload kind).
    /// Resending cannot help: the peer is not the protocol partner the
    /// client thinks it is.
    Protocol(String),
    /// A [`HardenedClient`] gave up: every attempt either found the
    /// server overloaded or lost the connection.
    RetriesExhausted {
        /// Attempts made (initial try plus retries).
        attempts: u32,
        /// The failure that ended the final attempt.
        last: String,
    },
    /// The [`HardenedClient`]'s circuit breaker is open: the server shed
    /// [`RetryPolicy::circuit_threshold`] consecutive attempts, so the
    /// client fails fast instead of adding retry load to an overloaded
    /// server. Calls succeed again after a half-open probe gets through.
    CircuitOpen {
        /// Milliseconds until the breaker next allows a probe.
        cooldown_ms: u64,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Torn(msg) => write!(f, "torn conversation: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last failure: {last}")
            }
            ClientError::CircuitOpen { cooldown_ms } => {
                write!(
                    f,
                    "circuit breaker is open; next probe allowed in {cooldown_ms}ms"
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// The request surface every client layer shares: one required method,
/// the rest written once on top of it.
///
/// A typed server-side failure is a *successful* call returning a
/// [`ResponseKind::Error`] payload; `Err` means the conversation itself
/// broke (or, for a fault-masking layer, could not be mended). Every
/// provided method fails as [`Call::batch_with_options`] does.
pub trait Call {
    /// Sends a batch with per-request [`RequestOptions`] (deadline,
    /// priority, partial acceptance) and returns one response per
    /// request, in request order. A deadline-shed request answers with a
    /// typed [`ErrorCode::DeadlineExceeded`] error — still a
    /// *successful* call.
    ///
    /// # Errors
    ///
    /// Whatever the layer cannot mask: any [`ClientError::Io`],
    /// [`ClientError::Torn`] or [`ClientError::Protocol`] for a
    /// [`Client`]; [`ClientError::RetriesExhausted`],
    /// [`ClientError::CircuitOpen`] and protocol violations for a
    /// [`HardenedClient`]; for a cluster, the failure of a request that
    /// exhausted every replica.
    fn batch_with_options(
        &mut self,
        kinds: Vec<(RequestKind, RequestOptions)>,
    ) -> Result<Vec<Response>, ClientError>;

    /// As [`Call::batch_with_options`], every request with default
    /// options.
    fn batch(&mut self, kinds: Vec<RequestKind>) -> Result<Vec<Response>, ClientError> {
        self.batch_with_options(
            kinds
                .into_iter()
                .map(|kind| (kind, RequestOptions::default()))
                .collect(),
        )
    }

    /// Sends one request and waits for its response: the batch of one.
    fn request(&mut self, kind: RequestKind) -> Result<Response, ClientError> {
        self.request_with_options(kind, RequestOptions::default())
    }

    /// As [`Call::request`], with explicit options.
    fn request_with_options(
        &mut self,
        kind: RequestKind,
        options: RequestOptions,
    ) -> Result<Response, ClientError> {
        self.batch_with_options(vec![(kind, options)])?
            .pop()
            .ok_or_else(|| ClientError::Torn("empty batch response".to_string()))
    }

    /// Classifies an empirical detector against a fault regime
    /// (deterministic per spec and memoized, so a resend is harmless).
    ///
    /// # Errors
    ///
    /// As [`Call::request`], plus [`ClientError::Protocol`] when the
    /// server answers with anything but a classification verdict.
    fn classify(&mut self, spec: ClassifySpec) -> Result<RegimeVerdict, ClientError> {
        match self.request(RequestKind::Classify(spec))?.result {
            ResponseKind::Classify(verdict) => Ok(verdict),
            other => Err(unexpected("a classification verdict", &other)),
        }
    }
}

/// The protocol error for a response whose payload is not the kind the
/// call asked for.
fn unexpected(what: &str, got: &ResponseKind) -> ClientError {
    ClientError::Protocol(format!("expected {what}, got {got:?}"))
}

/// The server-scoped accessors of a one-connection layer ([`Client`],
/// [`HardenedClient`]): each asks the one server at the far end about
/// itself, and fails as [`Call::request`] does, or with
/// [`ClientError::Protocol`] when the server answers with a payload of
/// another kind. A cluster has fleet-wide forms instead:
/// [`ClusterClient::stats_per_shard`](crate::cluster::ClusterClient::stats_per_shard),
/// [`ClusterClient::cluster_health`](crate::cluster::ClusterClient::cluster_health)
/// and [`ClusterClient::shutdown_cluster`](crate::cluster::ClusterClient::shutdown_cluster).
pub trait ServerCall: Call {
    /// Fetches a metrics snapshot.
    fn stats(&mut self) -> Result<StatsReport, ClientError> {
        match self.request(RequestKind::Stats)?.result {
            ResponseKind::Stats(report) => Ok(report),
            other => Err(unexpected("a stats payload", &other)),
        }
    }

    /// Fetches a durability health snapshot.
    fn health(&mut self) -> Result<HealthReport, ClientError> {
        match self.request(RequestKind::Health)?.result {
            ResponseKind::Health(report) => Ok(report),
            other => Err(unexpected("a health payload", &other)),
        }
    }

    /// Fetches a cluster health snapshot (per-shard rows + aggregate):
    /// a router's view of its fleet, or a plain worker's one-shard view.
    fn cluster_health(&mut self) -> Result<ClusterHealthReport, ClientError> {
        match self.request(RequestKind::ClusterHealth)?.result {
            ResponseKind::ClusterHealth(report) => Ok(report),
            other => Err(unexpected("a cluster-health payload", &other)),
        }
    }

    /// Sends a heartbeat probe (schema v6); returns the server's
    /// generation from the response envelope. Answered inline by the
    /// server, never queued behind compute — this is the detector
    /// plane's liveness signal.
    fn ping(&mut self) -> Result<u64, ClientError> {
        let response = self.request(RequestKind::Ping)?;
        match response.result {
            ResponseKind::Pong => Ok(response.generation),
            other => Err(unexpected("a pong", &other)),
        }
    }

    /// Asks the server to drain and exit (idempotent, so a resend is
    /// harmless).
    fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.request(RequestKind::Shutdown)?.result {
            ResponseKind::Shutdown => Ok(()),
            other => Err(unexpected("a shutdown acknowledgement", &other)),
        }
    }
}

/// A connection to a `ktudc-serve` daemon.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates connect/clone failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        Client::connect_with_timeout(addr, None)
    }

    /// Connects to a daemon with an optional per-request deadline: both
    /// socket halves time out after `timeout`, so a single read or write
    /// can never block longer than that. A timed-out call surfaces as
    /// [`ClientError::Io`] and leaves the connection unusable (a reply
    /// may still arrive and desynchronize the stream) — reconnect, as
    /// [`HardenedClient`] does.
    ///
    /// # Errors
    ///
    /// Propagates connect/clone/configuration failures.
    pub fn connect_with_timeout<A: ToSocketAddrs>(
        addr: A,
        timeout: Option<Duration>,
    ) -> Result<Client, ClientError> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(timeout)?;
        writer.set_write_timeout(timeout)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            writer,
            reader,
            next_id: 1,
        })
    }

    // `stats` and `ping` stay inherent as well, so callers that name
    // them on a bare `Client` without importing `ServerCall` (the
    // benchmark crate among them) keep compiling.

    /// As [`ServerCall::stats`].
    pub fn stats(&mut self) -> Result<StatsReport, ClientError> {
        ServerCall::stats(self)
    }

    /// As [`ServerCall::ping`].
    pub fn ping(&mut self) -> Result<u64, ClientError> {
        ServerCall::ping(self)
    }

    /// One batch attempt that *salvages*: returns every response read
    /// before the conversation broke (tagged by offset into `kinds`),
    /// plus the breaking error, if any. [`Client`]'s
    /// [`Call::batch_with_options`] is the strict all-or-error wrapper;
    /// [`HardenedClient`] uses the salvaged prefix so a severed
    /// connection only costs the responses not yet read.
    pub(crate) fn batch_attempt(
        &mut self,
        kinds: Vec<(RequestKind, RequestOptions)>,
    ) -> (Vec<(usize, Response)>, Option<ClientError>) {
        let first_id = self.next_id;
        let count = kinds.len();
        let mut got: Vec<(usize, Response)> = Vec::new();
        let outcome = self.send(first_id, kinds).and_then(|()| {
            let mut seen = vec![false; count];
            for _ in 0..count {
                got.push(self.read_response(first_id, &mut seen)?);
            }
            Ok(())
        });
        (got, outcome.err())
    }

    /// Writes the batch's request lines, ids from `first_id` on, in one
    /// write.
    fn send(
        &mut self,
        first_id: u64,
        kinds: Vec<(RequestKind, RequestOptions)>,
    ) -> Result<(), ClientError> {
        let count = kinds.len();
        let mut lines = String::new();
        for (offset, (kind, options)) in kinds.into_iter().enumerate() {
            let request = Request::with_options(first_id + offset as u64, kind, options);
            let encoded = serde_json::to_string(&request)
                .map_err(|e| ClientError::Protocol(format!("request failed to encode: {e}")))?;
            lines.push_str(&encoded);
            lines.push('\n');
        }
        self.next_id += count as u64;
        self.writer.write_all(lines.as_bytes())?;
        Ok(self.writer.flush()?)
    }

    /// Reads one response of the batch whose ids start at `first_id`
    /// and returns it with its offset into the batch; `seen` marks the
    /// offsets already answered.
    fn read_response(
        &mut self,
        first_id: u64,
        seen: &mut [bool],
    ) -> Result<(usize, Response), ClientError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Torn(
                "server closed the connection mid-batch".to_string(),
            ));
        }
        let response: Response = serde_json::from_str(line.trim_end())
            .map_err(|e| ClientError::Torn(format!("unparseable response: {e}")))?;
        if response.schema_version != SCHEMA_VERSION {
            return Err(ClientError::Protocol(format!(
                "response schema_version {}, expected {SCHEMA_VERSION}",
                response.schema_version
            )));
        }
        let offset = response
            .id
            .checked_sub(first_id)
            .map(|o| o as usize)
            .filter(|&o| o < seen.len())
            .ok_or_else(|| {
                ClientError::Protocol(format!("response for unknown id {}", response.id))
            })?;
        if std::mem::replace(&mut seen[offset], true) {
            return Err(ClientError::Protocol(format!(
                "duplicate response for id {}",
                response.id
            )));
        }
        Ok((offset, response))
    }
}

/// Pipelines the batch on this one connection, all or nothing.
impl Call for Client {
    fn batch_with_options(
        &mut self,
        kinds: Vec<(RequestKind, RequestOptions)>,
    ) -> Result<Vec<Response>, ClientError> {
        let (mut got, err) = self.batch_attempt(kinds);
        if let Some(e) = err {
            return Err(e);
        }
        got.sort_unstable_by_key(|&(offset, _)| offset);
        Ok(got.into_iter().map(|(_, response)| response).collect())
    }
}

impl ServerCall for Client {}

/// Retry/backoff policy of a [`HardenedClient`].
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Socket deadline for each read/write (per-request deadline: no
    /// single exchange can hang longer than this).
    pub request_timeout: Duration,
    /// Retries after the initial attempt before giving up with
    /// [`ClientError::RetriesExhausted`]. The budget counts
    /// *consecutive attempts without progress*: an attempt that lands at
    /// least one new response resets it, so a long batch cannot starve
    /// merely because every attempt loses its connection eventually.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each retry.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff sleep.
    pub max_backoff: Duration,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
    /// Consecutive overload sheds (attempts that made no progress and
    /// saw `Overloaded`) before the circuit breaker opens and calls fail
    /// fast with [`ClientError::CircuitOpen`]. The default is 8 —
    /// deliberately above any single call's retry budget
    /// (`max_retries + 1` attempts), so one shed-out call still fails
    /// with [`ClientError::RetriesExhausted`] as before and only
    /// *persistent* shedding across calls trips the breaker. 0 is an
    /// explicit opt-out that disables the breaker entirely.
    pub circuit_threshold: u32,
    /// How long an open circuit rejects calls before letting one
    /// half-open probe through.
    pub circuit_cooldown: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            request_timeout: Duration::from_secs(10),
            max_retries: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            jitter_seed: 0x6b74_7564_6373_7276,
            circuit_threshold: 8,
            circuit_cooldown: Duration::from_millis(250),
        }
    }
}

/// Whether an error means "reconnect and resend" rather than "give up".
///
/// Retriable: any I/O failure (includes deadline expiry) and a torn
/// conversation (a connection closed mid-batch, a torn or unparseable
/// reply — the signature of a short write — or a short batch). Not
/// retriable: protocol violations (schema-version mismatches,
/// id-accounting violations) — those mean the peer is not the protocol
/// partner we think it is, and resending cannot help.
fn retriable(err: &ClientError) -> bool {
    match err {
        ClientError::Io(_) | ClientError::Torn(_) => true,
        ClientError::Protocol(_)
        | ClientError::RetriesExhausted { .. }
        | ClientError::CircuitOpen { .. } => false,
    }
}

/// One step of `splitmix64`: the client-side jitter PRNG. Inlined so the
/// crate needs no RNG dependency; deterministic per [`RetryPolicy::jitter_seed`].
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A noteworthy event observed by a [`HardenedClient`] while masking
/// faults, surfaced so callers can see *why* the masking happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientEvent {
    /// Responses started arriving from a different server generation:
    /// the daemon restarted between two responses this client read.
    /// Everything the dead process held only in memory — its
    /// single-flight waiter lists, its un-snapshotted cache tail — is
    /// gone with it, so the client re-derives outstanding work by
    /// resending it to the new process instead of trusting any answer
    /// the old one promised.
    ServerRestarted {
        /// Generation of the responses read before the change.
        old_gen: u64,
        /// Generation of the response that revealed the restart.
        new_gen: u64,
    },
}

/// Counters of what a [`HardenedClient`] has masked or observed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientMetrics {
    /// Connections established after the first one (reconnections).
    pub reconnects: u64,
    /// Backoff sleeps taken (overload sheds and transport failures).
    pub backoffs: u64,
    /// Server restarts detected via a response generation change.
    pub server_restarts: u64,
    /// Times the circuit breaker opened after consecutive sheds.
    pub circuit_opens: u64,
    /// Backoff sleeps stretched to honor a server `retry_after_ms` hint
    /// larger than the computed backoff.
    pub retry_hints_honored: u64,
}

/// A self-healing client: [`Client`] plus deadlines, reconnection, and
/// bounded jittered backoff.
///
/// Construction never touches the network; the connection is established
/// lazily and re-established whenever an attempt loses it. On a
/// transport failure the *entire outstanding remainder* of a batch is
/// resent on a fresh connection — safe because the server computes each
/// distinct body at most once (single-flight + memoization), so a
/// resend returns the original computation's payload. On
/// [`ErrorCode::Overloaded`] only the shed requests are retried, after a
/// backoff sleep in `[cap/2, cap]` where `cap` doubles per retry up to
/// [`RetryPolicy::max_backoff`].
pub struct HardenedClient {
    addr: String,
    policy: RetryPolicy,
    conn: Option<Client>,
    jitter_state: u64,
    ever_connected: bool,
    /// Generation of the last response read; `None` until the first one.
    last_generation: Option<u64>,
    /// Consecutive zero-progress attempts shed with `Overloaded`, for
    /// the circuit breaker.
    consecutive_sheds: u32,
    /// While `Some`, the breaker is open and calls fail fast until the
    /// instant passes (then one half-open probe is allowed).
    circuit_open_until: Option<Instant>,
    metrics: ClientMetrics,
    events: Vec<ClientEvent>,
}

impl HardenedClient {
    /// Creates a client for `addr` (no connection is made yet).
    #[must_use]
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> HardenedClient {
        HardenedClient {
            addr: addr.into(),
            policy,
            conn: None,
            jitter_state: policy.jitter_seed,
            ever_connected: false,
            last_generation: None,
            consecutive_sheds: 0,
            circuit_open_until: None,
            metrics: ClientMetrics::default(),
            events: Vec::new(),
        }
    }

    /// What this client has masked and observed so far.
    #[must_use]
    pub fn metrics(&self) -> ClientMetrics {
        self.metrics
    }

    /// Drains the accumulated [`ClientEvent`]s (oldest first).
    pub fn take_events(&mut self) -> Vec<ClientEvent> {
        std::mem::take(&mut self.events)
    }

    /// The address this client connects to.
    pub(crate) fn addr(&self) -> &str {
        &self.addr
    }

    /// The server generation observed on the most recent response.
    #[must_use]
    pub fn last_generation(&self) -> Option<u64> {
        self.last_generation
    }

    /// Tracks the generation stamped on a response; returns `true` when
    /// it reveals a server restart (the generation changed between two
    /// responses this client read).
    fn observe_generation(&mut self, generation: u64) -> bool {
        let restarted = match self.last_generation {
            Some(old) if old != generation => {
                self.metrics.server_restarts += 1;
                self.events.push(ClientEvent::ServerRestarted {
                    old_gen: old,
                    new_gen: generation,
                });
                true
            }
            _ => false,
        };
        self.last_generation = Some(generation);
        restarted
    }

    /// The backoff sleep before retry number `attempt` (1-based): a
    /// deterministic jitter in `[cap/2, cap]`, `cap` doubling from
    /// [`RetryPolicy::base_backoff`] up to [`RetryPolicy::max_backoff`].
    fn backoff_delay(&mut self, attempt: u32) -> Duration {
        let base = u64::try_from(self.policy.base_backoff.as_millis())
            .unwrap_or(u64::MAX)
            .max(1);
        let max = u64::try_from(self.policy.max_backoff.as_millis())
            .unwrap_or(u64::MAX)
            .max(1);
        let exp = attempt.saturating_sub(1).min(16);
        let cap = base.saturating_mul(1 << exp).min(max);
        let low = cap.div_ceil(2);
        let jitter = splitmix64(&mut self.jitter_state) % (cap - low + 1);
        Duration::from_millis(low + jitter)
    }

    /// Records a failed attempt; returns the terminal error once the
    /// budget is spent, otherwise sleeps the backoff and allows another.
    /// The sleep is stretched to `min_delay` when the server's
    /// `retry_after_ms` hint asks for longer than the computed backoff —
    /// the server knows its queue, the client only knows its schedule.
    fn spend_attempt(
        &mut self,
        attempts: &mut u32,
        last: &str,
        min_delay: Duration,
    ) -> Result<(), ClientError> {
        *attempts += 1;
        if *attempts > self.policy.max_retries {
            return Err(ClientError::RetriesExhausted {
                attempts: *attempts,
                last: last.to_string(),
            });
        }
        self.metrics.backoffs += 1;
        let backoff = self.backoff_delay(*attempts);
        if min_delay > backoff {
            self.metrics.retry_hints_honored += 1;
        }
        std::thread::sleep(backoff.max(min_delay));
        Ok(())
    }

    /// Applies one shed observation to the breaker. Returns the fail-fast
    /// error when this shed opens the circuit (threshold reached).
    fn note_shed(&mut self) -> Result<(), ClientError> {
        self.consecutive_sheds = self.consecutive_sheds.saturating_add(1);
        if self.policy.circuit_threshold > 0
            && self.consecutive_sheds >= self.policy.circuit_threshold
        {
            self.metrics.circuit_opens += 1;
            self.circuit_open_until = Some(Instant::now() + self.policy.circuit_cooldown);
            return Err(ClientError::CircuitOpen {
                cooldown_ms: u64::try_from(self.policy.circuit_cooldown.as_millis())
                    .unwrap_or(u64::MAX),
            });
        }
        Ok(())
    }
}

/// [`Call::batch_with_options`], masking transport faults and overload.
///
/// Returns responses in request order. Typed per-request failures other
/// than `Overloaded` (e.g. `BadRequest`) are still *successful*
/// responses, exactly as with the plain client. Responses salvaged from
/// an attempt that later lost its connection are kept — only the
/// still-unanswered requests are resent.
///
/// Only `Overloaded` sheds are retried. A `DeadlineExceeded` error is
/// *final* — the request's own time ran out, and a retry would spend a
/// fresh deadline on work the caller declared stale — and so is a
/// [`ResponseKind::Aborted`] partial (`accept_partial`): both fill
/// their slot like any other typed response.
impl Call for HardenedClient {
    fn batch_with_options(
        &mut self,
        kinds: Vec<(RequestKind, RequestOptions)>,
    ) -> Result<Vec<Response>, ClientError> {
        // Fail fast while the breaker is open; once the cooldown passes,
        // this call proceeds as the half-open probe.
        if let Some(until) = self.circuit_open_until {
            let now = Instant::now();
            if now < until {
                return Err(ClientError::CircuitOpen {
                    cooldown_ms: u64::try_from((until - now).as_millis()).unwrap_or(u64::MAX),
                });
            }
        }
        let total = kinds.len();
        let mut slots: Vec<Option<Response>> = Vec::new();
        slots.resize_with(total, || None);
        let mut attempts: u32 = 0;
        loop {
            let outstanding: Vec<usize> = (0..total).filter(|&i| slots[i].is_none()).collect();
            if outstanding.is_empty() {
                return Ok(slots.into_iter().flatten().collect());
            }
            if self.conn.is_none() {
                match Client::connect_with_timeout(&self.addr, Some(self.policy.request_timeout)) {
                    Ok(conn) => {
                        if self.ever_connected {
                            self.metrics.reconnects += 1;
                        }
                        self.ever_connected = true;
                        self.conn = Some(conn);
                    }
                    Err(e) => {
                        self.spend_attempt(&mut attempts, &e.to_string(), Duration::ZERO)?;
                        continue;
                    }
                }
            }
            let conn = self.conn.as_mut().expect("connection just established");
            // After a zero-progress attempt, narrow to a single request:
            // a periodic server fault can align with a fixed batch size
            // so that the same request is always the one lost, and
            // shrinking the batch breaks that alignment (it also eases
            // the queue pressure behind an overload).
            let selected: Vec<usize> = if attempts > 0 {
                vec![outstanding[0]]
            } else {
                outstanding.clone()
            };
            let resend: Vec<(RequestKind, RequestOptions)> =
                selected.iter().map(|&i| kinds[i].clone()).collect();
            let (got, err) = conn.batch_attempt(resend);
            let mut progress = false;
            let mut shed: Option<(String, u64)> = None;
            let mut restarted = false;
            for (offset, response) in got {
                restarted |= self.observe_generation(response.generation);
                match &response.result {
                    ResponseKind::Error(e) if e.code == ErrorCode::Overloaded => {
                        shed = Some((e.message.clone(), e.retry_after_ms));
                    }
                    _ => {
                        slots[selected[offset]] = Some(response);
                        progress = true;
                    }
                }
            }
            // Progress resets the no-progress budget; so does a detected
            // restart — the process whose overload or in-flight state we
            // were waiting out no longer exists, so stale evidence must
            // not burn retries against its replacement.
            if progress || restarted {
                attempts = 0;
            }
            if progress {
                // The server accepted work: the overload the breaker was
                // counting has lifted (also closes a half-open circuit).
                self.consecutive_sheds = 0;
                self.circuit_open_until = None;
            }
            match err {
                None => {
                    if let Some((message, retry_after_ms)) = shed {
                        if !progress {
                            self.note_shed()?;
                        }
                        self.spend_attempt(
                            &mut attempts,
                            &message,
                            Duration::from_millis(retry_after_ms),
                        )?;
                    }
                }
                Some(e) if retriable(&e) => {
                    self.conn = None;
                    self.spend_attempt(&mut attempts, &e.to_string(), Duration::ZERO)?;
                }
                Some(e) => {
                    // A contract violation leaves unread lines behind:
                    // the next call on this socket would read them as
                    // its own answers.
                    self.conn = None;
                    return Err(e);
                }
            }
        }
    }
}

impl ServerCall for HardenedClient {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(8),
            max_backoff: Duration::from_millis(100),
            ..RetryPolicy::default()
        };
        let delays: Vec<Duration> = {
            let mut c = HardenedClient::new("unused:0", policy);
            (1..=8).map(|a| c.backoff_delay(a)).collect()
        };
        let again: Vec<Duration> = {
            let mut c = HardenedClient::new("unused:0", policy);
            (1..=8).map(|a| c.backoff_delay(a)).collect()
        };
        assert_eq!(delays, again, "same seed must give the same schedule");
        for (i, d) in delays.iter().enumerate() {
            let attempt = i as u32 + 1;
            let cap = 8u64.saturating_mul(1 << (attempt - 1)).min(100);
            let ms = u64::try_from(d.as_millis()).unwrap();
            assert!(
                ms >= cap.div_ceil(2) && ms <= cap,
                "attempt {attempt}: {ms}ms outside [{}, {cap}]",
                cap.div_ceil(2)
            );
        }
        // The cap binds from attempt 5 on (8 << 4 = 128 > 100).
        assert!(delays[7] <= Duration::from_millis(100));
    }

    #[test]
    fn transport_faults_are_retriable_but_contract_violations_are_not() {
        assert!(retriable(&ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::WouldBlock,
            "read deadline expired"
        ))));
        assert!(retriable(&ClientError::Torn(
            "server closed the connection mid-batch".to_string()
        )));
        assert!(retriable(&ClientError::Torn(
            "unparseable response: EOF while parsing".to_string()
        )));
        assert!(retriable(&ClientError::Torn(
            "empty batch response".to_string()
        )));
        assert!(!retriable(&ClientError::Protocol(
            "response schema_version 9, expected 2".to_string()
        )));
        assert!(!retriable(&ClientError::Protocol(
            "duplicate response for id 3".to_string()
        )));
        // The variant decides, never the wording of the message.
        assert!(!retriable(&ClientError::Protocol(
            "server closed the connection mid-batch".to_string()
        )));
        assert!(!retriable(&ClientError::RetriesExhausted {
            attempts: 6,
            last: "queue full".to_string()
        }));
        assert!(!retriable(&ClientError::CircuitOpen { cooldown_ms: 250 }));
    }

    #[test]
    fn a_closed_or_garbled_conversation_is_torn() {
        use std::net::TcpListener;
        // The stub's first connection answers with a garbled line, its
        // second closes without answering.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
        let addr = listener.local_addr().expect("stub addr").to_string();
        std::thread::spawn(move || {
            for (nth, stream) in listener.incoming().enumerate() {
                let Ok(stream) = stream else { continue };
                let mut writer = stream.try_clone().expect("clone stub stream");
                let mut line = String::new();
                let _ = BufReader::new(stream).read_line(&mut line);
                if nth == 0 {
                    let _ = writer.write_all(b"{\"schema_version\":6,\"id\n");
                }
            }
        });
        for expected in ["unparseable response", "closed the connection"] {
            let mut c = Client::connect(&addr).expect("connect");
            match c.request(RequestKind::Ping) {
                Err(ClientError::Torn(msg)) => assert!(msg.contains(expected), "{msg}"),
                other => panic!("expected a torn conversation, got {other:?}"),
            }
        }
    }

    #[test]
    fn circuit_breaker_opens_at_threshold_and_closes_on_progress() {
        let mut c = HardenedClient::new(
            "unused:0",
            RetryPolicy {
                circuit_threshold: 3,
                circuit_cooldown: Duration::from_secs(60),
                ..RetryPolicy::default()
            },
        );
        assert!(c.note_shed().is_ok());
        assert!(c.note_shed().is_ok());
        let opened = c.note_shed();
        assert!(matches!(opened, Err(ClientError::CircuitOpen { .. })));
        assert_eq!(c.metrics().circuit_opens, 1);
        assert!(c.circuit_open_until.is_some());
        // While open, calls fail fast without touching the network (the
        // address is unresolvable, so reaching the connect path would
        // error differently).
        let err = c.batch(vec![RequestKind::Stats]).unwrap_err();
        assert!(matches!(err, ClientError::CircuitOpen { .. }));
        // What progress does in batch(): resets the streak and closes
        // the breaker.
        c.consecutive_sheds = 0;
        c.circuit_open_until = None;
        assert!(c.note_shed().is_ok());
    }

    #[test]
    fn disabled_breaker_never_opens() {
        // 0 is the explicit opt-out (the pre-default behavior).
        let mut c = HardenedClient::new(
            "unused:0",
            RetryPolicy {
                circuit_threshold: 0,
                ..RetryPolicy::default()
            },
        );
        for _ in 0..100 {
            assert!(c.note_shed().is_ok());
        }
        assert_eq!(c.metrics().circuit_opens, 0);
        assert!(c.circuit_open_until.is_none());
    }

    #[test]
    fn default_breaker_is_armed_above_one_calls_retry_budget() {
        let policy = RetryPolicy::default();
        assert!(
            policy.circuit_threshold > 0,
            "the breaker must be on by default"
        );
        // A single call sheds at most max_retries + 1 consecutive times
        // before RetriesExhausted; the default threshold must sit above
        // that so one shed-out call never trips the breaker by itself.
        assert!(policy.circuit_threshold > policy.max_retries + 1);
        let mut c = HardenedClient::new("unused:0", policy);
        for _ in 0..policy.max_retries + 1 {
            assert!(c.note_shed().is_ok());
        }
        assert_eq!(c.metrics().circuit_opens, 0);
        // Persistent shedding past the threshold does open it.
        let mut last = c.note_shed();
        while last.is_ok() {
            last = c.note_shed();
        }
        assert!(matches!(last, Err(ClientError::CircuitOpen { .. })));
        assert_eq!(c.metrics().circuit_opens, 1);
    }

    #[test]
    fn retry_hint_stretches_but_never_shortens_the_backoff() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            max_retries: 2,
            ..RetryPolicy::default()
        };
        let mut c = HardenedClient::new("unused:0", policy);
        let mut attempts = 0;
        // A hint above the computed backoff is honored (and counted).
        let before = Instant::now();
        c.spend_attempt(&mut attempts, "shed", Duration::from_millis(20))
            .unwrap();
        assert!(before.elapsed() >= Duration::from_millis(20));
        assert_eq!(c.metrics().retry_hints_honored, 1);
        // A zero hint leaves the (tiny) backoff alone.
        c.spend_attempt(&mut attempts, "shed", Duration::ZERO)
            .unwrap();
        assert_eq!(c.metrics().retry_hints_honored, 1);
        // The budget still runs out as before.
        assert!(matches!(
            c.spend_attempt(&mut attempts, "shed", Duration::ZERO),
            Err(ClientError::RetriesExhausted { attempts: 3, .. })
        ));
    }

    #[test]
    fn generation_changes_surface_as_server_restarted_events() {
        let mut c = HardenedClient::new("unused:0", RetryPolicy::default());
        assert_eq!(c.last_generation(), None);
        // First observation establishes the baseline, no event.
        assert!(!c.observe_generation(3));
        // Same generation: steady state.
        assert!(!c.observe_generation(3));
        assert_eq!(c.metrics().server_restarts, 0);
        assert!(c.take_events().is_empty());
        // A different generation is a restart.
        assert!(c.observe_generation(4));
        assert_eq!(c.metrics().server_restarts, 1);
        assert_eq!(
            c.take_events(),
            vec![ClientEvent::ServerRestarted {
                old_gen: 3,
                new_gen: 4
            }]
        );
        // Events drain; metrics persist.
        assert!(c.take_events().is_empty());
        assert!(c.observe_generation(7));
        assert_eq!(c.metrics().server_restarts, 2);
        assert_eq!(c.last_generation(), Some(7));
    }

    #[test]
    fn a_protocol_violation_drops_the_connection() {
        use std::net::TcpListener;
        // A stub whose first connection writes one stray line (an answer
        // to an id nobody sent) ahead of its real answer; every later
        // connection is clean.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
        let addr = listener.local_addr().expect("stub addr").to_string();
        std::thread::spawn(move || {
            for (nth, stream) in listener.incoming().enumerate() {
                let Ok(stream) = stream else { continue };
                std::thread::spawn(move || {
                    let mut writer = stream.try_clone().expect("clone stub stream");
                    let mut stray = nth == 0;
                    for line in BufReader::new(stream).lines() {
                        let Ok(line) = line else { return };
                        let Ok(request) = serde_json::from_str::<Request>(&line) else {
                            return;
                        };
                        let mut out = String::new();
                        if std::mem::take(&mut stray) {
                            let junk =
                                Response::new(request.id + 1000, false, 0, ResponseKind::Pong);
                            out.push_str(&serde_json::to_string(&junk).expect("encode"));
                            out.push('\n');
                        }
                        let answer = Response::new(request.id, false, 0, ResponseKind::Pong);
                        out.push_str(&serde_json::to_string(&answer).expect("encode"));
                        out.push('\n');
                        if writer.write_all(out.as_bytes()).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        let mut c = HardenedClient::new(addr, RetryPolicy::default());
        // The stray answer is a contract violation: not retriable.
        assert!(matches!(
            c.request(RequestKind::Ping),
            Err(ClientError::Protocol(msg)) if msg.contains("unknown id")
        ));
        // The desynchronized socket must not serve the next call: it
        // would read the previous call's answer as its own.
        for _ in 0..3 {
            let resp = c
                .request(RequestKind::Ping)
                .expect("fresh connection answers");
            assert_eq!(resp.result, ResponseKind::Pong);
        }
        assert_eq!(c.metrics().reconnects, 1);
    }
}
