//! The cluster router: a front-end process that consistent-hashes
//! requests onto worker shards.
//!
//! The router speaks the same newline-JSON protocol as a worker, so any
//! existing client (plain, hardened, `ctl`) can point at it unchanged.
//! Per request it computes the canonical-JSON cache key, walks the
//! ring's replica order, and forwards over a per-shard pool of
//! [`HardenedClient`](crate::client::HardenedClient) connections —
//! multiple checkouts per shard, so a pipelined batch fans out across
//! shards *and* keeps each worker's own pool busy instead of serializing
//! behind one connection.
//!
//! Routing, failover, generation tracking and the health fan-out are
//! one engine (`serve::failover`) shared with
//! [`ClusterClient`](crate::cluster::ClusterClient): a transport
//! failure, exhausted retries, or an open breaker moves to the next
//! replica, as does a typed `Overloaded`/`DeadlineExceeded` shed (kept
//! as the answer of last resort so a saturated cluster still answers
//! with its own typed shed, never an invented error). Forwarded
//! responses keep the *worker's* generation and gain a `shard` stamp,
//! so clients track restarts per worker rather than per connection. The
//! router adds only its own admission: a bounded forwarding pool.
//!
//! What the router answers itself: `Stats` (its own forwarding
//! metrics, plus live [`SuspicionStats`](crate::metrics::SuspicionStats)
//! when the detector plane is on), `Health` (its own non-durable
//! report), `ClusterHealth` (live per-shard probes + aggregate,
//! annotated with per-shard φ and suspicion), `Ping` (inline liveness,
//! never queued behind forwarding), and `Shutdown` (drains the router;
//! workers are *not* shut down — they belong to their supervisor, and a
//! router bounce must not take the fleet down).
//!
//! With a [`DetectorConfig`] (the default), the router also runs the
//! live failure-detector plane ([`crate::detector`]): suspected shards
//! are demoted to the back of the replica order at forward time, so a
//! dead shard's keys stop paying its connection timeout as soon as φ
//! crosses the threshold. The router deliberately does *not* hedge —
//! hedging is the client-side latency policy
//! ([`ClusterClient`](crate::cluster::ClusterClient)); a fan-in point
//! duplicating every soft-suspect request would multiply fleet load
//! exactly when the fleet is struggling.

use crate::client::RetryPolicy;
use crate::cluster::Membership;
use crate::conn::{self, Outbox};
use crate::detector::DetectorConfig;
use crate::failover::Shards;
use crate::metrics::{Metrics, PoolCounters};
use crate::server::ServerFaults;
use crate::wire::{
    encode_result, ErrorCode, HealthReport, Request, RequestKind, RequestOptions, Response,
    ResponseKind, MAX_REQUEST_LINE_BYTES, MIN_SCHEMA_VERSION, SCHEMA_VERSION,
};
use ktudc_par::{Pool, SubmitError};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the accept loop re-checks the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Router configuration.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Bind address; port 0 for an ephemeral port (resolved address on
    /// [`RouterHandle::addr`]).
    pub addr: String,
    /// Retry/backoff policy for each forwarding connection. One
    /// worker-side exchange per forwarded request rides on this.
    pub policy: RetryPolicy,
    /// Forwarding threads: how many requests the router relays
    /// concurrently. 0 means one per available core.
    pub workers: usize,
    /// Forwarding jobs queued beyond the active ones before the router
    /// sheds with `Overloaded` (its own backpressure, in front of the
    /// workers' per-shard admission control).
    pub queue_capacity: usize,
    /// Per-connection idle read deadline on the client side, in
    /// milliseconds; 0 disables it. Same semantics as
    /// [`ServeConfig::idle_timeout_ms`](crate::server::ServeConfig::idle_timeout_ms).
    pub idle_timeout_ms: u64,
    /// Live failure-detector plane tuning; `None` disables the plane
    /// (no heartbeats, reactive failover only). On by default: suspected
    /// shards are demoted at forward time before any request has to eat
    /// their timeout.
    pub detector: Option<DetectorConfig>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            policy: RetryPolicy::default(),
            workers: 0,
            queue_capacity: 128,
            idle_timeout_ms: 60_000,
            detector: Some(DetectorConfig::default()),
        }
    }
}

struct RouterShared {
    /// Ring, forwarding connections, generation tracking, failover
    /// accounting and the live suspicion plane.
    shards: Shards,
    /// `None` once shutdown has taken the pool for draining.
    pool: Mutex<Option<Pool>>,
    /// Shared with every connection's [`Outbox`] (response and flush
    /// counts).
    metrics: Arc<Metrics>,
    workers: usize,
    queue_capacity: usize,
    /// Per-connection idle read deadline; `None` disables reaping.
    idle_timeout: Option<Duration>,
    shutdown: AtomicBool,
}

impl RouterShared {
    /// The router's own (non-durable) health report: its forwarding
    /// queue and uptime. Per-worker generations are in `ClusterHealth`;
    /// observed restarts in [`RouterHandle::restarts_observed`].
    fn health_report(&self) -> HealthReport {
        let (queue_depth, in_flight) = self
            .pool
            .lock()
            .expect("pool lock poisoned")
            .as_ref()
            .map_or((0, 0), |p| (p.queue_depth(), p.in_flight()));
        HealthReport {
            generation: 0,
            durable: false,
            recovered_cache_entries: 0,
            corrupt_snapshots_skipped: 0,
            store_corrupt_candidates: 0,
            snapshots_written: 0,
            cache_entries: 0,
            queue_depth,
            in_flight,
            stuck_workers: 0,
            steals: 0,
            deepest_queue: 0,
            uptime_micros: self.metrics.uptime_micros(),
        }
    }
}

/// A handle to a running router.
///
/// Dropping the handle shuts the router down (and drains in-flight
/// forwards) if it is still running. Workers are never shut down by the
/// router — they belong to their supervisor or operator.
pub struct RouterHandle {
    addr: SocketAddr,
    shared: Arc<RouterShared>,
    accept: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The address actually bound (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown: stop accepting, drain forwards, exit. Returns
    /// immediately; use [`RouterHandle::join`] to wait.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested (locally or by a client).
    #[must_use]
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Requests answered by a replica other than their owner shard.
    #[must_use]
    pub fn failovers(&self) -> u64 {
        self.shared.shards.failovers()
    }

    /// Worker restarts the router has observed via generation changes.
    #[must_use]
    pub fn restarts_observed(&self) -> u64 {
        self.shared.shards.restarts()
    }

    /// The router's live suspicion counters; `None` when the detector
    /// plane is disabled.
    #[must_use]
    pub fn suspicion_stats(&self) -> Option<crate::metrics::SuspicionStats> {
        self.shared.shards.detector().map(|p| p.stats())
    }

    /// Blocks until the router has stopped accepting and drained every
    /// in-flight forward. Waits for a shutdown request if none was made.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            accept.join().expect("router accept thread panicked");
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        if let Some(accept) = self.accept.take() {
            self.shutdown();
            let _ = accept.join();
        }
    }
}

/// Binds and starts a router over `membership`.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve_router(
    config: &RouterConfig,
    membership: Arc<Membership>,
) -> std::io::Result<RouterHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let workers = if config.workers == 0 {
        ktudc_par::thread_count()
    } else {
        config.workers
    };
    let mut shards = Shards::new(membership, config.policy);
    if let Some(detector) = config.detector {
        shards.start_detector(detector);
    }
    let shared = Arc::new(RouterShared {
        shards,
        pool: Mutex::new(Some(Pool::new(workers, config.queue_capacity))),
        metrics: Arc::new(Metrics::new()),
        workers,
        queue_capacity: config.queue_capacity,
        idle_timeout: (config.idle_timeout_ms > 0)
            .then(|| Duration::from_millis(config.idle_timeout_ms)),
        shutdown: AtomicBool::new(false),
    });
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&listener, &shared))
    };
    Ok(RouterHandle {
        addr,
        shared,
        accept: Some(accept),
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<RouterShared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                let shared = Arc::clone(shared);
                std::thread::spawn(move || connection_loop(&shared, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    // Drain: take the pool so late submitters see ShuttingDown, then let
    // every accepted forward finish and answer before returning.
    let pool = shared.pool.lock().expect("pool lock poisoned").take();
    if let Some(pool) = pool {
        pool.shutdown();
    }
    if let Some(plane) = shared.shards.detector() {
        plane.stop();
    }
}

fn connection_loop(shared: &Arc<RouterShared>, stream: TcpStream) {
    let Ok((reader, out)) = conn::open(
        stream,
        shared.idle_timeout,
        MAX_REQUEST_LINE_BYTES,
        &shared.metrics,
        ServerFaults::default(),
    ) else {
        return;
    };
    // The router's own answers carry generation 0; only forwarded ones
    // carry a worker's.
    reader.serve(0, &shared.shutdown, |line| {
        handle_line(shared, line, &out);
    });
}

fn handle_line(shared: &Arc<RouterShared>, line: &str, out: &Arc<Outbox>) {
    let request: Request = match serde_json::from_str(line) {
        Ok(r) => r,
        Err(e) => {
            shared.metrics.record_malformed();
            respond(
                out,
                SCHEMA_VERSION,
                Response::error(0, ErrorCode::BadRequest, e.to_string()),
            );
            return;
        }
    };
    if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&request.schema_version) {
        respond(
            out,
            SCHEMA_VERSION,
            Response::error(
                request.id,
                ErrorCode::UnsupportedVersion,
                format!(
                    "request schema_version {} but this router speaks \
                     {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION}",
                    request.schema_version
                ),
            ),
        );
        return;
    }
    let version = request.schema_version;
    let endpoint = request.kind.endpoint();
    let start = Instant::now();
    match request.kind {
        RequestKind::Stats => {
            let (queue_depth, steals, deepest_queue) = shared
                .pool
                .lock()
                .expect("pool lock poisoned")
                .as_ref()
                .map_or((0, 0, 0), |p| {
                    let s = p.stats();
                    (p.queue_depth(), s.steals, s.deepest_queue)
                });
            let mut report = shared.metrics.report(
                PoolCounters {
                    workers: shared.workers,
                    queue_depth,
                    queue_capacity: shared.queue_capacity,
                    steals,
                    deepest_queue,
                },
                0,
                0,
            );
            if let Some(plane) = shared.shards.detector() {
                report.suspicion = Some(plane.stats());
            }
            let micros = elapsed_micros(start);
            shared.metrics.record(endpoint, micros, false);
            respond(
                out,
                version,
                Response::new(request.id, false, micros, ResponseKind::Stats(report)),
            );
        }
        RequestKind::Health => {
            let report = shared.health_report();
            let micros = elapsed_micros(start);
            shared.metrics.record(endpoint, micros, false);
            respond(
                out,
                version,
                Response::new(request.id, false, micros, ResponseKind::Health(report)),
            );
        }
        RequestKind::ClusterHealth => {
            // The probe fan-out waits out a dead shard's timeout; inline
            // answers queued ahead of this one must not wait with it.
            out.flush();
            let report = shared.shards.cluster_health();
            let micros = elapsed_micros(start);
            shared.metrics.record(endpoint, micros, false);
            respond(
                out,
                version,
                Response::new(
                    request.id,
                    false,
                    micros,
                    ResponseKind::ClusterHealth(report),
                ),
            );
        }
        RequestKind::Ping => {
            // The router proves its own liveness: answered inline, never
            // queued behind forwarding (a saturated router still pongs).
            let micros = elapsed_micros(start);
            shared.metrics.record(endpoint, micros, false);
            respond(
                out,
                version,
                Response::new(request.id, false, micros, ResponseKind::Pong),
            );
        }
        RequestKind::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            let micros = elapsed_micros(start);
            shared.metrics.record(endpoint, micros, false);
            respond(
                out,
                version,
                Response::new(request.id, false, micros, ResponseKind::Shutdown),
            );
        }
        kind @ (RequestKind::Cell(_)
        | RequestKind::Check(_)
        | RequestKind::Explore(_)
        | RequestKind::Classify(_)) => {
            dispatch_forward(
                shared,
                request.id,
                version,
                kind,
                request.options,
                start,
                out,
            );
        }
    }
}

/// Queues one forwarding job on the router's bounded pool, shedding
/// typed `Overloaded` when it is full — the router's own backpressure,
/// in front of each worker's admission control.
fn dispatch_forward(
    shared: &Arc<RouterShared>,
    id: u64,
    version: u32,
    kind: RequestKind,
    options: RequestOptions,
    start: Instant,
    out: &Arc<Outbox>,
) {
    let endpoint = kind.endpoint();
    let job = {
        let shared = Arc::clone(shared);
        let out = Arc::clone(out);
        move || {
            let (order, attempted) = shared.shards.order(&kind);
            let response = match shared.shards.try_order(&kind, options, &order, attempted) {
                Ok(mut resp) => {
                    resp.id = id;
                    shared
                        .metrics
                        .record(endpoint, elapsed_micros(start), resp.cached);
                    resp
                }
                Err(e) => {
                    shared.metrics.record_error(endpoint);
                    Response::error(
                        id,
                        ErrorCode::Internal,
                        format!("every replica failed: {e}"),
                    )
                }
            };
            respond(&out, version, response);
        }
    };
    let submitted = {
        let pool = shared.pool.lock().expect("pool lock poisoned");
        match pool.as_ref() {
            Some(pool) => pool.try_execute(job),
            None => Err(SubmitError::Closed),
        }
    };
    match submitted {
        Ok(()) => {}
        Err(SubmitError::Full) => {
            shared.metrics.record_overload(endpoint);
            respond(
                out,
                version,
                Response::error_with_retry(
                    id,
                    ErrorCode::Overloaded,
                    "router forwarding queue is full",
                    1,
                ),
            );
        }
        Err(SubmitError::Closed) => {
            shared.metrics.record_error(endpoint);
            respond(
                out,
                version,
                Response::error(id, ErrorCode::ShuttingDown, "router is draining"),
            );
        }
    }
}

/// Queues one response line on the connection. Unlike the worker's
/// `respond` this never overwrites `generation` — a forwarded response
/// carries the answering *worker's* generation, which is the whole point
/// of per-shard restart tracking. The version is rewritten to the one
/// the requester spoke.
fn respond(out: &Outbox, version: u32, response: Response) {
    let mut envelope = response.envelope();
    envelope.schema_version = version;
    out.send(&envelope, &encode_result(&response.result));
}

fn elapsed_micros(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::cluster::ClusterClient;
    use crate::server::{serve, ServeConfig};
    use ktudc_core::harness::{run_cell, CellSpec, FdChoice, ProtocolChoice};

    fn quick_policy() -> RetryPolicy {
        RetryPolicy {
            max_retries: 1,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            ..RetryPolicy::default()
        }
    }

    fn start_workers(n: usize) -> (Vec<crate::server::ServerHandle>, Arc<Membership>) {
        let servers: Vec<_> = (0..n)
            .map(|_| {
                serve(&ServeConfig {
                    workers: 1,
                    ..ServeConfig::default()
                })
                .expect("serve worker")
            })
            .collect();
        let membership = Arc::new(Membership::new(
            servers.iter().map(|s| s.addr().to_string()).collect(),
        ));
        (servers, membership)
    }

    #[test]
    fn router_answers_are_identical_to_direct_computation() {
        let (workers, membership) = start_workers(2);
        let router = serve_router(
            &RouterConfig {
                policy: quick_policy(),
                workers: 4,
                ..RouterConfig::default()
            },
            membership,
        )
        .expect("router");

        let mut client = Client::connect(router.addr()).expect("connect");
        for i in 0..4u64 {
            let spec = CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable)
                .trials(1)
                .horizon(40 + i);
            let resp = client
                .request(RequestKind::Cell(spec.clone()))
                .expect("routed cell");
            let ResponseKind::Cell(outcome) = resp.result else {
                panic!("expected a cell payload, got {:?}", resp.result);
            };
            assert_eq!(outcome, run_cell(&spec), "routed answer must equal direct");
            assert!(resp.shard.is_some(), "router must stamp the shard");
        }
        // A repeated spec hits the owning worker's cache through the
        // router (same key -> same shard).
        let spec = CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable)
            .trials(1)
            .horizon(40);
        let resp = client
            .request(RequestKind::Cell(spec))
            .expect("warm routed cell");
        assert!(resp.cached, "resent spec must be a shard cache hit");
        drop(client);
        router.shutdown();
        for w in workers {
            w.shutdown();
        }
    }

    #[test]
    fn router_fails_over_when_a_shard_is_down_and_reports_cluster_health() {
        let (workers, membership) = start_workers(2);
        // Kill shard 1 by pointing it at a dead address.
        membership.set_addr(1, "127.0.0.1:1");
        let router = serve_router(
            &RouterConfig {
                policy: quick_policy(),
                workers: 2,
                ..RouterConfig::default()
            },
            Arc::clone(&membership),
        )
        .expect("router");

        let mut client = Client::connect(router.addr()).expect("connect");
        for i in 0..8u64 {
            let spec = CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable)
                .trials(1)
                .horizon(40 + i);
            let resp = client
                .request(RequestKind::Cell(spec.clone()))
                .expect("routed cell");
            let ResponseKind::Cell(outcome) = resp.result else {
                panic!("expected a cell payload, got {:?}", resp.result);
            };
            assert_eq!(outcome, run_cell(&spec), "failover must not change answers");
            assert_eq!(resp.shard, Some(0), "only shard 0 is alive");
        }
        assert!(
            router.failovers() > 0,
            "some keys belonged to the dead shard"
        );

        let report = client.cluster_health().expect("cluster health");
        assert_eq!(report.shards.len(), 2);
        assert_eq!(report.reachable_shards, 1);
        assert!(report.shards[0].reachable);
        assert!(!report.shards[1].reachable);
        drop(client);
        router.shutdown();
        for w in workers {
            w.shutdown();
        }
    }

    #[test]
    fn router_serves_its_own_stats_and_health() {
        let (workers, membership) = start_workers(1);
        let router = serve_router(
            &RouterConfig {
                policy: quick_policy(),
                workers: 2,
                queue_capacity: 16,
                ..RouterConfig::default()
            },
            membership,
        )
        .expect("router");
        let mut client = Client::connect(router.addr()).expect("connect");
        let stats = client.stats().expect("stats");
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.queue_capacity, 16);
        let health = client.health().expect("health");
        assert!(!health.durable);
        assert_eq!(health.generation, 0);
        // A ClusterClient pointed at the router alone sees the fleet
        // view, not one row about the router: `ctl --cluster <router>`
        // must report every worker.
        let through_router = ClusterClient::new(
            Arc::new(Membership::new(vec![router.addr().to_string()])),
            quick_policy(),
        );
        let report = through_router.cluster_health();
        assert_eq!(report.shards.len(), 1);
        assert_eq!(report.reachable_shards, 1);
        assert_eq!(report.shards[0].addr, workers[0].addr().to_string());
        // Shutdown over the wire drains the router, not the workers.
        client.shutdown_server().expect("shutdown ack");
        router.join();
        let mut direct = Client::connect(workers[0].addr()).expect("worker still up");
        assert!(direct.health().is_ok());
        for w in workers {
            w.shutdown();
        }
    }
}
