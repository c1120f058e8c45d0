//! The daemon: accept loop, connection readers, worker dispatch.
//!
//! # Threading model
//!
//! One nonblocking accept thread polls the listener and a shutdown flag.
//! Each connection gets a reader thread that parses request lines and
//! dispatches them; the actual computations run on a shared bounded
//! [`Pool`], so a connection burst cannot spawn unbounded compute. Each
//! connection's write half (`serve::conn`) sits behind a mutex shared
//! by the reader (for inline answers: cache hits, stats, errors) and the
//! workers (for computed answers), which is what lets responses stream
//! back in completion order; a pipelined batch of inline answers leaves
//! in one write.
//!
//! # Backpressure
//!
//! [`Pool::try_execute`] fails fast when the queue is at capacity; the
//! server converts that into an [`ErrorCode::Overloaded`] response
//! immediately. Nothing ever waits for queue space and no queue grows
//! without bound, so an oversized burst costs each shed request one
//! line of JSON.
//!
//! # Shutdown
//!
//! A `Shutdown` request (or [`ServerHandle::shutdown`], which the binary
//! wires to SIGTERM/SIGINT) sets one flag. The accept thread notices
//! within its poll interval, stops accepting, and calls
//! [`Pool::shutdown`], which drains every job already accepted — their
//! responses still go out — then joins the workers. Requests arriving
//! during the drain get [`ErrorCode::ShuttingDown`].

use crate::admission::{estimated_wait_micros, AimdConfig, AimdController, JobRegistry};
use crate::cache::LruCache;
use crate::conn::{self, Outbox};
use crate::metrics::{Metrics, PoolCounters};
use crate::wire::{
    encode_result, AbortedOutcome, CheckOutcome, ClusterHealthReport, Envelope, ErrorCode,
    HealthReport, PartialCell, PartialOutcome, Request, RequestKind, RequestOptions, Response,
    ResponseKind, ShardHealth, WireError, MAX_REQUEST_LINE_BYTES, MIN_SCHEMA_VERSION,
    SCHEMA_VERSION,
};
use ktudc_core::harness::{run_cell_budgeted, CellStatus};
use ktudc_epistemic::ModelChecker;
use ktudc_fd::{classify_detector_budgeted, ClassifyStatus};
use ktudc_model::{AbortReason, Budget};
use ktudc_par::{Pool, SubmitError};
use ktudc_sim::{
    explore_spec_budgeted, run_explore_spec_budgeted, system_digest, ExploreStatus,
    ExploreStatusOutcome,
};
use ktudc_store::SnapshotStore;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the accept loop re-checks the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Test-only server fault injection, applied at the response-writing
/// boundary. Every field counts *responses* (a shared monotone sequence
/// across all connections): the k-th, 2k-th, … response suffers the
/// fault, after every response buffered ahead of it on its connection
/// has been written. The default injects nothing; production paths never
/// construct anything else. This is the server half of the chaos soak —
/// the [`HardenedClient`](crate::client::HardenedClient) must mask all of
/// it.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerFaults {
    /// Sleep for the given duration before writing every k-th response
    /// (exercises client read deadlines).
    pub delay_every: Option<(u64, Duration)>,
    /// Sever the connection instead of writing every k-th response
    /// (exercises reconnect-and-resend).
    pub sever_every: Option<u64>,
    /// Write only half of every k-th response line, then sever
    /// (exercises the client's handling of torn, unparseable replies).
    pub short_write_every: Option<u64>,
}

impl ServerFaults {
    /// Whether any fault is armed.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.delay_every.is_some() || self.sever_every.is_some() || self.short_write_every.is_some()
    }
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port (the bound address
    /// is available from [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads; 0 means [`ktudc_par::thread_count`].
    pub workers: usize,
    /// Bounded request-queue capacity (jobs accepted but not started).
    pub queue_capacity: usize,
    /// Scenario-cache capacity in outcomes; 0 disables caching.
    pub cache_capacity: usize,
    /// Data directory for durability. `Some(dir)` makes the server
    /// *durable*: at boot it warm-loads the scenario cache from the
    /// newest valid snapshot in `dir` (skipping — never loading —
    /// corrupt ones) and claims a fresh generation; afterwards it
    /// re-snapshots the cache every [`ServeConfig::snapshot_every`]
    /// computed outcomes and once more at shutdown. `None` (the default)
    /// is the original purely in-memory server at generation 0.
    pub data_dir: Option<PathBuf>,
    /// Computed (non-cached) outcomes between cache snapshots of a
    /// durable server; 0 snapshots only at boot and shutdown.
    pub snapshot_every: u64,
    /// Latency target for the adaptive concurrency controller, in
    /// milliseconds: when the observed p99 of admitted compute requests
    /// exceeds it, admission clamps down (AIMD). 0 disables adaptation —
    /// the static queue bound is the only backpressure.
    pub target_p99_ms: u64,
    /// Watchdog sampling period in milliseconds.
    pub watchdog_tick_ms: u64,
    /// Watchdog ticks without heartbeat movement before a running job
    /// counts as a stuck worker in [`HealthReport::stuck_workers`].
    pub stuck_after_ticks: u64,
    /// Per-connection idle read deadline, in milliseconds: a connection
    /// that sends no bytes for this long is reaped (counted in
    /// [`StatsReport::idle_reaped`](crate::metrics::StatsReport)), so a
    /// half-open peer cannot pin a connection thread forever. 0
    /// disables the deadline. The default (60 s) is far above any
    /// client's request cadence but finite.
    pub idle_timeout_ms: u64,
    /// Test-only response faults (default: none).
    pub faults: ServerFaults,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 64,
            cache_capacity: 256,
            data_dir: None,
            snapshot_every: 32,
            target_p99_ms: 0,
            watchdog_tick_ms: 25,
            stuck_after_ticks: 200,
            idle_timeout_ms: 60_000,
            faults: ServerFaults::default(),
        }
    }
}

/// What a durable server's boot-time recovery found, exposed on
/// [`ServerHandle::recovery`] and (minus the timing) via the `Health`
/// endpoint. A non-durable server reports all zeros.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RecoveryReport {
    /// The generation this boot claimed (0 for a non-durable server).
    pub generation: u64,
    /// Cache outcomes warm-loaded from the newest valid snapshot.
    pub recovered_cache_entries: usize,
    /// Snapshot files skipped as corrupt during recovery.
    pub corrupt_snapshots_skipped: u64,
    /// Microseconds from bind to ready (recovery + boot snapshot
    /// included); the bench's restart-to-ready figure.
    pub restart_to_ready_micros: u64,
}

/// Durable state of a snapshotting server.
struct Durability {
    store: Mutex<SnapshotStore>,
    snapshot_every: u64,
    /// Computed outcomes inserted into the cache since the last snapshot.
    computed_since_snapshot: AtomicU64,
    /// Snapshots written since boot (boot snapshot included).
    snapshots_written: AtomicU64,
}

/// A request parked on an in-flight computation for the same canonical
/// body (single-flight dedup): answered when that computation lands.
struct Waiter {
    id: u64,
    /// The schema version the waiter's request spoke (echoed back).
    version: u32,
    out: Arc<Outbox>,
    start: Instant,
}

struct Shared {
    /// `None` once shutdown has taken the pool for draining.
    pool: Mutex<Option<Pool>>,
    cache: Mutex<LruCache>,
    /// Canonical bodies currently being computed, with the requests
    /// waiting on each. Guarantees a spec is computed at most once even
    /// when identical requests race (e.g. a client resending after a
    /// severed connection while the original job still runs). Lock order
    /// is always `pending` → `cache`.
    pending: Mutex<HashMap<String, Vec<Waiter>>>,
    /// Shared with every connection's [`Outbox`], which counts responses
    /// (the sequence [`ServerFaults`] fire on) and flushes in it.
    metrics: Arc<Metrics>,
    /// Adaptive concurrency limit over queued + in-flight compute jobs.
    admission: AimdController,
    /// Running compute jobs' budget heartbeats, for the watchdog.
    registry: JobRegistry,
    shutdown: AtomicBool,
    workers: usize,
    /// Per-connection idle read deadline; `None` disables reaping.
    idle_timeout: Option<Duration>,
    faults: ServerFaults,
    /// This boot's generation, stamped into every outgoing response.
    generation: u64,
    /// The bound listen address (port 0 resolved), so the server can
    /// describe itself as a one-shard cluster in `ClusterHealth`.
    addr: String,
    /// What boot-time recovery found (zeros when not durable).
    recovery: RecoveryReport,
    /// Snapshot machinery; `None` for an in-memory server.
    durability: Option<Durability>,
}

impl Shared {
    fn queue_depth(&self) -> usize {
        self.pool
            .lock()
            .expect("pool lock poisoned")
            .as_ref()
            .map_or(0, Pool::queue_depth)
    }

    fn in_flight(&self) -> usize {
        self.pool
            .lock()
            .expect("pool lock poisoned")
            .as_ref()
            .map_or(0, Pool::in_flight)
    }

    /// Jobs ahead of a new arrival: queued plus in flight. This is the
    /// quantity the admission limit bounds and the wait estimate scales
    /// with. Read from one coherent [`Pool::stats`] snapshot — summing
    /// the two separate accessors lets a worker pick a job up between
    /// the reads and count it twice, transiently overstating occupancy
    /// and shedding a request the limit would have admitted.
    fn occupancy(&self) -> usize {
        self.pool
            .lock()
            .expect("pool lock poisoned")
            .as_ref()
            .map_or(0, |p| {
                let s = p.stats();
                s.queued + s.in_flight
            })
    }

    /// Work-stealing counters for observability: (steals so far, deepest
    /// per-worker deque right now). Zeros once shutdown has taken the
    /// pool.
    fn steal_stats(&self) -> (u64, usize) {
        self.pool
            .lock()
            .expect("pool lock poisoned")
            .as_ref()
            .map_or((0, 0), |p| {
                let s = p.stats();
                (s.steals, s.deepest_queue)
            })
    }

    /// Counts one computed outcome and snapshots the cache when the
    /// cadence says so. Called off the worker that just published a
    /// result; snapshot failures are reported and tolerated (the cache
    /// is still authoritative in memory).
    fn note_computed(&self) {
        let Some(d) = &self.durability else { return };
        if d.snapshot_every == 0 {
            return;
        }
        let computed = d.computed_since_snapshot.fetch_add(1, Ordering::SeqCst) + 1;
        if computed >= d.snapshot_every {
            d.computed_since_snapshot.store(0, Ordering::SeqCst);
            self.snapshot_now();
        }
    }

    /// Writes one cache snapshot (atomic rename; crash-safe at any
    /// point). Failures go to stderr: losing a snapshot costs warm-cache
    /// time after the next crash, never correctness.
    fn snapshot_now(&self) {
        let Some(d) = &self.durability else { return };
        let exported = self.cache.lock().expect("cache lock poisoned").export();
        let payload = match serde_json::to_string(&exported) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("ktudc-serve: cache snapshot failed to encode: {e}");
                return;
            }
        };
        let mut store = d.store.lock().expect("snapshot store lock poisoned");
        match store.save(payload.as_bytes()) {
            Ok(_generation) => {
                d.snapshots_written.fetch_add(1, Ordering::SeqCst);
            }
            Err(e) => eprintln!("ktudc-serve: cache snapshot failed to write: {e}"),
        }
    }

    fn health_report(&self) -> HealthReport {
        let (steals, deepest_queue) = self.steal_stats();
        HealthReport {
            generation: self.generation,
            durable: self.durability.is_some(),
            recovered_cache_entries: self.recovery.recovered_cache_entries,
            corrupt_snapshots_skipped: self.recovery.corrupt_snapshots_skipped,
            store_corrupt_candidates: self.durability.as_ref().map_or(0, |d| {
                d.store
                    .lock()
                    .expect("snapshot store lock poisoned")
                    .corrupt_seen()
            }),
            snapshots_written: self
                .durability
                .as_ref()
                .map_or(0, |d| d.snapshots_written.load(Ordering::SeqCst)),
            cache_entries: self.cache.lock().expect("cache lock poisoned").len(),
            queue_depth: self.queue_depth(),
            in_flight: self.in_flight(),
            stuck_workers: self.registry.stuck_workers(),
            steals,
            deepest_queue,
            uptime_micros: self.metrics.uptime_micros(),
        }
    }
}

/// A handle to a running server.
///
/// Dropping the handle shuts the server down (and drains it) if it is
/// still running.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// What boot-time recovery found (zeros for an in-memory server).
    #[must_use]
    pub fn recovery(&self) -> RecoveryReport {
        self.shared.recovery
    }

    /// Requests shutdown: stop accepting, drain, exit. Returns
    /// immediately; use [`ServerHandle::join`] to wait for the drain.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested (locally or by a client).
    #[must_use]
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until the server has stopped accepting and drained every
    /// accepted job. Waits for a shutdown request if none was made yet.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            accept.join().expect("accept thread panicked");
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if let Some(accept) = self.accept.take() {
            self.shutdown();
            let _ = accept.join();
        }
    }
}

/// Binds and starts a server.
///
/// A durable config ([`ServeConfig::data_dir`]) additionally recovers
/// the scenario cache from the newest valid snapshot on disk and writes
/// a boot snapshot that claims this boot's generation — a corrupt or
/// torn snapshot is skipped (and counted), never loaded.
///
/// # Errors
///
/// Propagates the bind failure and any failure to open the data
/// directory or write the generation-claiming boot snapshot (a durable
/// server that cannot persist must not come up claiming it can);
/// everything after the bind is handled on the server's own threads.
pub fn serve(config: &ServeConfig) -> std::io::Result<ServerHandle> {
    let boot = Instant::now();
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let workers = if config.workers == 0 {
        ktudc_par::thread_count()
    } else {
        config.workers
    };

    let mut cache = LruCache::new(config.cache_capacity);
    let mut recovery = RecoveryReport::default();
    let durability = match &config.data_dir {
        None => None,
        Some(dir) => {
            let mut store = SnapshotStore::open(dir, "cache")?;
            if let Some(snapshot) = store.load_latest()? {
                match serde_json::from_str::<Vec<(String, ResponseKind)>>(
                    std::str::from_utf8(&snapshot.payload).unwrap_or(""),
                ) {
                    Ok(entries) => {
                        recovery.recovered_cache_entries = entries.len();
                        cache.warm_load(entries);
                    }
                    // A checksum-valid snapshot whose payload no longer
                    // decodes was written by an incompatible version:
                    // treat it like corruption — skip it, start cold.
                    Err(_) => recovery.corrupt_snapshots_skipped += 1,
                }
            }
            recovery.corrupt_snapshots_skipped += store.corrupt_seen();
            // Claim this boot's generation with an immediate snapshot of
            // the recovered cache, so restarts are observable on the
            // wire even if the server never computes anything.
            let payload = serde_json::to_string(&cache.export())
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            recovery.generation = store.save(payload.as_bytes())?;
            Some(Durability {
                store: Mutex::new(store),
                snapshot_every: config.snapshot_every,
                computed_since_snapshot: AtomicU64::new(0),
                snapshots_written: AtomicU64::new(1),
            })
        }
    };
    recovery.restart_to_ready_micros = elapsed_micros(boot);

    let shared = Arc::new(Shared {
        pool: Mutex::new(Some(Pool::new(workers, config.queue_capacity))),
        cache: Mutex::new(cache),
        pending: Mutex::new(HashMap::new()),
        metrics: Arc::new(Metrics::new()),
        admission: AimdController::new(AimdConfig {
            target_p99_micros: config.target_p99_ms.saturating_mul(1_000),
            // Never clamp below the worker count: an admission limit the
            // workers outnumber would idle capacity we already paid for.
            min_limit: workers,
            max_limit: config.queue_capacity + workers,
            window: 32,
        }),
        registry: JobRegistry::new(),
        shutdown: AtomicBool::new(false),
        workers,
        idle_timeout: (config.idle_timeout_ms > 0)
            .then(|| Duration::from_millis(config.idle_timeout_ms)),
        faults: config.faults,
        generation: recovery.generation,
        addr: addr.to_string(),
        recovery,
        durability,
    });
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&listener, &shared))
    };
    {
        // Watchdog: sample every running job's budget heartbeat on a
        // fixed tick; jobs whose heartbeat stalls for `stuck_after_ticks`
        // consecutive ticks are reported as stuck workers via `Health`.
        // The thread holds only a weak reference pattern via the shutdown
        // flag: it exits within one tick of shutdown and is not joined.
        let shared = Arc::clone(&shared);
        let tick = Duration::from_millis(config.watchdog_tick_ms.max(1));
        let stuck_after = config.stuck_after_ticks.max(1);
        std::thread::spawn(move || {
            while !shared.shutdown.load(Ordering::SeqCst) {
                std::thread::sleep(tick);
                shared.registry.scan(stuck_after);
            }
        });
    }
    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Responses are small sequential lines; leaving Nagle on
                // makes each one wait out the peer's delayed ACK.
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
    // every accepted job finish and answer before we return.
    let pool = shared.pool.lock().expect("pool lock poisoned").take();
    if let Some(pool) = pool {
        pool.shutdown();
    }
    // Final snapshot: everything the drain just computed becomes warm
    // cache for the next boot.
    shared.snapshot_now();
}

fn connection_loop(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok((reader, out)) = conn::open(
        stream,
        shared.idle_timeout,
        MAX_REQUEST_LINE_BYTES,
        &shared.metrics,
        shared.faults,
    ) else {
        return;
    };
    reader.serve(shared.generation, &shared.shutdown, |line| {
        handle_line(shared, line, &out);
    });
}

fn handle_line(shared: &Arc<Shared>, line: &str, out: &Arc<Outbox>) {
    let request: Request = match serde_json::from_str(line) {
        Ok(r) => r,
        Err(e) => {
            // No recoverable id: 0 marks an unattributable failure.
            shared.metrics.record_malformed();
            respond(
                shared,
                out,
                SCHEMA_VERSION,
                Response::error(0, ErrorCode::BadRequest, e.to_string()),
            );
            return;
        }
    };
    if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&request.schema_version) {
        respond(
            shared,
            out,
            SCHEMA_VERSION,
            Response::error(
                request.id,
                ErrorCode::UnsupportedVersion,
                format!(
                    "request schema_version {} but this server speaks \
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
            let (cache_entries, cache_capacity) = {
                let cache = shared.cache.lock().expect("cache lock poisoned");
                (cache.len(), cache.capacity())
            };
            let (steals, deepest_queue) = shared.steal_stats();
            let report = shared.metrics.report(
                PoolCounters {
                    workers: shared.workers,
                    queue_depth: shared.queue_depth(),
                    queue_capacity: queue_capacity(shared),
                    steals,
                    deepest_queue,
                },
                cache_entries,
                cache_capacity,
            );
            let micros = elapsed_micros(start);
            shared.metrics.record(endpoint, micros, false);
            respond(
                shared,
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
                shared,
                out,
                version,
                Response::new(request.id, false, micros, ResponseKind::Health(report)),
            );
        }
        RequestKind::Ping => {
            // Heartbeat probe: answered inline on the connection thread,
            // never queued behind compute — a busy worker must still
            // prove liveness, otherwise queue pressure would read as
            // death to the detector plane. The envelope carries the
            // generation; the body is deliberately empty.
            let micros = elapsed_micros(start);
            shared.metrics.record(endpoint, micros, false);
            respond(
                shared,
                out,
                version,
                Response::new(request.id, false, micros, ResponseKind::Pong),
            );
        }
        RequestKind::ClusterHealth => {
            // A single-process server is a one-shard cluster of itself; a
            // router overrides this with the real fleet view.
            let health = shared.health_report();
            let report = ClusterHealthReport::aggregate(vec![ShardHealth::new(
                0,
                shared.addr.clone(),
                true,
                health.generation,
                Some(health),
            )]);
            let micros = elapsed_micros(start);
            shared.metrics.record(endpoint, micros, false);
            respond(
                shared,
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
        RequestKind::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            let micros = elapsed_micros(start);
            shared.metrics.record(endpoint, micros, false);
            respond(
                shared,
                out,
                version,
                Response::new(request.id, false, micros, ResponseKind::Shutdown),
            );
        }
        kind @ (RequestKind::Cell(_)
        | RequestKind::Check(_)
        | RequestKind::Explore(_)
        | RequestKind::Classify(_)) => {
            dispatch_compute(
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

/// Cache-or-queue path for the compute endpoints, with single-flight
/// dedup: identical canonical bodies that race share one computation.
///
/// This is what makes client resend-after-reconnect safe. A retried
/// request either hits the cache (the original job landed), joins the
/// original job's waiter list (it is still running), or starts the one
/// and only computation — in every case the spec is computed exactly
/// once and every requester gets the same payload.
fn dispatch_compute(
    shared: &Arc<Shared>,
    id: u64,
    version: u32,
    kind: RequestKind,
    options: RequestOptions,
    start: Instant,
    out: &Arc<Outbox>,
) {
    let endpoint = kind.endpoint();
    let Ok(canon) = serde_json::to_string(&kind) else {
        respond(
            shared,
            out,
            version,
            Response::error(id, ErrorCode::Internal, "request body is unencodable"),
        );
        shared.metrics.record_error(endpoint);
        return;
    };
    // Consult the cache and the in-flight table under the `pending` lock
    // (order pending → cache, matching the completion path) so a landing
    // job cannot slip between the cache miss and the waiter registration.
    {
        let mut pending = shared.pending.lock().expect("pending lock poisoned");
        let hit = shared
            .cache
            .lock()
            .expect("cache lock poisoned")
            .get(&canon);
        if let Some(hit) = hit {
            drop(pending);
            let micros = elapsed_micros(start);
            shared.metrics.record(endpoint, micros, true);
            send_line(
                shared,
                out,
                version,
                Envelope::new(id, true, micros),
                hit.json(),
            );
            return;
        }
        // Deadline-carrying requests skip the single-flight table: their
        // results are deadline-truncated, so they must neither be shared
        // with nor cached for requests with other (or no) deadlines.
        if options.deadline_ms.is_none() {
            if let Some(waiters) = pending.get_mut(&canon) {
                waiters.push(Waiter {
                    id,
                    version,
                    out: Arc::clone(out),
                    start,
                });
                return;
            }
        }
        // Admission gate, decided before the job exists: a shed costs
        // one JSON line, never a queue slot. Cache hits and waiter joins
        // above are exempt — they consume no compute capacity.
        let occupancy = shared.occupancy();
        let est_wait_micros = estimated_wait_micros(
            occupancy,
            shared.workers,
            shared.metrics.compute_p50_micros(),
        );
        let retry_after_ms = (est_wait_micros / 1_000).max(1);
        if let Some(deadline_ms) = options.deadline_ms {
            if est_wait_micros >= deadline_ms.saturating_mul(1_000) {
                drop(pending);
                shared.metrics.record_shed_deadline(endpoint);
                respond(
                    shared,
                    out,
                    version,
                    Response::error_with_retry(
                        id,
                        ErrorCode::DeadlineExceeded,
                        format!(
                            "estimated queue wait {}ms already exceeds the {deadline_ms}ms deadline",
                            est_wait_micros / 1_000
                        ),
                        retry_after_ms,
                    ),
                );
                return;
            }
        }
        if !shared.admission.try_admit(occupancy, options.priority) {
            drop(pending);
            shared.metrics.record_overload(endpoint);
            respond(
                shared,
                out,
                version,
                Response::error_with_retry(
                    id,
                    ErrorCode::Overloaded,
                    format!(
                        "adaptive concurrency limit reached ({} of {}); retry later",
                        occupancy,
                        shared.admission.limit()
                    ),
                    retry_after_ms,
                ),
            );
            return;
        }
        if options.deadline_ms.is_none() {
            pending.insert(canon.clone(), Vec::new());
        }
    }
    if options.deadline_ms.is_some() {
        dispatch_deadline(shared, id, version, kind, options, start, out);
        return;
    }
    let job = {
        let shared = Arc::clone(shared);
        let out = Arc::clone(out);
        let canon = canon.clone();
        let enqueued = Instant::now();
        move || {
            let picked = Instant::now();
            let queue_wait_micros = duration_micros(picked.duration_since(enqueued));
            // Every job runs under a budget — unlimited here, but its
            // heartbeat is what the watchdog samples to tell a long
            // computation from a wedged worker.
            let budget = Budget::unlimited();
            let token = shared.registry.register(budget.heartbeat());
            let outcome = match compute_budgeted(&kind, &budget) {
                Ok(ComputeStatus::Done(result)) => Ok(result),
                // An unlimited budget cannot trip; keep the worker alive
                // and surface the impossibility instead of asserting.
                Ok(ComputeStatus::Aborted { reason, .. }) => Err(WireError {
                    code: ErrorCode::Internal,
                    message: format!("unlimited budget aborted ({})", reason.name()),
                    retry_after_ms: 0,
                }),
                Err(err) => Err(err),
            };
            shared.registry.unregister(token);
            let compute_micros = elapsed_micros(picked);
            shared.metrics.record_queue_wait(queue_wait_micros);
            shared.metrics.record_compute(compute_micros);
            match outcome {
                Ok(result) => {
                    // Publish to the cache and claim the waiters atomically
                    // (pending → cache), so no request can miss both. The
                    // entry's encoding is made once: this answer and every
                    // waiter's share its bytes.
                    let (result, waiters) = {
                        let mut pending = shared.pending.lock().expect("pending lock poisoned");
                        let result = shared
                            .cache
                            .lock()
                            .expect("cache lock poisoned")
                            .insert(canon.clone(), result);
                        (result, pending.remove(&canon).unwrap_or_default())
                    };
                    let micros = elapsed_micros(start);
                    shared.metrics.record(endpoint, micros, false);
                    shared.admission.observe(micros);
                    let mut envelope = Envelope::new(id, false, micros);
                    envelope.queue_wait_ms = queue_wait_micros as f64 / 1_000.0;
                    envelope.compute_ms = compute_micros as f64 / 1_000.0;
                    send_line(&shared, &out, version, envelope, result.json());
                    for w in waiters {
                        let micros = elapsed_micros(w.start);
                        shared.metrics.record(endpoint, micros, true);
                        send_line(
                            &shared,
                            &w.out,
                            w.version,
                            Envelope::new(w.id, true, micros),
                            result.json(),
                        );
                    }
                    shared.note_computed();
                }
                Err(err) => {
                    let waiters = shared
                        .pending
                        .lock()
                        .expect("pending lock poisoned")
                        .remove(&canon)
                        .unwrap_or_default();
                    shared.metrics.record_error(endpoint);
                    respond(
                        &shared,
                        &out,
                        version,
                        Response::error(id, err.code, err.message.clone()),
                    );
                    for w in waiters {
                        shared.metrics.record_error(endpoint);
                        respond(
                            &shared,
                            &w.out,
                            w.version,
                            Response::error(w.id, err.code, err.message.clone()),
                        );
                    }
                }
            }
        }
    };
    let submitted = shared
        .pool
        .lock()
        .expect("pool lock poisoned")
        .as_ref()
        .map_or(Err(SubmitError::Closed), |pool| pool.try_execute(job));
    if let Err(reason) = submitted {
        // The job never ran: retract the in-flight marker and fail the
        // primary plus any waiters that raced in behind it.
        let waiters = shared
            .pending
            .lock()
            .expect("pending lock poisoned")
            .remove(&canon)
            .unwrap_or_default();
        let (code, message) = match reason {
            SubmitError::Full => (
                ErrorCode::Overloaded,
                format!(
                    "request queue is at capacity ({}); retry later",
                    queue_capacity(shared)
                ),
            ),
            SubmitError::Closed => (ErrorCode::ShuttingDown, "server is draining".to_string()),
        };
        let record = |endpoint| match reason {
            SubmitError::Full => shared.metrics.record_overload(endpoint),
            SubmitError::Closed => shared.metrics.record_error(endpoint),
        };
        let retry_after_ms = match reason {
            SubmitError::Full => retry_hint_ms(shared),
            SubmitError::Closed => 0,
        };
        record(endpoint);
        respond(
            shared,
            out,
            version,
            Response::error_with_retry(id, code, message.clone(), retry_after_ms),
        );
        for w in waiters {
            record(endpoint);
            respond(
                shared,
                &w.out,
                w.version,
                Response::error_with_retry(w.id, code, message.clone(), retry_after_ms),
            );
        }
    }
}

/// Retry hint stamped on every shed: the server's current queue-wait
/// estimate, floored at one millisecond so a client that honors hints
/// always backs off by a nonzero amount.
fn retry_hint_ms(shared: &Shared) -> u64 {
    let est = estimated_wait_micros(
        shared.occupancy(),
        shared.workers,
        shared.metrics.compute_p50_micros(),
    );
    (est / 1_000).max(1)
}

/// The worker path for a deadline-carrying request: runs outside the
/// single-flight table under a budget whose deadline counts from request
/// receipt (queue wait spends it). On a trip the requester gets the
/// typed partial ([`ResponseKind::Aborted`]) if it opted in, and a
/// [`ErrorCode::DeadlineExceeded`] error otherwise.
fn dispatch_deadline(
    shared: &Arc<Shared>,
    id: u64,
    version: u32,
    kind: RequestKind,
    options: RequestOptions,
    start: Instant,
    out: &Arc<Outbox>,
) {
    let endpoint = kind.endpoint();
    let deadline_ms = options.deadline_ms.unwrap_or(0);
    let job = {
        let shared = Arc::clone(shared);
        let out = Arc::clone(out);
        let enqueued = Instant::now();
        move || {
            let picked = Instant::now();
            let queue_wait_micros = duration_micros(picked.duration_since(enqueued));
            let budget =
                Budget::unlimited().with_deadline(start + Duration::from_millis(deadline_ms));
            let token = shared.registry.register(budget.heartbeat());
            let result = compute_budgeted(&kind, &budget);
            shared.registry.unregister(token);
            let compute_micros = elapsed_micros(picked);
            shared.metrics.record_queue_wait(queue_wait_micros);
            shared.metrics.record_compute(compute_micros);
            let micros = elapsed_micros(start);
            let mut response = match result {
                Ok(ComputeStatus::Done(result)) => {
                    shared.metrics.record(endpoint, micros, false);
                    // Only completed requests feed the controller: an
                    // aborted one's latency is capped by its own deadline
                    // and would read as spurious headroom.
                    shared.admission.observe(micros);
                    Response::new(id, false, micros, result)
                }
                Ok(ComputeStatus::Aborted { reason, partial }) if options.accept_partial => {
                    shared.metrics.record(endpoint, micros, false);
                    Response::new(
                        id,
                        false,
                        micros,
                        ResponseKind::Aborted(AbortedOutcome { reason, partial }),
                    )
                }
                Ok(ComputeStatus::Aborted { reason, .. }) => {
                    shared.metrics.record_shed_deadline(endpoint);
                    Response::error_with_retry(
                        id,
                        ErrorCode::DeadlineExceeded,
                        format!("computation aborted at the deadline ({})", reason.name()),
                        retry_hint_ms(&shared),
                    )
                }
                Err(err) => {
                    shared.metrics.record_error(endpoint);
                    Response::error_with_retry(id, err.code, err.message, err.retry_after_ms)
                }
            };
            response.queue_wait_ms = queue_wait_micros as f64 / 1_000.0;
            response.compute_ms = compute_micros as f64 / 1_000.0;
            respond(&shared, &out, version, response);
        }
    };
    let submitted = shared
        .pool
        .lock()
        .expect("pool lock poisoned")
        .as_ref()
        .map_or(Err(SubmitError::Closed), |pool| pool.try_execute(job));
    if let Err(reason) = submitted {
        // No pending entry to retract: deadline requests never register.
        let (code, message) = match reason {
            SubmitError::Full => (
                ErrorCode::Overloaded,
                format!(
                    "request queue is at capacity ({}); retry later",
                    queue_capacity(shared)
                ),
            ),
            SubmitError::Closed => (ErrorCode::ShuttingDown, "server is draining".to_string()),
        };
        let retry_after_ms = match reason {
            SubmitError::Full => retry_hint_ms(shared),
            SubmitError::Closed => 0,
        };
        match reason {
            SubmitError::Full => shared.metrics.record_overload(endpoint),
            SubmitError::Closed => shared.metrics.record_error(endpoint),
        }
        respond(
            shared,
            out,
            version,
            Response::error_with_retry(id, code, message, retry_after_ms),
        );
    }
}

/// What a budgeted compute job produced. One lives on a worker's stack
/// per job and is moved once, so the payload is held inline.
#[allow(clippy::large_enum_variant)]
enum ComputeStatus {
    /// Ran to completion.
    Done(ResponseKind),
    /// The budget tripped; `partial` is whatever survived.
    Aborted {
        reason: AbortReason,
        partial: PartialOutcome,
    },
}

/// Runs one compute request under `budget`. Panics inside the libraries
/// (e.g. a [`CellSpec`](ktudc_core::harness::CellSpec) the harness
/// refuses) are caught and surfaced as [`ErrorCode::Internal`] so a
/// worker is never lost to a bad request.
fn compute_budgeted(kind: &RequestKind, budget: &Budget) -> Result<ComputeStatus, WireError> {
    let guarded = catch_unwind(AssertUnwindSafe(|| match kind {
        RequestKind::Cell(spec) => Ok(match run_cell_budgeted(spec, budget) {
            CellStatus::Done(outcome) => ComputeStatus::Done(ResponseKind::Cell(outcome)),
            CellStatus::Aborted {
                reason,
                partial,
                trials_completed,
            } => ComputeStatus::Aborted {
                reason,
                partial: if trials_completed == 0 {
                    PartialOutcome::None
                } else {
                    PartialOutcome::Cell(PartialCell {
                        outcome: partial,
                        trials_completed,
                    })
                },
            },
        }),
        RequestKind::Explore(spec) => match run_explore_spec_budgeted(spec, budget) {
            Ok(ExploreStatusOutcome::Done(outcome)) => {
                Ok(ComputeStatus::Done(ResponseKind::Explore(outcome)))
            }
            Ok(ExploreStatusOutcome::Aborted { reason, partial }) => Ok(ComputeStatus::Aborted {
                reason,
                partial: partial.map_or(PartialOutcome::None, PartialOutcome::Explore),
            }),
            Err(msg) => Err(WireError {
                code: ErrorCode::BadRequest,
                message: msg,
                retry_after_ms: 0,
            }),
        },
        RequestKind::Check(spec) => {
            let explored = match explore_spec_budgeted(&spec.scenario, budget) {
                Ok(ExploreStatus::Done(r)) => r,
                // A verdict over a partial system would be a verdict
                // about a different system: no usable partial.
                Ok(ExploreStatus::Aborted { reason, .. }) => {
                    return Ok(ComputeStatus::Aborted {
                        reason,
                        partial: PartialOutcome::None,
                    })
                }
                Err(msg) => {
                    return Err(WireError {
                        code: ErrorCode::BadRequest,
                        message: msg,
                        retry_after_ms: 0,
                    })
                }
            };
            let digest = system_digest(&explored.system);
            let mut checker = ModelChecker::new(&explored.system);
            let verdict = match checker.valid_budgeted(&spec.formula, budget) {
                Ok(v) => v,
                Err(reason) => {
                    return Ok(ComputeStatus::Aborted {
                        reason,
                        partial: PartialOutcome::None,
                    })
                }
            };
            let (valid, counterexample) = match verdict {
                Ok(()) => (true, None),
                Err(point) => (false, Some(point)),
            };
            Ok(ComputeStatus::Done(ResponseKind::Check(CheckOutcome {
                valid,
                counterexample,
                runs: explored.system.len(),
                complete: explored.complete,
                digest,
            })))
        }
        RequestKind::Classify(spec) => Ok(match classify_detector_budgeted(spec, budget) {
            ClassifyStatus::Done(verdict) => ComputeStatus::Done(ResponseKind::Classify(verdict)),
            // A class quantifies over *all* arms of the sweep; a verdict
            // from a subset would claim properties never tested. No
            // usable partial.
            ClassifyStatus::Aborted { reason, .. } => ComputeStatus::Aborted {
                reason,
                partial: PartialOutcome::None,
            },
        }),
        RequestKind::Stats
        | RequestKind::Health
        | RequestKind::ClusterHealth
        | RequestKind::Ping
        | RequestKind::Shutdown => Err(WireError {
            code: ErrorCode::Internal,
            message: "non-compute request reached a worker".to_string(),
            retry_after_ms: 0,
        }),
    }));
    match guarded {
        Ok(result) => result,
        Err(panic) => Err(WireError {
            code: ErrorCode::Internal,
            message: format!("computation panicked: {}", panic_message(&panic)),
            retry_after_ms: 0,
        }),
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "opaque panic payload"
    }
}

fn queue_capacity(shared: &Shared) -> usize {
    shared
        .pool
        .lock()
        .expect("pool lock poisoned")
        .as_ref()
        .map_or(0, Pool::capacity)
}

fn elapsed_micros(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn duration_micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Stamps the schema version the request spoke and this boot's
/// generation on `envelope`, then queues the line on the connection
/// ([`Outbox::send`] decides when it is written).
fn send_line(
    shared: &Shared,
    out: &Outbox,
    version: u32,
    mut envelope: Envelope,
    result_json: &str,
) {
    envelope.schema_version = version;
    envelope.generation = shared.generation;
    out.send(&envelope, result_json);
}

/// [`send_line`] for a response whose payload has not been encoded yet.
fn respond(shared: &Shared, out: &Outbox, version: u32, response: Response) {
    send_line(
        shared,
        out,
        version,
        response.envelope(),
        &encode_result(&response.result),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::CheckSpec;
    use ktudc_core::harness::{run_cell, CellSpec, FdChoice, ProtocolChoice};
    use ktudc_epistemic::Formula;
    use ktudc_model::ProcessId;
    use ktudc_sim::ExploreSpec;

    /// The pre-budget compute entry point: an unlimited budget, with the
    /// (unreachable) abort arm folded into the error domain.
    fn compute(kind: &RequestKind) -> Result<ResponseKind, WireError> {
        match compute_budgeted(kind, &Budget::unlimited())? {
            ComputeStatus::Done(result) => Ok(result),
            ComputeStatus::Aborted { reason, .. } => Err(WireError {
                code: ErrorCode::Internal,
                message: format!("unlimited budget aborted ({})", reason.name()),
                retry_after_ms: 0,
            }),
        }
    }

    #[test]
    fn compute_cell_matches_direct_call() {
        let spec = CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable)
            .trials(2)
            .horizon(120);
        let direct = run_cell(&spec);
        match compute(&RequestKind::Cell(spec)).unwrap() {
            ResponseKind::Cell(outcome) => assert_eq!(outcome, direct),
            other => panic!("wrong payload: {other:?}"),
        }
    }

    #[test]
    fn compute_classify_matches_direct_call() {
        use ktudc_fd::{classify_detector, ClassifySpec, DetectorKind, FaultRegime};

        let spec = ClassifySpec::new(DetectorKind::Heartbeat, FaultRegime::Clean)
            .trials(2)
            .horizon(200);
        let direct = classify_detector(&spec);
        match compute(&RequestKind::Classify(spec)).unwrap() {
            ResponseKind::Classify(verdict) => assert_eq!(verdict, direct),
            other => panic!("wrong payload: {other:?}"),
        }
    }

    #[test]
    fn classify_endpoint_is_served_and_cached() {
        use ktudc_fd::{ClassifySpec, DetectorKind, EmpiricalClass, FaultRegime};

        let handle = serve(&ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut client = crate::client::Client::connect(handle.addr()).unwrap();
        let spec = ClassifySpec::new(DetectorKind::PhiAccrual, FaultRegime::Clean)
            .trials(2)
            .horizon(200);

        let cold = client.request(RequestKind::Classify(spec.clone())).unwrap();
        assert!(!cold.cached);
        let verdict = match &cold.result {
            ResponseKind::Classify(v) => v.clone(),
            other => panic!("wrong payload: {other:?}"),
        };
        assert_eq!(verdict.class, EmpiricalClass::Perfect);
        assert_eq!(verdict.false_suspicion_events, 0);

        // Classification is deterministic per spec, so the retry is a
        // warm hit with an identical verdict.
        let warm = client.request(RequestKind::Classify(spec)).unwrap();
        assert!(warm.cached, "identical classify spec must hit the cache");
        assert_eq!(warm.result, cold.result);

        // The classify endpoint shows up in stats inside the cacheable
        // fold: 2 requests, 1 hit.
        let stats = client.stats().unwrap();
        let row = stats
            .endpoints
            .iter()
            .find(|e| e.endpoint == "classify")
            .expect("classify endpoint row");
        assert_eq!(row.requests, 2);
        assert_eq!(row.cache_hits, 1);
        assert!(stats.cache_hit_rate > 0.0);
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn compute_check_finds_tautologies_and_counterexamples() {
        let scenario = ExploreSpec::new(2, 2);
        let tautology = CheckSpec {
            scenario: scenario.clone(),
            formula: Formula::or(vec![
                Formula::crashed(ProcessId::new(0)),
                Formula::not(Formula::crashed(ProcessId::new(0))),
            ]),
        };
        match compute(&RequestKind::Check(tautology)).unwrap() {
            ResponseKind::Check(out) => {
                assert!(out.valid && out.complete);
                assert!(out.counterexample.is_none());
                assert!(out.runs > 0);
            }
            other => panic!("wrong payload: {other:?}"),
        }
        // "Process 0 has crashed" is false somewhere (e.g. the crash-free
        // run), so the check must fail with a counterexample.
        let falsifiable = CheckSpec {
            scenario,
            formula: Formula::crashed(ProcessId::new(0)),
        };
        match compute(&RequestKind::Check(falsifiable)).unwrap() {
            ResponseKind::Check(out) => {
                assert!(!out.valid);
                assert!(out.counterexample.is_some());
            }
            other => panic!("wrong payload: {other:?}"),
        }
    }

    #[test]
    fn compute_rejects_invalid_specs_as_bad_request() {
        let err = compute(&RequestKind::Explore(ExploreSpec::new(0, 2))).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        let err = compute(&RequestKind::Stats).unwrap_err();
        assert_eq!(err.code, ErrorCode::Internal);
    }

    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let mut p = std::env::temp_dir();
            p.push(format!("ktudc-serve-test-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&p);
            TempDir(p)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn durable_config(dir: &std::path::Path) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            data_dir: Some(dir.to_path_buf()),
            snapshot_every: 1,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn durable_server_recovers_cache_and_advances_generation() {
        let tmp = TempDir::new("recover");
        let spec = ExploreSpec::new(2, 2);

        // Boot 1: compute one exploration, then drain (which snapshots).
        let (gen1, cold) = {
            let handle = serve(&durable_config(&tmp.0)).unwrap();
            let mut client = crate::client::Client::connect(handle.addr()).unwrap();
            let response = client.request(RequestKind::Explore(spec.clone())).unwrap();
            assert!(!response.cached);
            let health = client.health().unwrap();
            assert!(health.durable);
            assert_eq!(health.recovered_cache_entries, 0);
            assert_eq!(health.corrupt_snapshots_skipped, 0);
            assert_eq!(response.generation, health.generation);
            handle.shutdown();
            handle.join();
            (health.generation, response.result)
        };

        // Boot 2: the same request must be a warm hit from the recovered
        // cache, under a strictly newer generation.
        let handle = serve(&durable_config(&tmp.0)).unwrap();
        assert!(handle.recovery().recovered_cache_entries >= 1);
        let mut client = crate::client::Client::connect(handle.addr()).unwrap();
        let health = client.health().unwrap();
        assert!(health.generation > gen1, "{} vs {gen1}", health.generation);
        assert!(health.recovered_cache_entries >= 1);
        assert_eq!(health.corrupt_snapshots_skipped, 0);
        let response = client.request(RequestKind::Explore(spec)).unwrap();
        assert!(response.cached, "recovered cache must answer warm");
        assert_eq!(response.result, cold);
        assert_eq!(response.generation, health.generation);
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn corrupt_snapshots_are_skipped_never_loaded() {
        let tmp = TempDir::new("corrupt");
        // Boot once so a valid snapshot exists, with one cached outcome.
        let spec = ExploreSpec::new(2, 2);
        {
            let handle = serve(&durable_config(&tmp.0)).unwrap();
            let mut client = crate::client::Client::connect(handle.addr()).unwrap();
            client.request(RequestKind::Explore(spec.clone())).unwrap();
            handle.shutdown();
            handle.join();
        }
        // Plant a corrupt snapshot claiming to be newer than everything.
        std::fs::write(tmp.0.join("cache.999999.snap"), b"not a snapshot").unwrap();

        let handle = serve(&durable_config(&tmp.0)).unwrap();
        let recovery = handle.recovery();
        assert!(
            recovery.corrupt_snapshots_skipped >= 1,
            "the planted corruption must be counted: {recovery:?}"
        );
        // Recovery fell back to the newest *valid* snapshot: the cached
        // outcome from boot 1 is still served warm.
        let mut client = crate::client::Client::connect(handle.addr()).unwrap();
        let response = client.request(RequestKind::Explore(spec)).unwrap();
        assert!(response.cached);
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn in_memory_server_reports_generation_zero_and_not_durable() {
        let handle = serve(&ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut client = crate::client::Client::connect(handle.addr()).unwrap();
        let health = client.health().unwrap();
        assert!(!health.durable);
        assert_eq!(health.generation, 0);
        let recovery = handle.recovery();
        assert_eq!(recovery.generation, 0);
        assert_eq!(recovery.recovered_cache_entries, 0);
        assert_eq!(recovery.corrupt_snapshots_skipped, 0);
        handle.shutdown();
        handle.join();
    }
}
