//! Cluster membership, the cluster-aware client, and the worker fleet.
//!
//! A cluster is N independent `ktudc-serve` worker processes plus a
//! [`HashRing`] that every participant computes identically: requests
//! route by the same 64-bit digest the scenario cache keys on, so the
//! cache shards cleanly across workers with no duplicate compute. This
//! module holds the three pieces that turn a list of addresses into a
//! cluster:
//!
//! - [`Membership`] — the mutable shard→address table. Worker restarts
//!   under a fleet supervisor re-bind ephemeral ports, so addresses are
//!   *state*, not configuration; everything that talks to a shard reads
//!   the table at call time.
//! - [`ClusterClient`] — routes by cache key over the ring and fails
//!   over to the next replica when a shard is down (transport error,
//!   retries exhausted, open breaker), shedding with
//!   `Overloaded`/`DeadlineExceeded`, or suspected by the optional
//!   detector plane. Routing, failover, per-shard generation tracking
//!   and the health fan-out are the router's own engine
//!   (`serve::failover`); the client adds hedging and batch fan-out.
//! - [`Fleet`] + [`launch_fleet`] — runs N workers under the existing
//!   crash-loop [`supervise`] machinery, one supervisor thread per
//!   shard, updating [`Membership`] from each worker's boot banner.
//!
//! Failover is exercised at the wire level too: `tests/serve_chaosnet.rs`
//! puts a shard behind a one-way-partitioned [`crate::chaosnet`] proxy
//! and asserts every answer rerouted to a replica is byte-identical to
//! the direct computation.

use crate::cache::LruCache;
use crate::client::{Call, ClientError, HardenedClient, RetryPolicy, ServerCall};
use crate::detector::{DetectorConfig, DetectorPlane};
use crate::failover::{is_shed, stamped, Shards};
use crate::metrics::StatsReport;
use crate::ring::HashRing;
use crate::supervisor::{supervise, SupervisorPolicy, SupervisorReport};
use crate::wire::{ClusterHealthReport, RequestKind, RequestOptions, Response, ResponseKind};
use std::io::{BufRead, BufReader};
use std::process::Child;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Lines of a worker's stdout scanned for the boot banner before giving
/// up on an announcement. Generously above the worker's actual boot
/// output (generation line + listen line) so a future extra line never
/// breaks fleet startup, but bounded so a silent child cannot hang its
/// supervisor.
const MAX_BOOT_LINES: usize = 64;

/// The shard→address table of a running cluster.
///
/// Shard *count* is fixed for the cluster's lifetime (it defines the
/// hash ring); shard *addresses* are mutable because a supervised worker
/// that crashes comes back on a fresh ephemeral port. Readers take the
/// address at call time, so an updated entry heals every subsequent
/// request with no client rebuild.
pub struct Membership {
    addrs: RwLock<Vec<String>>,
}

impl Membership {
    /// A table with one slot per shard. Empty strings are legal
    /// placeholders for "not announced yet" (see [`Fleet::wait_ready`]).
    #[must_use]
    pub fn new(addrs: Vec<String>) -> Membership {
        Membership {
            addrs: RwLock::new(addrs),
        }
    }

    /// Number of shards (fixed for the cluster's lifetime).
    #[must_use]
    pub fn len(&self) -> usize {
        self.addrs.read().expect("membership lock poisoned").len()
    }

    /// Whether the cluster has no shards at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current address of `shard`.
    #[must_use]
    pub fn addr(&self, shard: usize) -> String {
        self.addrs.read().expect("membership lock poisoned")[shard].clone()
    }

    /// Points `shard` at a new address (a restarted worker re-announced).
    pub fn set_addr(&self, shard: usize, addr: impl Into<String>) {
        self.addrs.write().expect("membership lock poisoned")[shard] = addr.into();
    }

    /// The full table at this instant.
    #[must_use]
    pub fn snapshot(&self) -> Vec<String> {
        self.addrs.read().expect("membership lock poisoned").clone()
    }
}

/// Counters of what a [`ClusterClient`] has masked or observed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClusterMetrics {
    /// Requests answered by a replica other than their owner shard
    /// (each extra shard tried counts once).
    pub failovers: u64,
    /// Worker restarts detected via a per-shard generation change.
    pub worker_restarts: u64,
}

/// A cluster-aware client: requests routed by cache key over the
/// [`HashRing`], failover to the next replica when a shard is down or
/// shedding, through the same failover engine as the router.
///
/// Thread-safe: batches fan sub-batches out across shards on scoped
/// threads, and independent callers may share one instance (each call
/// checks out its own pooled per-shard connection).
pub struct ClusterClient {
    shards: Shards,
}

impl ClusterClient {
    /// A client over `membership` (no connections are made yet). Each
    /// shard connection gets its own independent copy of `policy` —
    /// per-shard retry budgets, backoff schedules, and circuit breakers.
    #[must_use]
    pub fn new(membership: Arc<Membership>, policy: RetryPolicy) -> ClusterClient {
        ClusterClient {
            shards: Shards::new(membership, policy),
        }
    }

    /// Attaches a live [`DetectorPlane`] (started immediately): requests
    /// and batches skip suspected shards proactively, and a request
    /// whose primary's φ is in the soft band is hedged to the next
    /// replica after [`DetectorPlane::hedge_delay`]. The plane stops
    /// when the client is dropped.
    #[must_use]
    pub fn with_detector(mut self, config: DetectorConfig) -> ClusterClient {
        self.shards.start_detector(config);
        self
    }

    /// The attached detector plane, if any.
    #[must_use]
    pub fn detector(&self) -> Option<&Arc<DetectorPlane>> {
        self.shards.detector()
    }

    /// The routing digest of a request body: the same key the scenario
    /// cache files it under, so routing and caching agree by
    /// construction.
    #[must_use]
    pub fn shard_key(kind: &RequestKind) -> u64 {
        LruCache::key_of(&serde_json::to_string(kind).unwrap_or_default())
    }

    /// The shard that owns `kind` (before any failover).
    #[must_use]
    pub fn route(&self, kind: &RequestKind) -> usize {
        self.ring().shard_for(Self::shard_key(kind))
    }

    /// The ring this client routes over.
    #[must_use]
    pub fn ring(&self) -> &HashRing {
        self.shards.ring()
    }

    /// Hedges a request whose primary's φ crossed the soft threshold:
    /// send to the primary, and if no answer lands within the
    /// RTT-derived [`DetectorPlane::hedge_delay`], fire the same request
    /// at the next replica and take the first non-shed success. The
    /// loser is discarded — safe because replicas compute byte-identical
    /// answers (the audited uniform contract), and dedup-safe because
    /// the backup targets a *different* shard's cache while single-flight
    /// on each shard keeps identical racing bodies to one computation.
    ///
    /// Both legs run on scoped threads, so the loser is joined before
    /// returning; its wait is bounded by the per-shard [`RetryPolicy`]
    /// budget, and in the soft band (primary not yet suspected) both
    /// legs normally finish quickly.
    fn hedged(
        &self,
        kind: &RequestKind,
        options: RequestOptions,
        order: &[usize],
        attempted: u32,
        plane: &Arc<DetectorPlane>,
    ) -> Result<Response, ClientError> {
        let primary = order[0];
        let backup = order[1];
        // A demoted primary already counts as one failover.
        self.shards.count_failovers(u64::from(attempted));
        let leg = |shard: usize| self.shards.try_order(kind, options, &[shard], 0);
        let delay = plane.hedge_delay();
        let (tx, rx) = mpsc::channel();
        let mut legs: Vec<(usize, Result<Response, ClientError>)> = Vec::with_capacity(2);
        let mut fired = false;
        std::thread::scope(|scope| {
            let ptx = tx.clone();
            scope.spawn(move || {
                let _ = ptx.send((primary, leg(primary)));
            });
            match rx.recv_timeout(delay) {
                Ok(leg) => legs.push(leg),
                Err(_) => {
                    fired = true;
                    plane.note_hedge_fired();
                    let btx = tx.clone();
                    scope.spawn(move || {
                        let _ = btx.send((backup, leg(backup)));
                    });
                    legs.extend(rx.iter().take(2));
                }
            }
        });
        // First non-shed success in arrival order wins; the other leg's
        // outcome (if any) is discarded.
        let mut last_shed: Option<Response> = None;
        let mut last_err: Option<ClientError> = None;
        let mut winner: Option<(usize, Response)> = None;
        for (shard, outcome) in legs {
            match outcome {
                Ok(resp) if !is_shed(&resp) => {
                    if winner.is_none() {
                        winner = Some((shard, resp));
                    }
                }
                Ok(resp) => last_shed = Some(resp),
                Err(e) => last_err = Some(e),
            }
        }
        if let Some((shard, resp)) = winner {
            if fired {
                if shard == backup {
                    plane.note_hedge_won();
                    // The backup answered: served by a non-owner replica.
                    self.shards.count_failovers(1);
                } else {
                    plane.note_hedge_wasted();
                }
            }
            return Ok(resp);
        }
        // Every hedge leg failed or shed: continue down the remaining
        // replicas reactively, keeping the legs' typed shed and transport
        // error as answers of last resort.
        let tried = if fired { 2 } else { 1 };
        match self.shards.try_order(
            kind,
            options,
            &order[tried.min(order.len())..],
            attempted + 1,
        ) {
            Ok(resp) => Ok(resp),
            Err(e) => match last_shed {
                Some(shed) => Ok(shed),
                None => Err(last_err.unwrap_or(e)),
            },
        }
    }

    /// One shard's share of a batch: pipeline the sub-batch to it, then
    /// fail individual sheds (or the whole sub-batch, on transport
    /// failure) over to the rest of each request's replica order,
    /// keeping this shard's typed shed as the answer of last resort.
    /// Returns one outcome per index, in the order of `indices`.
    fn run_sub_batch(
        &self,
        shard: usize,
        indices: &[usize],
        kinds: &[(RequestKind, RequestOptions)],
        orders: &[(Vec<usize>, u32)],
    ) -> Vec<Result<Response, ClientError>> {
        // Requests sent here because their owner is suspected already
        // count as failovers.
        self.shards
            .count_failovers(indices.iter().map(|&i| u64::from(orders[i].1)).sum());
        let fail_over = |i: usize, shed: Option<Response>| {
            let (kind, options) = &kinds[i];
            let (order, attempted) = &orders[i];
            match self
                .shards
                .try_order(kind, *options, &order[1..], attempted + 1)
            {
                Ok(resp) => Ok(resp),
                Err(e) => shed.ok_or(e),
            }
        };
        let sub: Vec<(RequestKind, RequestOptions)> =
            indices.iter().map(|&i| kinds[i].clone()).collect();
        match self.shards.call(shard, |c| c.batch_with_options(sub)) {
            Ok(responses) if responses.len() == indices.len() => indices
                .iter()
                .zip(responses)
                .map(|(&i, resp)| {
                    let resp = stamped(resp, shard);
                    if is_shed(&resp) {
                        fail_over(i, Some(resp))
                    } else {
                        Ok(resp)
                    }
                })
                .collect(),
            // A short response set would be a protocol violation from
            // HardenedClient; treat it like a transport failure and
            // re-derive every answer from the replicas.
            Ok(_) | Err(_) => indices.iter().map(|&i| fail_over(i, None)).collect(),
        }
    }

    /// Polls every shard's health in parallel and aggregates the rows.
    /// Unreachable shards get a `reachable: false` row carrying their
    /// last observed generation, so the report never blocks on — or
    /// lies about — a dead worker.
    ///
    /// A single member may be a router fronting many workers, so it is
    /// asked for its own `ClusterHealth` view first — the fleet
    /// aggregate is strictly more informative than one `Health` row
    /// about the router itself, and a plain worker answers the same
    /// request as a one-shard cluster, so nothing is lost either way.
    #[must_use]
    pub fn cluster_health(&self) -> ClusterHealthReport {
        if self.ring().shards() == 1 {
            if let Ok(ResponseKind::ClusterHealth(mut report)) =
                self.shards.probe(0, RequestKind::ClusterHealth)
            {
                if let Some(plane) = self.shards.detector() {
                    plane.annotate(&mut report);
                }
                return report;
            }
        }
        self.shards.cluster_health()
    }

    /// Fetches every shard's metrics snapshot (sequentially; stats are
    /// cheap). Unreachable shards report their error in place.
    #[must_use]
    pub fn stats_per_shard(&self) -> Vec<(usize, Result<StatsReport, ClientError>)> {
        (0..self.ring().shards())
            .map(|shard| (shard, self.shards.call(shard, HardenedClient::stats)))
            .collect()
    }

    /// Asks every shard to drain and exit; returns how many acknowledged
    /// (already-dead shards are not an error — the goal state is "down").
    pub fn shutdown_cluster(&self) -> usize {
        (0..self.ring().shards())
            .filter(|&shard| {
                self.shards
                    .call(shard, HardenedClient::shutdown_server)
                    .is_ok()
            })
            .count()
    }

    /// What this client has masked and observed so far.
    #[must_use]
    pub fn metrics(&self) -> ClusterMetrics {
        ClusterMetrics {
            failovers: self.shards.failovers(),
            worker_restarts: self.shards.restarts(),
        }
    }
}

/// Requests route by cache key over the ring and fail over through each
/// key's replica order when a shard is down, shedding, or suspected.
/// Typed sheds are successful responses (the last one is kept as the
/// answer of last resort); a request fails with the last shard's error
/// only when *every* replica was unreachable. Implemented for
/// `&ClusterClient`, so that threads share one client:
/// `(&cluster).request(kind)`.
impl Call for &ClusterClient {
    /// A single request (a batch of one) is hedged to the next replica
    /// when its primary's φ is in the soft band. A larger batch fans
    /// per-shard sub-batches out in parallel (scoped threads, one per
    /// first-choice shard: the owner, or its failover target when the
    /// detector suspects the owner), merges the responses back into
    /// request order, and is not hedged; one dead shard degrades only
    /// its own keys' latency. A failure is the first per-request failure
    /// in request order.
    fn batch_with_options(
        &mut self,
        kinds: Vec<(RequestKind, RequestOptions)>,
    ) -> Result<Vec<Response>, ClientError> {
        if let [(kind, options)] = kinds.as_slice() {
            let (order, attempted) = self.shards.order(kind);
            let response = match self.shards.detector() {
                Some(plane) if order.len() >= 2 && plane.should_hedge(order[0]) => {
                    self.hedged(kind, *options, &order, attempted, plane)
                }
                _ => self.shards.try_order(kind, *options, &order, attempted),
            };
            return Ok(vec![response?]);
        }
        let orders: Vec<(Vec<usize>, u32)> = kinds
            .iter()
            .map(|(kind, _)| self.shards.order(kind))
            .collect();
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.ring().shards()];
        for (i, (order, _)) in orders.iter().enumerate() {
            if let Some(&first) = order.first() {
                by_shard[first].push(i);
            }
        }
        // Only a request with no replica at all is never sent.
        let mut slots: Vec<Result<Response, ClientError>> = kinds
            .iter()
            .map(|_| Err(ClientError::Protocol("cluster has no shards".to_string())))
            .collect();
        std::thread::scope(|scope| {
            let subs: Vec<_> = by_shard
                .iter()
                .enumerate()
                .filter(|(_, indices)| !indices.is_empty())
                .map(|(shard, indices)| {
                    let (client, kinds, orders) = (*self, &kinds, &orders);
                    let sub =
                        scope.spawn(move || client.run_sub_batch(shard, indices, kinds, orders));
                    (indices, sub)
                })
                .collect();
            for (indices, sub) in subs {
                let outcomes = sub.join().expect("sub-batch thread panicked");
                for (&i, outcome) in indices.iter().zip(outcomes) {
                    slots[i] = outcome;
                }
            }
        });
        slots.into_iter().collect()
    }
}

/// Extracts the announced address from a worker's boot banner line
/// (`… listening on 127.0.0.1:40123`).
fn parse_listen_addr(line: &str) -> Option<&str> {
    let at = line.find("listening on ")?;
    let addr = line[at + "listening on ".len()..].trim();
    (!addr.is_empty()).then_some(addr)
}

/// A supervised fleet of worker processes, one shard each.
///
/// Each shard runs its own [`supervise`] loop on a dedicated thread:
/// crash-loop backoff, give-up budget, and stable-run streak reset all
/// apply per worker. When a worker (re)starts, its boot banner is parsed
/// for the bound address and [`Membership`] is updated in place — the
/// respawned worker's ephemeral port heals into the routing table
/// without restarting anything else.
pub struct Fleet {
    membership: Arc<Membership>,
    stop: Arc<AtomicBool>,
    pids: Arc<Mutex<Vec<Option<u32>>>>,
    supervisors: Vec<JoinHandle<std::io::Result<SupervisorReport>>>,
}

impl Fleet {
    /// The fleet's live shard→address table.
    #[must_use]
    pub fn membership(&self) -> Arc<Membership> {
        Arc::clone(&self.membership)
    }

    /// The current process id of `shard`'s worker (None until its first
    /// announcement). After a crash this lags until the supervisor's
    /// respawn announces.
    #[must_use]
    pub fn pid(&self, shard: usize) -> Option<u32> {
        self.pids.lock().expect("pids lock poisoned")[shard]
    }

    /// Blocks until every shard has announced an address, or `timeout`
    /// passes. Returns whether the fleet is fully announced.
    #[must_use]
    pub fn wait_ready(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.membership.snapshot().iter().all(|a| !a.is_empty()) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Stops every supervisor (killing and reaping its worker) and
    /// returns the per-shard supervision reports.
    pub fn stop_and_join(self) -> Vec<std::io::Result<SupervisorReport>> {
        self.stop.store(true, Ordering::SeqCst);
        self.supervisors
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(std::io::Error::other("supervisor thread panicked")))
            })
            .collect()
    }
}

/// Launches `shards` supervised workers. `spawn(shard)` must return a
/// [`Child`] whose stdout is piped (the boot banner is parsed from it);
/// it is called again on every restart of that shard, so per-shard state
/// (data dir, flags) belongs in the closure.
///
/// Workers that die are restarted under `policy`'s crash-loop backoff;
/// a shard whose give-up budget runs out stays down (its supervisor
/// thread ends with `gave_up` in its report) while the rest of the
/// fleet keeps serving.
#[must_use]
pub fn launch_fleet<S>(shards: usize, policy: SupervisorPolicy, spawn: S) -> Fleet
where
    S: Fn(usize) -> std::io::Result<Child> + Send + Sync + 'static,
{
    let membership = Arc::new(Membership::new(vec![String::new(); shards]));
    let stop = Arc::new(AtomicBool::new(false));
    let pids = Arc::new(Mutex::new(vec![None; shards]));
    let spawn = Arc::new(spawn);
    let supervisors = (0..shards)
        .map(|shard| {
            let membership = Arc::clone(&membership);
            let stop = Arc::clone(&stop);
            let pids = Arc::clone(&pids);
            let spawn = Arc::clone(&spawn);
            std::thread::spawn(move || {
                supervise(
                    || {
                        let mut child = spawn(shard)?;
                        let pid = child.id();
                        if let Some(stdout) = child.stdout.take() {
                            let mut reader = BufReader::new(stdout);
                            let mut announced: Option<String> = None;
                            for _ in 0..MAX_BOOT_LINES {
                                let mut line = String::new();
                                match reader.read_line(&mut line) {
                                    Ok(0) | Err(_) => break,
                                    Ok(_) => {
                                        if let Some(addr) = parse_listen_addr(&line) {
                                            announced = Some(addr.to_string());
                                            break;
                                        }
                                    }
                                }
                            }
                            if let Some(addr) = announced {
                                membership.set_addr(shard, addr.clone());
                                pids.lock().expect("pids lock poisoned")[shard] = Some(pid);
                                println!(
                                    "ktudc-serve: shard {shard} pid {pid} listening on {addr}"
                                );
                            }
                            // Keep draining so the worker never blocks on
                            // a full stdout pipe; the thread ends at the
                            // worker's EOF (its death), whoever causes it.
                            std::thread::spawn(move || {
                                for line in reader.lines() {
                                    if line.is_err() {
                                        break;
                                    }
                                }
                            });
                        }
                        Ok(child)
                    },
                    policy,
                    &stop,
                )
            })
        })
        .collect();
    Fleet {
        membership,
        stop,
        pids,
        supervisors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve, ServeConfig};
    use crate::wire::{ErrorCode, ResponseKind};
    use ktudc_core::harness::{CellSpec, FdChoice, ProtocolChoice};

    fn quick_policy() -> RetryPolicy {
        RetryPolicy {
            max_retries: 1,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            ..RetryPolicy::default()
        }
    }

    fn cheap_cell(i: u64) -> RequestKind {
        RequestKind::Cell(
            CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable)
                .trials(1)
                .horizon(40 + i),
        )
    }

    #[test]
    fn membership_is_mutable_shared_state() {
        let m = Membership::new(vec!["a:1".to_string(), "b:2".to_string()]);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
        assert_eq!(m.addr(1), "b:2");
        m.set_addr(1, "c:3");
        assert_eq!(m.addr(1), "c:3");
        assert_eq!(m.snapshot(), vec!["a:1".to_string(), "c:3".to_string()]);
    }

    #[test]
    fn live_addr_swap_never_tears() {
        // In-flight routing reads addresses while a fleet supervisor
        // rewrites them. Readers must only ever observe one of the two
        // complete values — never a torn mix (which would route a
        // request to an address nobody announced).
        let a = "127.0.0.1:41001".to_string();
        let b = "10.99.88.77:59999".to_string();
        let m = Arc::new(Membership::new(vec![a.clone()]));
        let start = Arc::new(std::sync::Barrier::new(5));
        std::thread::scope(|scope| {
            {
                let (m, start) = (Arc::clone(&m), Arc::clone(&start));
                let (a, b) = (a.clone(), b.clone());
                scope.spawn(move || {
                    start.wait();
                    for i in 0..20_000 {
                        m.set_addr(0, if i % 2 == 0 { b.clone() } else { a.clone() });
                    }
                });
            }
            for _ in 0..4 {
                let (m, start) = (Arc::clone(&m), Arc::clone(&start));
                let (a, b) = (a.clone(), b.clone());
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..20_000 {
                        let seen = m.addr(0);
                        assert!(seen == a || seen == b, "torn address observed: {seen:?}");
                    }
                });
            }
        });
    }

    #[test]
    fn boot_banner_parsing() {
        assert_eq!(
            parse_listen_addr("ktudc-serve: listening on 127.0.0.1:40123"),
            Some("127.0.0.1:40123")
        );
        assert_eq!(
            parse_listen_addr("listening on 10.0.0.1:7199\n"),
            Some("10.0.0.1:7199")
        );
        assert_eq!(parse_listen_addr("generation 3"), None);
        assert_eq!(parse_listen_addr("listening on "), None);
    }

    #[test]
    fn routing_agrees_with_caching_across_shards() {
        let servers: Vec<_> = (0..2)
            .map(|_| {
                serve(&ServeConfig {
                    workers: 1,
                    ..ServeConfig::default()
                })
                .expect("serve")
            })
            .collect();
        let membership = Arc::new(Membership::new(
            servers.iter().map(|s| s.addr().to_string()).collect(),
        ));
        let cluster = ClusterClient::new(Arc::clone(&membership), quick_policy());

        let kinds: Vec<RequestKind> = (0..6).map(cheap_cell).collect();
        let cold = (&cluster).batch(kinds.clone()).expect("cold batch");
        let warm = (&cluster).batch(kinds.clone()).expect("warm batch");
        assert_eq!(cold.len(), 6);
        for ((kind, cold), warm) in kinds.iter().zip(&cold).zip(&warm) {
            // The router stamp matches the ring, both passes.
            assert_eq!(cold.shard, Some(cluster.route(kind)));
            assert_eq!(warm.shard, cold.shard);
            // The second pass hits the shard's cache: same shard, same
            // payload, no recompute.
            assert!(!cold.cached);
            assert!(warm.cached, "warm pass must be a cache hit");
            assert_eq!(warm.result, cold.result);
        }
        assert_eq!(cluster.metrics().failovers, 0);
        for server in servers {
            server.shutdown();
        }
    }

    #[test]
    fn dead_shard_fails_over_to_a_replica() {
        let server = serve(&ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("serve");
        // Shard 1 is a dead address (reserved port, nothing listens).
        let membership = Arc::new(Membership::new(vec![
            server.addr().to_string(),
            "127.0.0.1:1".to_string(),
        ]));
        let cluster = ClusterClient::new(Arc::clone(&membership), quick_policy());

        // Enough distinct cells that both shards own some keys.
        let kinds: Vec<RequestKind> = (0..8).map(cheap_cell).collect();
        assert!(
            kinds.iter().any(|k| cluster.route(k) == 1),
            "test needs at least one key owned by the dead shard"
        );
        let responses = (&cluster)
            .batch(kinds.clone())
            .expect("batch with failover");
        for (kind, resp) in kinds.iter().zip(&responses) {
            // Every answer came from the live shard, including the dead
            // shard's keys, and every answer is a real payload.
            assert_eq!(resp.shard, Some(0));
            assert!(
                matches!(resp.result, ResponseKind::Cell(_)),
                "expected a cell payload for {kind:?}, got {:?}",
                resp.result
            );
        }
        assert!(cluster.metrics().failovers > 0);

        // The cluster health view shows one reachable shard of two.
        let health = cluster.cluster_health();
        assert_eq!(health.shards.len(), 2);
        assert_eq!(health.reachable_shards, 1);
        assert!(health.shards[0].reachable);
        assert!(!health.shards[1].reachable);
        server.shutdown();
    }

    #[test]
    fn batch_keeps_the_owners_stamped_shed_when_every_replica_is_dead() {
        let server = serve(&ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("serve");
        let membership = Arc::new(Membership::new(vec![
            server.addr().to_string(),
            "127.0.0.1:1".to_string(),
        ]));
        let cluster = ClusterClient::new(membership, quick_policy());
        // Two keys, so that the batch takes the sub-batch path (a batch
        // of one is sent as a single request).
        let owned: Vec<RequestKind> = (0..64)
            .map(cheap_cell)
            .filter(|k| cluster.route(k) == 0)
            .take(2)
            .collect();
        assert_eq!(owned.len(), 2, "two keys are owned by the live shard");
        // A zero deadline is shed at admission, before any compute.
        let shed_now = RequestOptions {
            deadline_ms: Some(0),
            ..RequestOptions::default()
        };
        let responses = (&cluster)
            .batch_with_options(owned.into_iter().map(|k| (k, shed_now)).collect())
            .expect("the owner's typed shed is the answer of last resort");
        assert_eq!(responses.len(), 2);
        for resp in &responses {
            let ResponseKind::Error(e) = &resp.result else {
                panic!("expected a typed shed, got {:?}", resp.result);
            };
            assert_eq!(e.code, ErrorCode::DeadlineExceeded);
            assert_eq!(resp.shard, Some(0), "the shed names its shard");
        }
        assert_eq!(cluster.metrics().failovers, 2, "one failover per request");
        server.shutdown();
    }

    #[test]
    fn membership_update_heals_a_moved_shard() {
        let a = serve(&ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("serve a");
        let membership = Arc::new(Membership::new(vec!["127.0.0.1:1".to_string()]));
        let cluster = ClusterClient::new(Arc::clone(&membership), quick_policy());
        // All shards dead: the transport error surfaces.
        assert!((&cluster).request(cheap_cell(0)).is_err());
        // The shard re-announces (as a fleet supervisor would record).
        membership.set_addr(0, a.addr().to_string());
        let resp = (&cluster).request(cheap_cell(0)).expect("healed");
        assert!(matches!(resp.result, ResponseKind::Cell(_)));
        a.shutdown();
    }
}
