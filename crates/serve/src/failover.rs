//! The failover engine: what a cluster participant does once it has a
//! request and a (possibly suspicious) view of the fleet.
//!
//! Both the router ([`crate::router`]) and the
//! [`ClusterClient`] route through one [`Shards`]: ring order, suspected
//! shards demoted to the back ([`DetectorPlane::prefer_unsuspected`]),
//! one try per replica, a typed `Overloaded`/`DeadlineExceeded` shed kept
//! as the answer of last resort, and every answering worker's generation
//! folded into per-shard restart tracking. What differs between the two
//! callers stays with them: the router's admission pool, the client's
//! hedging and batch fan-out.
//!
//! Connections are a per-shard checkout/checkin pool of
//! [`HardenedClient`]s. Every client goes back after every call — a
//! client that lost or desynchronized its socket has already dropped it
//! and reconnects on its next call — so a shard's circuit breaker and
//! backoff state carry across calls, and concurrent callers (a router's
//! forwarding threads, a batch's per-shard sub-batches and their
//! failovers) each check out their own connection instead of queueing
//! behind one.

use crate::client::{Call, Client, ClientError, HardenedClient, RetryPolicy};
use crate::cluster::{ClusterClient, Membership};
use crate::detector::{DetectorConfig, DetectorPlane};
use crate::ring::HashRing;
use crate::wire::{
    ClusterHealthReport, ErrorCode, RequestKind, RequestOptions, Response, ResponseKind,
    ShardHealth,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Idle connections kept per shard. Checkouts beyond this are created
/// fresh and dropped at checkin once the pool is full, so a burst can
/// still fan out while steady state stays at a bounded socket count.
const POOL_PER_SHARD: usize = 8;

/// Sentinel for "no generation observed yet" in the per-shard table
/// (real generations start at 0 for non-durable workers).
const GEN_UNSEEN: u64 = u64::MAX;

/// A fleet of shards as one failover target: ring, connection pool,
/// generation tracking, failover accounting and the optional live
/// failure-detector plane.
pub(crate) struct Shards {
    membership: Arc<Membership>,
    ring: HashRing,
    policy: RetryPolicy,
    /// Idle connections, per shard.
    idle: Vec<Mutex<Vec<HardenedClient>>>,
    /// Last generation observed per shard ([`GEN_UNSEEN`] until the
    /// first answer), for restart accounting and the health view.
    last_gen: Vec<AtomicU64>,
    /// Worker restarts observed across all shards (generation changes).
    restarts: AtomicU64,
    /// Tries on a replica other than the request's first-choice owner.
    failovers: AtomicU64,
    /// Live suspicion plane; probes every shard in the background.
    detector: Option<Arc<DetectorPlane>>,
}

impl Shards {
    /// An engine over `membership` (no connections are made yet). Every
    /// connection gets its own copy of `policy`.
    pub(crate) fn new(membership: Arc<Membership>, policy: RetryPolicy) -> Shards {
        let shards = membership.len();
        Shards {
            ring: HashRing::new(shards),
            policy,
            idle: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            last_gen: (0..shards).map(|_| AtomicU64::new(GEN_UNSEEN)).collect(),
            restarts: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            detector: None,
            membership,
        }
    }

    /// Starts a live [`DetectorPlane`] over the membership; it stops
    /// when the engine is dropped.
    pub(crate) fn start_detector(&mut self, config: DetectorConfig) {
        self.detector = Some(DetectorPlane::start(Arc::clone(&self.membership), config));
    }

    pub(crate) fn ring(&self) -> &HashRing {
        &self.ring
    }

    pub(crate) fn detector(&self) -> Option<&Arc<DetectorPlane>> {
        self.detector.as_ref()
    }

    pub(crate) fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::SeqCst)
    }

    /// Counts `n` requests served away from their first-choice shard
    /// outside [`Shards::try_order`] (a demoted owner's sub-batch, a
    /// hedge's backup leg).
    pub(crate) fn count_failovers(&self, n: u64) {
        self.failovers.fetch_add(n, Ordering::SeqCst);
    }

    pub(crate) fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::SeqCst)
    }

    /// The replica order for `kind`: the ring walk from its owner, with
    /// suspected shards demoted behind the rest. Returns the order and
    /// how many tries it already counts as made — 1 when the owner was
    /// demoted, so the first try counts as a failover, the same meaning
    /// as a reactive one ("answered by a replica other than the owner").
    pub(crate) fn order(&self, kind: &RequestKind) -> (Vec<usize>, u32) {
        let mut order = self.ring.replicas(ClusterClient::shard_key(kind));
        let mut attempted = 0;
        if let Some(plane) = &self.detector {
            if plane.prefer_unsuspected(&mut order) {
                plane.note_proactive_failover();
                attempted = 1;
            }
        }
        (order, attempted)
    }

    /// Tries `kind` on each shard of `order` in turn; every try after
    /// the first overall (`attempted` counts tries already made) is a
    /// failover. Answers are shard-stamped. A typed shed moves on to
    /// the next replica but is kept as the answer of last resort: if
    /// *every* replica sheds, the caller gets the last typed shed (zero
    /// wrong answers, never a made-up error), and only if every replica
    /// is unreachable does the transport error surface.
    pub(crate) fn try_order(
        &self,
        kind: &RequestKind,
        options: RequestOptions,
        order: &[usize],
        mut attempted: u32,
    ) -> Result<Response, ClientError> {
        let mut last_err: Option<ClientError> = None;
        let mut last_shed: Option<Response> = None;
        for &shard in order {
            if attempted > 0 {
                self.count_failovers(1);
            }
            attempted += 1;
            match self.call(shard, |c| c.request_with_options(kind.clone(), options)) {
                Ok(resp) => {
                    let resp = stamped(resp, shard);
                    if !is_shed(&resp) {
                        return Ok(resp);
                    }
                    last_shed = Some(resp);
                }
                Err(e) => last_err = Some(e),
            }
        }
        match last_shed {
            Some(resp) => Ok(resp),
            None => Err(last_err
                .unwrap_or_else(|| ClientError::Protocol("cluster has no shards".to_string()))),
        }
    }

    /// Runs `f` on a pooled connection to `shard`, then folds any
    /// generation it read into per-shard restart tracking and returns
    /// the connection to the pool. Pooled connections that predate a
    /// membership change are discarded on the way in and out.
    pub(crate) fn call<T>(&self, shard: usize, f: impl FnOnce(&mut HardenedClient) -> T) -> T {
        let addr = self.membership.addr(shard);
        let pooled = {
            let mut idle = self.idle[shard].lock().expect("conn pool lock poisoned");
            std::iter::from_fn(|| idle.pop()).find(|c| c.addr() == addr)
        };
        let mut client = pooled.unwrap_or_else(|| HardenedClient::new(addr, self.policy));
        let before = client.last_generation();
        let out = f(&mut client);
        // The per-connection restart events are subsumed by per-shard
        // tracking; drain them so they cannot accumulate unread.
        let _ = client.take_events();
        // Only a generation read during *this* call is news: a pooled
        // connection that failed without reading still remembers an
        // older worker's.
        let after = client.last_generation();
        if let Some(generation) = after.filter(|_| after != before) {
            self.note_generation(shard, generation);
        }
        let mut idle = self.idle[shard].lock().expect("conn pool lock poisoned");
        if idle.len() < POOL_PER_SHARD && client.addr() == self.membership.addr(shard) {
            idle.push(client);
        }
        out
    }

    /// Sends `kind` to `shard` once, on a fresh connection that may
    /// spend one [`RetryPolicy::request_timeout`] and no retry budget,
    /// and folds the answer's generation into restart tracking. For
    /// probes: a shard that accepts connections but never answers holds
    /// its caller for one timeout, not `max_retries + 1` of them plus
    /// backoff.
    pub(crate) fn probe(
        &self,
        shard: usize,
        kind: RequestKind,
    ) -> Result<ResponseKind, ClientError> {
        let timeout = Some(self.policy.request_timeout);
        let response =
            Client::connect_with_timeout(self.membership.addr(shard), timeout)?.request(kind)?;
        self.note_generation(shard, response.generation);
        Ok(response.result)
    }

    /// Records a generation read from `shard`; a change from the last
    /// one seen is a worker restart.
    fn note_generation(&self, shard: usize, generation: u64) {
        let old = self.last_gen[shard].swap(generation, Ordering::SeqCst);
        if old != GEN_UNSEEN && old != generation {
            self.restarts.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Live per-shard health probes, aggregated and annotated with the
    /// detector plane's suspicion readings. Each shard gets one
    /// [`Shards::probe`], and the probes run on scoped threads, so a
    /// silent shard holds the report for one request timeout; an
    /// unreachable shard's row carries its last observed generation, so
    /// the report never blocks on — or lies about — a dead worker.
    pub(crate) fn cluster_health(&self) -> ClusterHealthReport {
        let rows: Vec<ShardHealth> = std::thread::scope(|scope| {
            let probes: Vec<_> = (0..self.ring.shards())
                .map(|shard| {
                    scope.spawn(move || {
                        let addr = self.membership.addr(shard);
                        match self.probe(shard, RequestKind::Health) {
                            Ok(ResponseKind::Health(report)) => {
                                ShardHealth::new(shard, addr, true, report.generation, Some(report))
                            }
                            _ => self.unreachable_row(shard),
                        }
                    })
                })
                .collect();
            // A panicking probe must not take the whole report down
            // with it: report that shard as unreachable.
            probes
                .into_iter()
                .enumerate()
                .map(|(shard, p)| p.join().unwrap_or_else(|_| self.unreachable_row(shard)))
                .collect()
        });
        self.annotated(ClusterHealthReport::aggregate(rows))
    }

    /// The health row of a shard that did not answer: unreachable, with
    /// the last generation observed from it (0 if none was).
    pub(crate) fn unreachable_row(&self, shard: usize) -> ShardHealth {
        let last = self.last_gen[shard].load(Ordering::SeqCst);
        let generation = if last == GEN_UNSEEN { 0 } else { last };
        ShardHealth::new(shard, self.membership.addr(shard), false, generation, None)
    }

    /// `report` with the detector plane's suspicion readings, if a plane
    /// runs.
    pub(crate) fn annotated(&self, mut report: ClusterHealthReport) -> ClusterHealthReport {
        if let Some(plane) = &self.detector {
            plane.annotate(&mut report);
        }
        report
    }
}

impl Drop for Shards {
    fn drop(&mut self) {
        // The probe threads hold their own Arc to the plane, so it must
        // be stopped explicitly — dropping the Arc alone would leak them.
        if let Some(plane) = &self.detector {
            plane.stop();
        }
    }
}

/// Stamps the answering shard on a response that does not name one yet
/// (a router's answer already names its worker).
pub(crate) fn stamped(mut resp: Response, shard: usize) -> Response {
    if resp.shard.is_none() {
        resp.shard = Some(shard);
    }
    resp
}

/// Whether a response is a typed shed: kept as the answer of last
/// resort, never a winning answer while another replica might compute.
pub(crate) fn is_shed(resp: &Response) -> bool {
    matches!(
        &resp.result,
        ResponseKind::Error(e)
            if matches!(e.code, ErrorCode::Overloaded | ErrorCode::DeadlineExceeded)
    )
}
