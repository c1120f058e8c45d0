//! Per-endpoint service metrics.
//!
//! Counters are lock-free atomics bumped on every completed request;
//! latencies go into a fixed-size ring of recent samples per endpoint
//! (a mutex-guarded overwrite buffer — the lock is held for an index
//! increment and a store, never across work). Percentiles are computed
//! on demand from whatever the ring currently holds, so they are
//! *recent* p50/p99, not all-time: exactly what you want when deciding
//! whether the daemon is currently keeping up.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Samples retained per endpoint for percentile estimates.
const RING_CAPACITY: usize = 4096;

/// The metrics endpoints, one per [`RequestKind`](crate::wire::RequestKind)
/// variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Endpoint {
    /// Table-1 cell runs.
    Cell,
    /// Epistemic checks.
    Check,
    /// Explorations.
    Explore,
    /// Empirical detector classifications. Deterministic per spec, so it
    /// sits inside the cacheable leading prefix of [`Endpoint::ALL`].
    Classify,
    /// Metrics snapshots.
    Stats,
    /// Shutdown requests.
    Shutdown,
    /// Durability health snapshots. Appended after `Shutdown` so the
    /// cacheable endpoints stay the leading prefix of [`Endpoint::ALL`]
    /// (the hit-rate fold depends on that ordering).
    Health,
    /// Cluster health snapshots (schema v5). Appended at the end for the
    /// same leading-prefix reason as `Health`.
    ClusterHealth,
    /// Detector-plane heartbeat probes (schema v6). Answered inline,
    /// never queued or cached; appended at the end for the same
    /// leading-prefix reason as `Health`.
    Ping,
}

impl Endpoint {
    /// Every endpoint, in report order (cacheable endpoints first).
    pub const ALL: [Endpoint; 9] = [
        Endpoint::Cell,
        Endpoint::Check,
        Endpoint::Explore,
        Endpoint::Classify,
        Endpoint::Stats,
        Endpoint::Shutdown,
        Endpoint::Health,
        Endpoint::ClusterHealth,
        Endpoint::Ping,
    ];

    /// The wire name of the endpoint.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Cell => "cell",
            Endpoint::Check => "check",
            Endpoint::Explore => "explore",
            Endpoint::Classify => "classify",
            Endpoint::Stats => "stats",
            Endpoint::Shutdown => "shutdown",
            Endpoint::Health => "health",
            Endpoint::ClusterHealth => "cluster_health",
            Endpoint::Ping => "ping",
        }
    }

    fn index(self) -> usize {
        match self {
            Endpoint::Cell => 0,
            Endpoint::Check => 1,
            Endpoint::Explore => 2,
            Endpoint::Classify => 3,
            Endpoint::Stats => 4,
            Endpoint::Shutdown => 5,
            Endpoint::Health => 6,
            Endpoint::ClusterHealth => 7,
            Endpoint::Ping => 8,
        }
    }
}

struct LatencyRing {
    samples: Vec<u64>,
    next: usize,
}

impl LatencyRing {
    fn new() -> Self {
        LatencyRing {
            samples: Vec::new(),
            next: 0,
        }
    }

    fn push(&mut self, micros: u64) {
        if self.samples.len() < RING_CAPACITY {
            self.samples.push(micros);
        } else {
            let at = self.next;
            self.samples[at] = micros;
        }
        self.next = (self.next + 1) % RING_CAPACITY;
    }
}

struct EndpointMetrics {
    requests: AtomicU64,
    cache_hits: AtomicU64,
    errors: AtomicU64,
    latencies: Mutex<LatencyRing>,
}

impl EndpointMetrics {
    fn new() -> Self {
        EndpointMetrics {
            requests: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            latencies: Mutex::new(LatencyRing::new()),
        }
    }
}

/// Server-lifetime metrics, shared across workers and connections.
pub struct Metrics {
    started: Instant,
    overloaded: AtomicU64,
    deadline_exceeded: AtomicU64,
    idle_reaped: AtomicU64,
    oversized_rejected: AtomicU64,
    malformed_lines: AtomicU64,
    /// Response lines handed to a connection's write buffer.
    responses: AtomicU64,
    /// Write syscalls those buffers were emptied with.
    flushes: AtomicU64,
    per: [EndpointMetrics; 9],
    /// Time admitted compute requests spent between acceptance and a
    /// worker picking them up. Global (not per-endpoint): the queue is
    /// shared, so its wait distribution is a property of the server.
    queue_wait: Mutex<LatencyRing>,
    /// Pure compute time of admitted requests (worker pickup to result),
    /// excluding queue wait. The p50 of this ring feeds the admission
    /// controller's wait estimate.
    compute: Mutex<LatencyRing>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh metrics; the uptime clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Metrics {
            started: Instant::now(),
            overloaded: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            idle_reaped: AtomicU64::new(0),
            oversized_rejected: AtomicU64::new(0),
            malformed_lines: AtomicU64::new(0),
            responses: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            per: std::array::from_fn(|_| EndpointMetrics::new()),
            queue_wait: Mutex::new(LatencyRing::new()),
            compute: Mutex::new(LatencyRing::new()),
        }
    }

    /// Microseconds since the metrics (and hence the server) started.
    #[must_use]
    pub fn uptime_micros(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Records a served request: latency sample plus hit accounting.
    pub fn record(&self, endpoint: Endpoint, micros: u64, cache_hit: bool) {
        let m = &self.per[endpoint.index()];
        m.requests.fetch_add(1, Ordering::Relaxed);
        if cache_hit {
            m.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        m.latencies
            .lock()
            .expect("metrics lock poisoned")
            .push(micros);
    }

    /// Records how long an admitted compute request sat in the queue
    /// before a worker picked it up.
    pub fn record_queue_wait(&self, micros: u64) {
        self.queue_wait
            .lock()
            .expect("metrics lock poisoned")
            .push(micros);
    }

    /// Records the pure compute time (queue wait excluded) of an admitted
    /// request.
    pub fn record_compute(&self, micros: u64) {
        self.compute
            .lock()
            .expect("metrics lock poisoned")
            .push(micros);
    }

    /// Recent median compute time, in microseconds; 0 with no samples.
    /// The admission controller multiplies this by queue occupancy to
    /// estimate a new request's wait.
    #[must_use]
    pub fn compute_p50_micros(&self) -> u64 {
        let ring = self.compute.lock().expect("metrics lock poisoned");
        percentiles(&ring.samples).0
    }

    /// Records a request that failed (no latency sample).
    pub fn record_error(&self, endpoint: Endpoint) {
        let m = &self.per[endpoint.index()];
        m.requests.fetch_add(1, Ordering::Relaxed);
        m.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request shed by backpressure (also counts as an error on
    /// its endpoint).
    pub fn record_overload(&self, endpoint: Endpoint) {
        self.overloaded.fetch_add(1, Ordering::Relaxed);
        self.record_error(endpoint);
    }

    /// Records a request shed (or aborted without a partial) because its
    /// deadline could not be met. Distinct from [`Metrics::record_overload`]:
    /// the server had capacity, the request ran out of time.
    pub fn record_shed_deadline(&self, endpoint: Endpoint) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
        self.record_error(endpoint);
    }

    /// Records a connection reaped by the idle read deadline: a
    /// half-open (or merely silent) peer whose thread was reclaimed
    /// instead of pinned forever.
    pub fn record_idle_reap(&self) {
        self.idle_reaped.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request line rejected for exceeding
    /// [`MAX_REQUEST_LINE_BYTES`](crate::wire::MAX_REQUEST_LINE_BYTES)
    /// before a newline arrived.
    pub fn record_oversized(&self) {
        self.oversized_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request line that was not valid JSON (answered with a
    /// typed `BadRequest`, never a panic or a stall).
    pub fn record_malformed(&self) {
        self.malformed_lines.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one outgoing response line and returns its 1-based
    /// sequence number — one monotone sequence across all connections,
    /// which is what [`ServerFaults`](crate::server::ServerFaults) fire
    /// on. `SeqCst` because concurrent writers must each see a distinct
    /// number for "every k-th response" to mean exactly that.
    pub fn next_response(&self) -> u64 {
        self.responses.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Records one write syscall emptying a connection's response
    /// buffer. `responses / flushes` is how many lines a write carries.
    pub fn record_flush(&self) {
        self.flushes.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshots everything into a wire-serializable report. Queue and
    /// cache occupancy plus the pool's steal counters are passed in by
    /// the server, which owns them.
    #[must_use]
    pub fn report(
        &self,
        pool: PoolCounters,
        cache_entries: usize,
        cache_capacity: usize,
    ) -> StatsReport {
        let PoolCounters {
            workers,
            queue_depth,
            queue_capacity,
            steals,
            deepest_queue,
        } = pool;
        let endpoints: Vec<EndpointStats> = Endpoint::ALL
            .iter()
            .map(|&ep| {
                let m = &self.per[ep.index()];
                let (p50, p99) = {
                    let ring = m.latencies.lock().expect("metrics lock poisoned");
                    percentiles(&ring.samples)
                };
                EndpointStats {
                    endpoint: ep.name().to_string(),
                    requests: m.requests.load(Ordering::Relaxed),
                    cache_hits: m.cache_hits.load(Ordering::Relaxed),
                    errors: m.errors.load(Ordering::Relaxed),
                    p50_micros: p50,
                    p99_micros: p99,
                }
            })
            .collect();
        let (cacheable_requests, cacheable_hits) = endpoints
            .iter()
            .take(4) // cell, check, explore, classify
            .fold((0u64, 0u64), |(r, h), e| (r + e.requests, h + e.cache_hits));
        let (queue_wait_p50, queue_wait_p99) = {
            let ring = self.queue_wait.lock().expect("metrics lock poisoned");
            percentiles(&ring.samples)
        };
        let (compute_p50, compute_p99) = {
            let ring = self.compute.lock().expect("metrics lock poisoned");
            percentiles(&ring.samples)
        };
        StatsReport {
            uptime_micros: self.started.elapsed().as_micros() as u64,
            workers,
            queue_depth,
            queue_capacity,
            overloaded: self.overloaded.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            idle_reaped: self.idle_reaped.load(Ordering::Relaxed),
            oversized_rejected: self.oversized_rejected.load(Ordering::Relaxed),
            malformed_lines: self.malformed_lines.load(Ordering::Relaxed),
            queue_wait_p50_micros: queue_wait_p50,
            queue_wait_p99_micros: queue_wait_p99,
            compute_p50_micros: compute_p50,
            compute_p99_micros: compute_p99,
            cache_entries,
            cache_capacity,
            steals,
            deepest_queue,
            cache_hit_rate: if cacheable_requests == 0 {
                0.0
            } else {
                cacheable_hits as f64 / cacheable_requests as f64
            },
            endpoints,
            responses: self.responses.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            suspicion: None,
        }
    }
}

/// (p50, p99) of a sample set; (0, 0) when empty.
fn percentiles(samples: &[u64]) -> (u64, u64) {
    if samples.is_empty() {
        return (0, 0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = |q: usize| sorted[(sorted.len() - 1) * q / 100];
    (rank(50), rank(99))
}

/// Wire form of the detector plane's counters (schema v6): what the
/// φ-accrual suspicion machinery has done since the process hosting it
/// (router or cluster client) started. Attached to [`StatsReport`] only
/// by processes that actually run a detector plane — a plain worker's
/// stats report omits it entirely.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuspicionStats {
    /// Heartbeat probes sent across all monitored shards.
    pub probes_sent: u64,
    /// Probes that failed outright (connect/write/read error) — each
    /// counts as a missed beat for its shard.
    pub probe_failures: u64,
    /// Transitions into suspicion (φ crossed the suspect threshold, or a
    /// probationary shard missed a beat).
    pub suspects_raised: u64,
    /// Transitions out of suspicion (heartbeats resumed and the shard
    /// entered probation).
    pub suspects_cleared: u64,
    /// Requests routed *away* from a suspected primary at routing time —
    /// failovers that happened before any request had to fail.
    pub proactive_failovers: u64,
    /// Hedged requests fired (primary's φ crossed the soft hedge
    /// threshold mid-request, a backup was sent to the next replica).
    pub hedges_fired: u64,
    /// Hedges whose backup produced the winning response.
    pub hedges_won: u64,
    /// Hedges whose primary answered first after all (the backup's
    /// response was discarded).
    pub hedges_wasted: u64,
}

/// Wire form of one endpoint's counters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EndpointStats {
    /// Endpoint name (`cell`, `check`, `explore`, `classify`, `stats`,
    /// `shutdown`, `health`, `cluster_health`, `ping`).
    pub endpoint: String,
    /// Requests handled (served + failed).
    pub requests: u64,
    /// Requests answered from the scenario cache.
    pub cache_hits: u64,
    /// Requests answered with a typed error.
    pub errors: u64,
    /// Median service latency over the recent sample ring.
    pub p50_micros: u64,
    /// 99th-percentile service latency over the recent sample ring.
    pub p99_micros: u64,
}

/// Scheduler-side occupancy the server reads off its worker pool and
/// feeds into [`Metrics::report`]; the metrics registry itself never
/// touches the pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Jobs queued (accepted, not yet started) at snapshot time.
    pub queue_depth: usize,
    /// The bounded queue's capacity.
    pub queue_capacity: usize,
    /// Jobs stolen across worker deques since the pool started.
    pub steals: u64,
    /// Depth of the deepest per-worker deque at snapshot time.
    pub deepest_queue: usize,
}

/// Wire form of a full metrics snapshot (the `Stats` response body).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StatsReport {
    /// Microseconds since the server started.
    pub uptime_micros: u64,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Jobs queued (accepted, not yet started) at snapshot time.
    pub queue_depth: usize,
    /// The bounded queue's capacity.
    pub queue_capacity: usize,
    /// Requests shed with `Overloaded` since start.
    pub overloaded: u64,
    /// Requests shed (or aborted without a partial) with
    /// `DeadlineExceeded` since start.
    pub deadline_exceeded: u64,
    /// Connections reaped by the idle read deadline (half-open or
    /// silent peers) since start.
    pub idle_reaped: u64,
    /// Request lines rejected for exceeding the frame-size cap before a
    /// newline arrived.
    pub oversized_rejected: u64,
    /// Request lines rejected as non-JSON with a typed `BadRequest`.
    pub malformed_lines: u64,
    /// Median queue wait of admitted compute requests (recent ring).
    pub queue_wait_p50_micros: u64,
    /// 99th-percentile queue wait of admitted compute requests.
    pub queue_wait_p99_micros: u64,
    /// Median pure compute time of admitted requests (recent ring).
    pub compute_p50_micros: u64,
    /// 99th-percentile pure compute time of admitted requests.
    pub compute_p99_micros: u64,
    /// Outcomes currently cached.
    pub cache_entries: usize,
    /// The cache's capacity.
    pub cache_capacity: usize,
    /// Jobs stolen across worker deques since the pool started. A
    /// nonzero count means the work-stealing scheduler rebalanced
    /// uneven job sizes; on a single worker it stays 0.
    pub steals: u64,
    /// Depth of the deepest per-worker deque at snapshot time — the
    /// imbalance the next steal would relieve.
    pub deepest_queue: usize,
    /// Cache hits / requests over the cacheable endpoints (cell, check,
    /// explore, classify); 0 when none have been served.
    pub cache_hit_rate: f64,
    /// Per-endpoint counters, in [`Endpoint::ALL`] order.
    pub endpoints: Vec<EndpointStats>,
    /// Response lines written since start, on every connection. Absent
    /// from reports of older servers; read as 0 then.
    #[serde(default)]
    pub responses: u64,
    /// Write syscalls those lines went out in: a pipelined batch of
    /// inline answers shares one, so `responses / flushes` reads the
    /// coalescing off a live daemon. Absent from older reports; 0 then.
    #[serde(default)]
    pub flushes: u64,
    /// Detector-plane counters (schema v6). `None` — and omitted from
    /// the encoding, so a v5 stats line is a valid v6 stats line — on
    /// processes without a detector plane.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub suspicion: Option<SuspicionStats>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_report() {
        let m = Metrics::new();
        m.record(Endpoint::Cell, 100, false);
        m.record(Endpoint::Cell, 300, true);
        m.record(Endpoint::Explore, 50, false);
        m.record_error(Endpoint::Check);
        m.record_overload(Endpoint::Cell);

        let report = m.report(
            PoolCounters {
                workers: 4,
                queue_depth: 2,
                queue_capacity: 64,
                steals: 7,
                deepest_queue: 3,
            },
            1,
            256,
        );
        assert_eq!(report.workers, 4);
        assert_eq!(report.queue_depth, 2);
        assert_eq!(report.steals, 7);
        assert_eq!(report.deepest_queue, 3);
        assert_eq!(report.overloaded, 1);
        let cell = &report.endpoints[0];
        assert_eq!(cell.endpoint, "cell");
        assert_eq!(cell.requests, 3); // 2 served + 1 shed
        assert_eq!(cell.cache_hits, 1);
        assert_eq!(cell.errors, 1);
        assert_eq!(cell.p50_micros, 100);
        let check = &report.endpoints[1];
        assert_eq!(check.errors, 1);
        assert_eq!(check.p50_micros, 0);
        // 5 cacheable-endpoint requests total (3 cell + 1 check + 1
        // explore), 1 hit.
        assert!((report.cache_hit_rate - 0.2).abs() < 1e-12);
    }

    #[test]
    fn queue_wait_and_compute_histograms_are_separate() {
        let m = Metrics::new();
        // Fast compute, slow queue: the two distributions must not blend.
        for _ in 0..10 {
            m.record_queue_wait(5_000);
            m.record_compute(100);
        }
        let report = m.report(PoolCounters::default(), 0, 0);
        assert_eq!(report.queue_wait_p50_micros, 5_000);
        assert_eq!(report.queue_wait_p99_micros, 5_000);
        assert_eq!(report.compute_p50_micros, 100);
        assert_eq!(report.compute_p99_micros, 100);
        assert_eq!(m.compute_p50_micros(), 100);
    }

    #[test]
    fn connection_error_counters_reach_the_report() {
        let m = Metrics::new();
        m.record_idle_reap();
        m.record_idle_reap();
        m.record_oversized();
        m.record_malformed();
        m.record_malformed();
        m.record_malformed();
        let report = m.report(PoolCounters::default(), 0, 0);
        assert_eq!(report.idle_reaped, 2);
        assert_eq!(report.oversized_rejected, 1);
        assert_eq!(report.malformed_lines, 3);
    }

    #[test]
    fn deadline_sheds_are_counted_apart_from_overload() {
        let m = Metrics::new();
        m.record_overload(Endpoint::Cell);
        m.record_shed_deadline(Endpoint::Cell);
        m.record_shed_deadline(Endpoint::Explore);
        let report = m.report(PoolCounters::default(), 0, 0);
        assert_eq!(report.overloaded, 1);
        assert_eq!(report.deadline_exceeded, 2);
        // Both shed kinds count as errors on their endpoint.
        assert_eq!(report.endpoints[0].errors, 2);
        assert_eq!(report.endpoints[2].errors, 1);
    }

    #[test]
    fn hit_rate_is_zero_not_nan_when_idle() {
        let m = Metrics::new();
        m.record(Endpoint::Stats, 10, false);
        let report = m.report(PoolCounters::default(), 0, 0);
        assert_eq!(report.cache_hit_rate, 0.0);
        // The report must serialize (a NaN would be unencodable).
        assert!(serde_json::to_string(&report).is_ok());
    }

    #[test]
    fn ping_endpoint_is_counted_apart() {
        let m = Metrics::new();
        m.record(Endpoint::Ping, 50, false);
        m.record(Endpoint::Ping, 70, false);
        let report = m.report(PoolCounters::default(), 0, 0);
        let ping = &report.endpoints[8];
        assert_eq!(ping.endpoint, "ping");
        assert_eq!(ping.requests, 2);
        // Pings are never cacheable, so they must not perturb the
        // cacheable-prefix hit-rate fold.
        assert_eq!(report.cache_hit_rate, 0.0);
    }

    #[test]
    fn percentile_ranks() {
        let samples: Vec<u64> = (1..=100).collect();
        let (p50, p99) = percentiles(&samples);
        assert_eq!(p50, 50);
        assert_eq!(p99, 99);
        assert_eq!(percentiles(&[]), (0, 0));
        assert_eq!(percentiles(&[7]), (7, 7));
    }

    #[test]
    fn latency_ring_overwrites_oldest() {
        let m = Metrics::new();
        for _ in 0..RING_CAPACITY {
            m.record(Endpoint::Cell, 1_000_000, false);
        }
        // A full ring of slow samples, then a full ring of fast ones:
        // the slow ones must be gone from the percentile window.
        for _ in 0..RING_CAPACITY {
            m.record(Endpoint::Cell, 10, false);
        }
        let report = m.report(PoolCounters::default(), 0, 0);
        assert_eq!(report.endpoints[0].p99_micros, 10);
    }
}
