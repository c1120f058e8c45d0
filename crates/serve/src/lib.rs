//! A std-only TCP service layer over the ktudc workspace.
//!
//! `ktudc-serve` turns the Table-1 achievability harness
//! ([`ktudc_core::harness`]), the exhaustive explorer
//! ([`ktudc_sim::wire`]) and the epistemic model checker
//! ([`ktudc_epistemic`]) into a long-lived daemon speaking
//! newline-delimited JSON: one [`wire::Request`] per line in, one
//! [`wire::Response`] per line out, in whatever order the work finishes
//! (responses carry the request `id`, so clients pipeline freely).
//!
//! The daemon is deliberately boring infrastructure, built only on `std`
//! and the workspace's own crates:
//!
//! * **Bounded concurrency** — requests dispatch onto a
//!   [`ktudc_par::Pool`] with a hard queue capacity. When the queue is
//!   full the server *refuses* with a typed
//!   [`wire::ErrorCode::Overloaded`] response instead of buffering
//!   without bound; clients decide whether to retry.
//! * **Scenario cache** — outcomes are memoized in an LRU keyed by the
//!   canonical JSON of the request body ([`cache::LruCache`]), hashed
//!   with the platform-pinned
//!   [`StableHasher`](ktudc_model::hashing::StableHasher). Identical
//!   sweeps are answered from memory, byte-identically.
//! * **Observability** — per-endpoint request counts, cache hit rates
//!   and p50/p99 latencies ([`metrics::Metrics`]) are served by the
//!   `Stats` endpoint.
//! * **Graceful shutdown** — a `Shutdown` request (or, in the binary,
//!   SIGTERM/ctrl-c) stops accepting work, drains everything already
//!   queued or in flight, answers it, and only then exits.
//! * **Exactly-once compute under faults** — identical request bodies
//!   that race share one computation (single-flight dedup in
//!   [`server`]), so the [`client::HardenedClient`]'s
//!   reconnect-and-resend strategy never causes duplicate work; a
//!   test-only [`server::ServerFaults`] hook injects delayed, severed
//!   and short-write responses to prove it.
//! * **Crash-restart durability** — with a data directory configured
//!   ([`server::ServeConfig::data_dir`]), the scenario cache is
//!   periodically snapshotted through [`ktudc_store::SnapshotStore`]
//!   (atomic rename, checksummed, generation-stamped) and warm-loaded
//!   at boot; every response carries the server's restart *generation*,
//!   the `Health` endpoint reports it alongside recovery counters, and
//!   the [`client::HardenedClient`] turns a mid-conversation generation
//!   change into a typed [`client::ClientEvent::ServerRestarted`] while
//!   re-deriving outstanding work on the new process. The [`supervisor`]
//!   module restarts a crashing daemon with crash-loop backoff.
//! * **Wire-plane chaos** — [`chaosnet`] is a deterministic, seeded TCP
//!   fault proxy (toxiproxy-style) interposable on any hop: latency
//!   spikes, throttled writes, truncated frames, corrupted bytes,
//!   resets, half-open stalls, one-way partitions. [`audit`] records a
//!   whole campaign and asserts the uniform invariants end to end —
//!   byte-identical answers, exactly-once compute, generation
//!   monotonicity, typed-error-only degradation, bounded latency.
//! * **Live failure detection** — [`detector`] runs the paper's
//!   φ-accrual suspicion math ([`ktudc_fd::PhiEstimator`]) against the
//!   real cluster: a [`detector::DetectorPlane`] heartbeats every shard
//!   with the cheap `Ping` request, suspected shards are demoted at
//!   routing time (proactive failover), soft-suspected primaries are
//!   hedged to the next replica, and recovered shards are readmitted
//!   through a probation window. Suspicion is advisory only — it
//!   reorders replicas, it never drops requests or invents answers, so
//!   a wrong suspicion costs latency, never correctness.
//!
//! The companion binaries are `ktudc-serve` (the daemon) and `ctl` (a
//! client that submits the Table-1 UDC sweep as one pipelined batch and
//! prints the assembled table).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod audit;
pub mod cache;
pub mod chaosnet;
pub mod client;
pub mod cluster;
mod conn;
pub mod detector;
mod failover;
pub mod metrics;
pub mod ring;
pub mod router;
pub mod server;
pub mod supervisor;
pub mod wire;

pub use admission::{AimdConfig, AimdController, JobRegistry};
pub use audit::{AuditReport, Auditor, FailureCount};
pub use chaosnet::{chaos_proxy, ChaosProxy, ChaosStatsSnapshot, Direction, Toxic, ToxicPlan};
pub use client::{Client, ClientError, ClientEvent, ClientMetrics, HardenedClient, RetryPolicy};
pub use cluster::{launch_fleet, ClusterClient, ClusterMetrics, Fleet, Membership};
pub use detector::{DetectorConfig, DetectorPlane, ShardSuspicion};
pub use metrics::{Endpoint, StatsReport, SuspicionStats};
pub use ring::HashRing;
pub use router::{serve_router, RouterConfig, RouterHandle};
pub use server::{serve, RecoveryReport, ServeConfig, ServerFaults, ServerHandle};
pub use supervisor::{supervise, CrashLoopBackoff, SupervisorPolicy, SupervisorReport};
pub use wire::{
    AbortedOutcome, CheckOutcome, CheckSpec, ClusterHealthReport, EncodedResult, Envelope,
    ErrorCode, HealthReport, PartialCell, PartialOutcome, Request, RequestKind, RequestOptions,
    Response, ResponseKind, ShardHealth, WireError, MAX_REQUEST_LINE_BYTES, MIN_SCHEMA_VERSION,
    SCHEMA_VERSION,
};
