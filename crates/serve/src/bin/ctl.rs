//! `ctl` — the companion client for `ktudc-serve`.
//!
//! ```text
//! ctl [--addr HOST:PORT] sweep [--smoke] [--twice] [--deadline-ms N]
//! ctl [--addr HOST:PORT] classify [--detector NAME] [--regime NAME] [--smoke]
//! ctl [--addr HOST:PORT] stats
//! ctl [--addr HOST:PORT] health
//! ctl [--addr HOST:PORT] shutdown
//! ctl --cluster HOST:P1,HOST:P2,... <sweep | classify | stats | health>
//! ctl resume <checkpoint>
//! ```
//!
//! `sweep` submits the UDC rows of Table 1 (the harness cells of the
//! `table1` bench binary) as **one pipelined batch** and prints the
//! assembled table from the responses. With `--twice` it submits the
//! identical batch again and verifies the warm pass is byte-identical
//! to the cold one (it is answered from the scenario cache). `--smoke`
//! shrinks the grid to seconds for CI. `--deadline-ms` stamps each cell
//! request with a deadline; cells the server sheds or aborts show up as
//! typed `DeadlineExceeded` rows rather than hangs.
//!
//! `classify` sweeps the empirical failure detectors (heartbeat,
//! φ-accrual, gossip) across the fault regimes as one pipelined batch
//! and prints the class each one achieves per regime — the paper's
//! hierarchy read off implementations instead of oracles. `--detector` /
//! `--regime` narrow the grid to one row/column (names as printed in the
//! table); `--smoke` shrinks trials and horizon for CI.
//!
//! `health` prints the server's durability health report (generation,
//! recovery counters). `resume` is *local*: it resumes the checkpointed
//! exploration journaled at `<checkpoint>` — the spec is read from the
//! journal header — and never touches the network.
//!
//! `--cluster` drives a worker fleet directly (no router in the path):
//! requests are consistent-hashed across the listed members by the
//! [`ClusterClient`] and failed over to a replica when a member is down
//! or shedding. Mutually exclusive with `--addr` (which — pointed at a
//! router — reaches the same cluster through one address) and valid
//! only for `sweep`, `classify`, `stats` and `health`; `shutdown` stays
//! single-server so a script cannot take a whole fleet down with a
//! one-word typo.
//!
//! `sweep` and `classify` are written once against the [`Call`] trait,
//! so the same code drives the fault-masking [`HardenedClient`] (which
//! retries transient overload and dropped connections with backoff)
//! and the `--cluster` client. Exit status is scriptable: `0` success,
//! `1` transport, protocol or resume failure, `2` usage, `3` retry
//! budget exhausted (persistent overload or a flapping server). Usage
//! errors are checked before any network (or disk) access.

use ktudc_core::harness::{CellSpec, FdChoice, ProtocolChoice};
use ktudc_fd::{ClassifySpec, DetectorKind, FaultRegime};
use ktudc_serve::{
    Call, Client, ClientError, ClusterClient, HardenedClient, Membership, RequestKind,
    RequestOptions, Response, ResponseKind, RetryPolicy, ServerCall,
};
use std::sync::Arc;

/// Validates a `--cluster` member list *syntactically* — split on
/// commas, each member a non-empty host, a `:`, and a `u16` port. No
/// DNS, no connections: this runs in the usage-checking phase, where a
/// typo must exit `2` even when every member is also unreachable.
fn cluster_members(list: &str) -> Option<Vec<String>> {
    let members: Vec<String> = list
        .split(',')
        .map(|m| m.trim().to_string())
        .filter(|m| !m.is_empty())
        .collect();
    if members.is_empty() {
        return None;
    }
    for member in &members {
        match member.rsplit_once(':') {
            Some((host, port)) if !host.is_empty() && port.parse::<u16>().is_ok() => {}
            _ => return None,
        }
    }
    Some(members)
}

struct SweepParams {
    n: usize,
    trials: u64,
    horizon: u64,
    loss: f64,
    /// Regime representatives: t < n/2, n/2 ≤ t < n−1, t = n−1.
    t: (usize, usize, usize),
}

impl SweepParams {
    fn full() -> Self {
        SweepParams {
            n: 5,
            trials: 10,
            horizon: 1200,
            loss: 0.3,
            t: (2, 3, 4),
        }
    }

    fn smoke() -> Self {
        SweepParams {
            n: 4,
            trials: 2,
            horizon: 400,
            loss: 0.25,
            t: (1, 2, 3),
        }
    }
}

/// The UDC cells of Table 1, in row order, with display labels.
fn sweep_cells(p: &SweepParams) -> Vec<(String, CellSpec)> {
    let (t_low, t_mid, t_high) = p.t;
    let cell = |t: usize, drop: Option<f64>, fd: FdChoice, proto: ProtocolChoice| {
        CellSpec::new(p.n, t, drop, fd, proto)
            .trials(p.trials)
            .horizon(p.horizon)
    };
    vec![
        (
            format!("reliable / UDC / t={t_low}"),
            cell(t_low, None, FdChoice::None, ProtocolChoice::Reliable),
        ),
        (
            format!("reliable / UDC / t={t_mid}"),
            cell(t_mid, None, FdChoice::None, ProtocolChoice::Reliable),
        ),
        (
            format!("reliable / UDC / t={t_high}"),
            cell(t_high, None, FdChoice::None, ProtocolChoice::Reliable),
        ),
        (
            format!("unreliable / UDC / t={t_low}"),
            cell(
                t_low,
                Some(p.loss),
                FdChoice::Cycling,
                ProtocolChoice::Generalized,
            ),
        ),
        (
            format!("unreliable / UDC / t={t_mid}"),
            cell(
                t_mid,
                Some(p.loss),
                FdChoice::TUseful,
                ProtocolChoice::Generalized,
            ),
        ),
        (
            format!("unreliable / UDC / t={t_high}"),
            cell(
                t_high,
                Some(p.loss),
                FdChoice::Strong,
                ProtocolChoice::StrongFd,
            ),
        ),
        (
            format!("negative note / t={t_mid}"),
            cell(t_mid, Some(0.6), FdChoice::None, ProtocolChoice::Reliable),
        ),
        (
            format!("negative note / t={t_high}"),
            cell(
                t_high,
                Some(p.loss),
                FdChoice::Weak,
                ProtocolChoice::StrongFd,
            ),
        ),
        (
            format!("strong ≈ perfect / t={t_high}"),
            cell(
                t_high,
                Some(p.loss),
                FdChoice::Perfect,
                ProtocolChoice::StrongFd,
            ),
        ),
    ]
}

/// Prints the failure and exits with the scriptable status for its
/// class: `3` when the retry budget ran out (the server kept shedding
/// load or dropping connections — a retry-later situation), `1` for
/// everything else (transport/protocol failures retries can't mask).
fn fail(context: &str, e: &ClientError) -> ! {
    match e {
        ClientError::RetriesExhausted { attempts, last } => {
            eprintln!("ctl: {context}: gave up after {attempts} attempts (last failure: {last})");
            eprintln!(
                "ctl: hint: the server is overloaded or flapping; retry later, \
                 or check queue pressure with `ctl stats`"
            );
            std::process::exit(3);
        }
        other => {
            eprintln!("ctl: {context}: {other}");
            std::process::exit(1);
        }
    }
}

fn run_sweep(
    client: &mut impl Call,
    cells: &[(String, CellSpec)],
    deadline_ms: Option<u64>,
) -> Vec<Response> {
    let options = RequestOptions {
        deadline_ms,
        ..RequestOptions::default()
    };
    let kinds: Vec<(RequestKind, RequestOptions)> = cells
        .iter()
        .map(|(_, spec)| (RequestKind::Cell(spec.clone()), options))
        .collect();
    match client.batch_with_options(kinds) {
        Ok(responses) => responses,
        Err(e) => fail("sweep failed", &e),
    }
}

/// The cache-invariant portion of a sweep: just the result payloads,
/// serialized. Cold and warm passes must agree on this byte-for-byte.
fn payload_bytes(responses: &[Response]) -> String {
    responses
        .iter()
        .map(|r| serde_json::to_string(&r.result).expect("payload encodes"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn print_sweep(cells: &[(String, CellSpec)], responses: &[Response]) {
    println!("{:-<78}", "");
    println!(
        "{:<28}{:<12}{:<24}{:>6}{:>8}",
        "cell", "FD", "outcome", "cache", " µs"
    );
    println!("{:-<78}", "");
    for ((label, spec), response) in cells.iter().zip(responses) {
        let outcome = match &response.result {
            ResponseKind::Cell(out) => format!(
                "{}/{} ok{}",
                out.satisfied,
                out.trials(),
                if out.violated_permanent > 0 {
                    format!(", {} violations", out.violated_permanent)
                } else if out.unsatisfied_pending > 0 {
                    format!(", {} stalls", out.unsatisfied_pending)
                } else {
                    String::new()
                }
            ),
            ResponseKind::Aborted(a) => format!("aborted ({})", a.reason.name()),
            ResponseKind::Error(e) => format!("{:?}: {}", e.code, e.message),
            other => format!("unexpected payload: {other:?}"),
        };
        println!(
            "{:<28}{:<12}{:<24}{:>6}{:>8}",
            label,
            format!("{:?}", spec.fd),
            outcome,
            if response.cached { "hit" } else { "miss" },
            response.micros
        );
    }
    println!("{:-<78}", "");
}

/// Runs the sweep (twice with `--twice`); the caller prints its own
/// server or cluster summary after it.
fn cmd_sweep(client: &mut impl Call, smoke: bool, twice: bool, deadline_ms: Option<u64>) {
    let params = if smoke {
        SweepParams::smoke()
    } else {
        SweepParams::full()
    };
    let cells = sweep_cells(&params);
    println!(
        "Table-1 UDC sweep via ktudc-serve (n = {}, {} trials/cell, loss = {})",
        params.n, params.trials, params.loss
    );
    let cold = run_sweep(client, &cells, deadline_ms);
    print_sweep(&cells, &cold);
    if twice {
        let warm = run_sweep(client, &cells, deadline_ms);
        let identical = payload_bytes(&cold) == payload_bytes(&warm);
        let warm_hits = warm.iter().filter(|r| r.cached).count();
        println!(
            "warm sweep: {} / {} answered from cache, payloads {}",
            warm_hits,
            warm.len(),
            if identical {
                "byte-identical to cold pass"
            } else {
                "DIFFER from cold pass"
            }
        );
        if !identical || warm_hits == 0 {
            eprintln!("ctl: warm sweep was not served coherently from cache");
            std::process::exit(1);
        }
    }
}

/// Parses a detector name as printed in the classify table.
fn parse_detector(name: &str) -> Option<DetectorKind> {
    DetectorKind::ALL
        .into_iter()
        .find(|k| k.to_string() == name)
}

/// Parses a regime name as printed in the classify table.
fn parse_regime(name: &str) -> Option<FaultRegime> {
    FaultRegime::ALL.into_iter().find(|r| r.to_string() == name)
}

fn cmd_classify(
    client: &mut impl Call,
    detector: Option<DetectorKind>,
    regime: Option<FaultRegime>,
    smoke: bool,
) {
    let detectors: Vec<DetectorKind> =
        detector.map_or_else(|| DetectorKind::ALL.to_vec(), |d| vec![d]);
    let regimes: Vec<FaultRegime> = regime.map_or_else(|| FaultRegime::ALL.to_vec(), |r| vec![r]);
    let specs: Vec<ClassifySpec> = detectors
        .iter()
        .flat_map(|&d| regimes.iter().map(move |&r| ClassifySpec::new(d, r)))
        .map(|spec| {
            if smoke {
                spec.trials(2).horizon(200)
            } else {
                spec
            }
        })
        .collect();
    println!(
        "empirical detector classification via ktudc-serve ({} cells)",
        specs.len()
    );
    let kinds: Vec<RequestKind> = specs
        .iter()
        .map(|spec| RequestKind::Classify(spec.clone()))
        .collect();
    let responses = match client.batch(kinds) {
        Ok(responses) => responses,
        Err(e) => fail("classify failed", &e),
    };
    println!("{:-<86}", "");
    println!(
        "{:<14}{:<14}{:<20}{:>8}{:>14}{:>8}{:>8}",
        "detector", "regime", "class", "false", "latency µ/max", "cache", " µs"
    );
    println!("{:-<86}", "");
    for (spec, response) in specs.iter().zip(&responses) {
        let (class, false_s, latency) = match &response.result {
            ResponseKind::Classify(v) => (
                format!(
                    "{}{}",
                    v.class,
                    if spec.regime.in_model() {
                        ""
                    } else {
                        " (o.o.m.)"
                    }
                ),
                v.false_suspicion_events.to_string(),
                v.detection_latency
                    .as_ref()
                    .map_or_else(|| "-".to_string(), |l| format!("{:.1}/{}", l.mean, l.max)),
            ),
            ResponseKind::Aborted(a) => (
                format!("aborted ({})", a.reason.name()),
                String::new(),
                String::new(),
            ),
            ResponseKind::Error(e) => (
                format!("{:?}: {}", e.code, e.message),
                String::new(),
                String::new(),
            ),
            other => (
                format!("unexpected payload: {other:?}"),
                String::new(),
                String::new(),
            ),
        };
        println!(
            "{:<14}{:<14}{:<20}{:>8}{:>14}{:>8}{:>8}",
            spec.detector.to_string(),
            spec.regime.to_string(),
            class,
            false_s,
            latency,
            if response.cached { "hit" } else { "miss" },
            response.micros
        );
    }
    println!("{:-<86}", "");
}

fn cmd_stats(client: &mut HardenedClient) {
    match client.stats() {
        Ok(stats) => {
            // The JSON carries everything; the summary line surfaces the
            // pool's work-stealing counters, which are easy to miss in
            // the dump and are the first thing to look at when p99
            // climbs on an uneven workload.
            println!(
                "pool: {} workers, {} steals, deepest deque {}, queue {}/{}",
                stats.workers,
                stats.steals,
                stats.deepest_queue,
                stats.queue_depth,
                stats.queue_capacity
            );
            // Connection-plane counters: nonzero values here mean peers
            // misbehaved on the wire (half-open, oversized, non-JSON)
            // and the server degraded them in a typed, bounded way.
            println!(
                "wire: {} idle connections reaped, {} oversized lines rejected, \
                 {} malformed lines answered BadRequest",
                stats.idle_reaped, stats.oversized_rejected, stats.malformed_lines
            );
            // How well pipelined answers share writes: 1.0 means a
            // syscall per response (depth-1 clients, or answers that all
            // come from workers); a batch of inline answers pushes it up.
            println!(
                "writes: {} responses in {} flushes ({:.1} per flush)",
                stats.responses,
                stats.flushes,
                stats.responses as f64 / stats.flushes.max(1) as f64
            );
            println!(
                "{}",
                serde_json::to_string_pretty(&stats).expect("stats encodes")
            );
        }
        Err(e) => fail("stats failed", &e),
    }
}

fn cmd_health(client: &mut HardenedClient) {
    match client.health() {
        Ok(health) => {
            // Surface the corruption counters: `store_corrupt_candidates`
            // is the store's *live* lifetime count and diverges from the
            // boot-time `corrupt_snapshots_skipped` if corruption appears
            // while the server runs — the divergence is the alarm.
            println!(
                "durability: generation {}, {} corrupt snapshots skipped at boot, \
                 {} corrupt candidates over store lifetime, {} steals, deepest deque {}",
                health.generation,
                health.corrupt_snapshots_skipped,
                health.store_corrupt_candidates,
                health.steals,
                health.deepest_queue
            );
            println!(
                "{}",
                serde_json::to_string_pretty(&health).expect("health encodes")
            );
        }
        Err(e) => fail("health failed", &e),
    }
}

/// Per-shard stats, one summary line + JSON dump per reachable shard.
/// A dead shard prints its error and the sweep goes on — partial
/// observability beats none when a worker is down.
fn cmd_stats_cluster(client: &ClusterClient) {
    let mut reachable = 0usize;
    for (shard, result) in client.stats_per_shard() {
        match result {
            Ok(stats) => {
                reachable += 1;
                println!(
                    "shard {shard}: {} workers, {} steals, deepest deque {}, queue {}/{}, \
                     cache {}/{} entries",
                    stats.workers,
                    stats.steals,
                    stats.deepest_queue,
                    stats.queue_depth,
                    stats.queue_capacity,
                    stats.cache_entries,
                    stats.cache_capacity
                );
                println!(
                    "{}",
                    serde_json::to_string_pretty(&stats).expect("stats encodes")
                );
            }
            Err(e) => eprintln!("shard {shard}: unreachable: {e}"),
        }
    }
    if reachable == 0 {
        eprintln!("ctl: no shard answered stats");
        std::process::exit(1);
    }
}

/// The aggregated cluster health view: one row per shard (dead shards
/// flagged with their last observed generation), then the JSON report.
fn cmd_health_cluster(client: &ClusterClient) {
    let report = client.cluster_health();
    println!(
        "cluster: {}/{} shards reachable, {} cache entries, queue depth {}, {} in flight, \
         max generation {}{}",
        report.reachable_shards,
        report.shards.len(),
        report.total_cache_entries,
        report.total_queue_depth,
        report.total_in_flight,
        report.max_generation,
        if report.suspected_shards > 0 {
            format!(", {} SUSPECTED", report.suspected_shards)
        } else {
            String::new()
        }
    );
    for shard in &report.shards {
        // The φ/suspicion annotations only appear when the answering
        // side runs a live detector plane (a router, or this client's
        // own plane); plain v5 reports print exactly as before.
        let mut suffix = String::new();
        if let Some(phi) = shard.phi {
            suffix.push_str(&format!(", phi {phi:.2}"));
        }
        if shard.suspected {
            suffix.push_str(", SUSPECTED");
        } else if shard.probation {
            suffix.push_str(", probation");
        }
        println!(
            "shard {} at {}: {} (generation {}{suffix})",
            shard.shard,
            shard.addr,
            if shard.reachable { "up" } else { "DOWN" },
            shard.generation
        );
    }
    println!(
        "{}",
        serde_json::to_string_pretty(&report).expect("health encodes")
    );
    if report.reachable_shards == 0 {
        eprintln!("ctl: no shard answered health");
        std::process::exit(1);
    }
}

/// Resumes the checkpointed exploration at `path` — entirely locally.
/// The journal header pins the spec, so nothing else needs restating; a
/// torn tail (the usual kill-9 artifact) is truncated and recomputed.
fn cmd_resume(path: &str) {
    use ktudc_store::SyncPolicy;

    match ktudc_sim::resume_checkpoint(std::path::Path::new(path), SyncPolicy::Always) {
        Ok((spec, result, stats)) => {
            let digest = ktudc_sim::system_digest(&result.system);
            println!(
                "resumed exploration (n = {}, horizon = {}): {} runs, complete = {}, digest = {digest:#018x}",
                spec.n,
                spec.horizon,
                result.system.len(),
                result.complete
            );
            println!(
                "checkpoint: {} / {} subtrees replayed, {} computed this invocation, \
                 {} journal entries replayed, {} torn bytes truncated",
                stats.resumed_subtrees,
                stats.total_subtrees,
                stats.computed_subtrees,
                stats.replayed_entries,
                stats.truncated_bytes
            );
        }
        Err(e) => {
            eprintln!("ctl: resume failed: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_shutdown(client: &mut HardenedClient) {
    match client.shutdown_server() {
        Ok(()) => println!("server acknowledged shutdown; draining"),
        Err(e) => fail("shutdown failed", &e),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: ctl [--addr HOST:PORT] <sweep [--smoke] [--twice] [--deadline-ms N] | \
         classify [--detector NAME] [--regime NAME] [--smoke] | stats | health | shutdown>\n\
         \x20      ctl --cluster HOST:P1,HOST:P2,... <sweep | classify | stats | health>\n\
         \x20      ctl resume <checkpoint>"
    );
    std::process::exit(2);
}

fn main() {
    let mut addr: Option<String> = None;
    let mut cluster: Option<String> = None;
    let mut command: Option<String> = None;
    let mut operand: Option<String> = None;
    let mut smoke = false;
    let mut twice = false;
    let mut deadline_ms: Option<u64> = None;
    let mut detector: Option<DetectorKind> = None;
    let mut regime: Option<FaultRegime> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(a) => addr = Some(a),
                None => usage(),
            },
            "--cluster" => match args.next() {
                Some(list) => cluster = Some(list),
                None => usage(),
            },
            "--smoke" => smoke = true,
            "--twice" => twice = true,
            "--deadline-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(ms) => deadline_ms = Some(ms),
                None => usage(),
            },
            "--detector" => match args.next().as_deref().and_then(parse_detector) {
                Some(d) => detector = Some(d),
                None => usage(),
            },
            "--regime" => match args.next().as_deref().and_then(parse_regime) {
                Some(r) => regime = Some(r),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            other if command.is_none() && !other.starts_with('-') => {
                command = Some(other.to_string());
            }
            other if command.is_some() && operand.is_none() && !other.starts_with('-') => {
                operand = Some(other.to_string());
            }
            _ => usage(),
        }
    }
    let Some(command) = command else { usage() };
    // Usage errors exit 2 before touching the network or the disk, so a
    // typo isn't misreported as a transport failure when the server is
    // down (or as a resume failure when the journal is fine).
    if cluster.is_some() && addr.is_some() {
        // One address or a member list, never both: --addr pointed at a
        // router already reaches the whole cluster.
        usage();
    }
    let members: Option<Vec<String>> = match &cluster {
        None => None,
        Some(list) => match cluster_members(list) {
            Some(members) => Some(members),
            // A malformed member list is a usage error even when the
            // fleet is also down; validation is purely syntactic.
            None => usage(),
        },
    };
    if members.is_some() && !matches!(command.as_str(), "sweep" | "classify" | "stats" | "health") {
        usage();
    }
    // The flags only `sweep` and `classify` take.
    let run_flags =
        smoke || twice || deadline_ms.is_some() || detector.is_some() || regime.is_some();
    match command.as_str() {
        "sweep" => {
            if operand.is_some() || detector.is_some() || regime.is_some() {
                usage();
            }
            // Deadline-carrying results are never published to the cache,
            // so the `--twice` warm-pass coherence check cannot hold.
            if twice && deadline_ms.is_some() {
                usage();
            }
        }
        "classify" => {
            if operand.is_some() || twice || deadline_ms.is_some() {
                usage();
            }
        }
        "stats" | "health" | "shutdown" => {
            if operand.is_some() || run_flags {
                usage();
            }
        }
        "resume" => {
            if operand.is_none() || run_flags {
                usage();
            }
        }
        _ => usage(),
    }
    if command == "resume" {
        // Local: resumes a journaled exploration; no server involved.
        cmd_resume(&operand.expect("checked above"));
        return;
    }
    if let Some(members) = members {
        // Probe: at least one member must answer, so a wholly dead
        // fleet is a crisp transport failure (exit 1) up front; the
        // cluster client then masks per-shard faults with failover.
        if !members.iter().any(|m| Client::connect(m).is_ok()) {
            eprintln!("ctl: no cluster member reachable among {members:?}");
            std::process::exit(1);
        }
        let client = ClusterClient::new(Arc::new(Membership::new(members)), RetryPolicy::default());
        match command.as_str() {
            "sweep" => {
                cmd_sweep(&mut &client, smoke, twice, deadline_ms);
                let metrics = client.metrics();
                println!(
                    "cluster: {} shards, {} failovers, {} worker restarts observed",
                    client.ring().shards(),
                    metrics.failovers,
                    metrics.worker_restarts
                );
            }
            "classify" => cmd_classify(&mut &client, detector, regime, smoke),
            "stats" => cmd_stats_cluster(&client),
            "health" => cmd_health_cluster(&client),
            _ => usage(),
        }
        return;
    }
    let addr = addr.unwrap_or_else(|| "127.0.0.1:7199".to_string());
    // Probe once so an unreachable server is a crisp transport failure
    // (exit 1), not a slow walk through the retry budget (exit 3); the
    // hardened client then masks faults on the actual conversation.
    if let Err(e) = Client::connect(&addr) {
        eprintln!("ctl: cannot connect to {addr}: {e}");
        std::process::exit(1);
    }
    let mut client = HardenedClient::new(addr, RetryPolicy::default());
    match command.as_str() {
        "sweep" => {
            cmd_sweep(&mut client, smoke, twice, deadline_ms);
            match client.stats() {
                Ok(stats) => println!(
                    "server: {} workers, queue {}/{}, cache {}/{} entries, hit rate {:.2}, \
                     {} shed, {} steals, deepest deque {}",
                    stats.workers,
                    stats.queue_depth,
                    stats.queue_capacity,
                    stats.cache_entries,
                    stats.cache_capacity,
                    stats.cache_hit_rate,
                    stats.overloaded,
                    stats.steals,
                    stats.deepest_queue
                ),
                Err(e) => fail("stats failed", &e),
            }
        }
        "classify" => cmd_classify(&mut client, detector, regime, smoke),
        "stats" => cmd_stats(&mut client),
        "health" => cmd_health(&mut client),
        "shutdown" => cmd_shutdown(&mut client),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_member_validation_is_syntactic_and_strict() {
        // Valid lists parse without any I/O.
        assert_eq!(
            cluster_members("127.0.0.1:7199,localhost:7200"),
            Some(vec![
                "127.0.0.1:7199".to_string(),
                "localhost:7200".to_string()
            ])
        );
        // Whitespace and a trailing comma are tolerated.
        assert_eq!(
            cluster_members(" h:1 , h:2 ,"),
            Some(vec!["h:1".to_string(), "h:2".to_string()])
        );
        // Anything that is not HOST:PORT is a usage error (None), even
        // shapes that *would* resolve: validation never touches DNS.
        assert_eq!(cluster_members(""), None);
        assert_eq!(cluster_members(","), None);
        assert_eq!(cluster_members("no-port"), None);
        assert_eq!(cluster_members(":7199"), None);
        assert_eq!(cluster_members("host:"), None);
        assert_eq!(cluster_members("host:notaport"), None);
        assert_eq!(cluster_members("host:99999"), None);
        assert_eq!(cluster_members("good:1,bad"), None);
    }
}
