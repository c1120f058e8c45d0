//! Workload `cluster_outage`: the routed cluster under a fixed offered
//! load while shards drop off the network.
//!
//! A child runs `serve_router` over three `serve` shards; each shard is
//! reached through a relay this process owns. One connection carries an
//! open loop: a writer thread sends on a fixed schedule, a reader thread
//! takes the answers, and latency counts from the moment a request was
//! *due*, so a stall charges every request that had to wait behind it.
//! The window is three cycles; in each, one shard's relay is a black hole
//! for the second quarter. No message delay is injected: on the clean
//! path latency is processor time, and the fault is the black hole.
//!
//! Why open loop, why this rate and this cell (measured on two cores): a
//! closed loop of cache hits through router and shard read 16.2k–23.5k
//! requests a second from run to run — it times thread wake-ups across
//! three hops. At 300 requests a second a black hole's 0.46 s stall
//! overflows the router's queue of 128 and the number of typed sheds
//! varies from run to run; at 200 a second with 2 ms cells every core is
//! idle when a request arrives and latency and CPU per request follow the
//! host's idle states (11–12 % spread). A hundred 5 ms requests a second
//! (about a quarter of two cores) spread by 5–7 %, nothing is refused,
//! and the share answered in time repeats within half a percent.

use crate::child::{ChildProc, SHARDS};
use crate::fixtures::{cell_specs, request_line, CellSize, SMOKE_CELL};
use crate::layers::{self, WireSample};
use crate::loadgen::{cell_counters, parse_response, server_stats, Answer, CellLedger, LineConn};
use crate::procfs::Target;
use crate::relay::{OutageSchedule, Relay};
use crate::report::Outcome;
use crate::rng::SplitMix64;
use crate::stats as order;
use crate::window::{repeated_setup, Slice, WindowStats};
use ktudc_core::harness::CellSpec;
use ktudc_serve::{Client, ClusterClient, HashRing, RequestKind, SuspicionStats};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

pub struct Size {
    pub specs: usize,
    /// Offered load, requests per second.
    pub rate: f64,
    /// An answer later than this after its due time misses `ok_share`.
    pub latency_limit_s: f64,
    /// Pipelined batches of four sent through the router in set-up.
    pub warm_batches: usize,
    /// Heartbeat probes the router must have sent before the window
    /// starts: 1.5 s of its 50 ms cadence over three shards, so every φ
    /// estimator has a full window of gaps.
    pub warm_probes: u64,
    /// Sequential requests on each side of the `hop_added_ms` comparison.
    pub hop_probes: usize,
    pub cell: CellSize,
}

/// The cluster's cell (≈ 5 ms of `run_cell`) runs its single trial on the
/// calling worker: at a quarter of the machine's capacity an open loop's
/// latency should be the path's, and a request whose trials fan out over
/// both cores is as fast as whatever else happens to hold a core at that
/// moment — measured with 2 ms cells, the shards' own compute stamp swung
/// 2.1–3.5 ms from run to run with eight trials and 2.1–2.5 ms with one.
const SERIAL_CELL: CellSize = CellSize {
    trials: 1,
    horizon: 2560,
};

pub const FULL: Size = Size {
    specs: 1024,
    rate: 100.0,
    latency_limit_s: 0.1,
    warm_batches: 64,
    warm_probes: 90,
    hop_probes: 64,
    cell: SERIAL_CELL,
};
pub const SMOKE: Size = Size {
    specs: 256,
    rate: 100.0,
    latency_limit_s: 0.1,
    warm_batches: 4,
    warm_probes: 24,
    hop_probes: 8,
    cell: SMOKE_CELL,
};

/// The cluster's window is cut into the quarters of its cycles, so that a
/// black hole (the second quarter of each cycle) spoils exactly one slice
/// in four and the interquartile mean sets precisely those aside.
const SLICES: usize = 4 * OutageSchedule::CYCLES;

/// How long the reader waits for stragglers after the last request is
/// due: two exchange deadlines of the router and then some.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// Seconds into the window at which request `k` is due.
pub fn due_s(k: usize, rate: f64) -> f64 {
    k as f64 / rate
}

/// One answer as the reader saw it.
struct Arrival {
    request: usize,
    at_s: f64,
    answer: Answer,
    /// The answering shard's own stamps, in ms (0 for a cache hit).
    compute_ms: f64,
    queue_wait_ms: f64,
}

/// What the open loop's accounting comes to.
#[derive(Debug, Default, PartialEq)]
pub struct Accounting {
    /// Latency from due time, of every request that was answered right.
    pub latencies_s: Vec<f64>,
    /// Requests answered right within the limit.
    pub ok: u64,
    /// Requests refused or never answered.
    pub failed: u64,
    /// Requests that missed the limit for whatever reason.
    pub missed: Vec<usize>,
}

/// Latency accounting of an open loop: request `k` was due at
/// [`due_s`]`(k)`, whenever it was really sent, and `arrivals[k]` says
/// when (seconds into the window) it was answered right — `None` if it
/// was refused or never answered.
pub fn account(arrivals: &[Option<f64>], rate: f64, limit_s: f64) -> Accounting {
    let mut accounting = Accounting::default();
    for (k, arrival) in arrivals.iter().enumerate() {
        let latency = arrival.map(|at| at - due_s(k, rate));
        match latency {
            Some(l) => accounting.latencies_s.push(l),
            None => accounting.failed += 1,
        }
        match latency {
            Some(l) if l <= limit_s => accounting.ok += 1,
            _ => accounting.missed.push(k),
        }
    }
    accounting
}

/// The cluster, as this process holds it.
struct Cluster {
    child: ChildProc,
    router: SocketAddr,
    shards: Vec<SocketAddr>,
    relays: Vec<Relay>,
}

impl Cluster {
    fn stop(self) {
        self.child.stop();
        for relay in self.relays {
            relay.stop();
        }
    }

    fn failovers(&mut self) -> u64 {
        self.child.send("failovers");
        self.child.expect("failovers")[0]
            .parse()
            .expect("failover count")
    }
}

fn suspicion(router: SocketAddr) -> SuspicionStats {
    server_stats(router)
        .suspicion
        .expect("the router runs a detector plane")
}

/// Spawns the cluster behind its relays, sends `warm_batches` batches of
/// four through the router, and waits for the detector plane to have
/// learned its heartbeat gap.
fn setup(size: &Size, warm_lines: &[Vec<u8>]) -> Cluster {
    let mut child = ChildProc::spawn("cluster", None);
    let shards: Vec<SocketAddr> = child
        .expect("shards")
        .iter()
        .map(|a| a.parse().expect("shard address"))
        .collect();
    let relays: Vec<Relay> = shards
        .iter()
        .map(|&shard| Relay::start(shard).expect("start relay"))
        .collect();
    let relay_addrs: Vec<String> = relays.iter().map(|r| r.addr().to_string()).collect();
    child.send(&format!("relays {}", relay_addrs.join(" ")));
    let router: SocketAddr = child.expect("router")[0].parse().expect("router address");

    let mut conn = LineConn::connect(router).expect("connect to router");
    for batch in warm_lines.chunks(4).take(size.warm_batches) {
        for line in batch {
            conn.send(line).expect("send warm-up request");
        }
        conn.lines(batch.len(), |_| {})
            .expect("read warm-up answers");
    }
    while suspicion(router).probes_sent < size.warm_probes {
        std::thread::sleep(Duration::from_millis(10));
    }
    Cluster {
        child,
        router,
        shards,
        relays,
    }
}

/// One poll of the router's suspicion counters.
struct Poll {
    at_s: f64,
    stats: SuspicionStats,
}

/// What the threads of a window recorded.
struct Window {
    arrivals: Vec<Arrival>,
    lateness_s: Vec<f64>,
    polls: Vec<Poll>,
    /// (seconds into the window, child CPU seconds) at every slice boundary.
    cpu_at: Vec<(f64, f64)>,
    loadgen_cpu_s: f64,
    sample: WireSample,
}

/// What a window is to send: request `k` carries `specs[picks[k]]` and is
/// due `k / rate` seconds in; `schedule` says when which relay is dark.
struct Plan<'a> {
    specs: &'a [CellSpec],
    picks: &'a [usize],
    rate: f64,
    seconds: f64,
    schedule: &'a OutageSchedule,
}

/// The open loop.
fn window(plan: &Plan<'_>, cluster: &Cluster, traced: bool, ledger: &mut CellLedger<'_>) -> Window {
    let Plan {
        specs,
        picks,
        rate,
        seconds,
        schedule,
    } = *plan;
    let conn = LineConn::connect(cluster.router).expect("connect to router");
    let read_half = conn.stream().try_clone().expect("clone connection");
    read_half
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("set read timeout");
    let target = Target::Pid(cluster.child.pid());
    let cycle_s = seconds / OutageSchedule::CYCLES as f64;
    let writer_done = AtomicBool::new(false);
    let window_over = AtomicBool::new(false);
    let own_cpu = Target::Own.cpu_seconds();
    let t0 = Instant::now() + Duration::from_millis(5);
    let since_t0 = move || Instant::now().saturating_duration_since(t0).as_secs_f64();

    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut conn = conn;
            let mut lateness_s = Vec::with_capacity(picks.len());
            let mut request_lines = Vec::new();
            for (k, &spec) in picks.iter().enumerate() {
                let due = t0 + Duration::from_secs_f64(due_s(k, rate));
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                let now_s = since_t0();
                schedule.apply(&cluster.relays, now_s);
                lateness_s.push(now_s - due_s(k, rate));
                let line = request_line(k as u64 + 1, &specs[spec]);
                conn.send(&line).expect("send request");
                if request_lines.len() < 64 {
                    request_lines.push(String::from_utf8_lossy(&line).trim_end().to_string());
                }
            }
            schedule.apply(&cluster.relays, seconds);
            writer_done.store(true, Ordering::SeqCst);
            (lateness_s, request_lines)
        });

        let reader = scope.spawn(|| {
            let mut conn = LineConn::over(read_half);
            let mut arrivals = Vec::with_capacity(picks.len());
            let mut response_lines = Vec::new();
            let mut quiet_since = None;
            while arrivals.len() < picks.len() {
                let read = conn.lines(1, |line| {
                    let at_s = since_t0();
                    let answer = parse_response(line).map(|response| {
                        let request = (response.id as usize).wrapping_sub(1);
                        let answer = match picks.get(request) {
                            Some(&spec) => ledger.record(spec, &response.result),
                            None => Answer::Wrong,
                        };
                        (request, answer, response.compute_ms, response.queue_wait_ms)
                    });
                    let (request, answer, compute_ms, queue_wait_ms) =
                        answer.unwrap_or((usize::MAX, Answer::Wrong, 0.0, 0.0));
                    if answer == Answer::Consistent && response_lines.len() < 64 {
                        response_lines.push(String::from_utf8_lossy(line).into_owned());
                    }
                    arrivals.push(Arrival {
                        request,
                        at_s,
                        answer,
                        compute_ms,
                        queue_wait_ms,
                    });
                });
                match read {
                    Ok(()) => quiet_since = None,
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        if writer_done.load(Ordering::SeqCst) {
                            let since = *quiet_since.get_or_insert_with(Instant::now);
                            if since.elapsed() > DRAIN_GRACE {
                                break;
                            }
                        }
                    }
                    Err(_) => break,
                }
            }
            (arrivals, response_lines)
        });

        // Traced: from the second cycle on, poll the router's suspicion
        // counters every 5 ms to time detection and readmission.
        let poller = traced.then(|| {
            scope.spawn(|| {
                let mut polls = Vec::new();
                std::thread::sleep(
                    (t0 + Duration::from_secs_f64(cycle_s))
                        .saturating_duration_since(Instant::now()),
                );
                let mut client = Client::connect(cluster.router).expect("connect poller");
                while !window_over.load(Ordering::SeqCst) {
                    if let Ok(report) = client.stats() {
                        polls.push(Poll {
                            at_s: since_t0(),
                            stats: report.suspicion.expect("router suspicion stats"),
                        });
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                polls
            })
        });

        let mut cpu_at = Vec::with_capacity(SLICES + 1);
        for step in 0..=SLICES {
            let boundary = t0 + Duration::from_secs_f64(step as f64 * seconds / SLICES as f64);
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            cpu_at.push((since_t0(), target.cpu_seconds()));
        }
        let loadgen_cpu_s = Target::Own.cpu_seconds() - own_cpu;
        window_over.store(true, Ordering::SeqCst);

        let (lateness_s, request_lines) = writer.join().expect("writer thread panicked");
        let (arrivals, response_lines) = reader.join().expect("reader thread panicked");
        Window {
            arrivals,
            lateness_s,
            polls: poller.map_or_else(Vec::new, |p| p.join().expect("poller thread panicked")),
            cpu_at,
            loadgen_cpu_s,
            sample: WireSample {
                request_lines,
                response_lines,
            },
        }
    })
}

/// Sends each line to the connection of its shard, one at a time, and
/// returns every round trip in ms.
fn round_trips_ms(conns: &mut [LineConn], lines: &[(usize, Vec<u8>)]) -> Vec<f64> {
    lines
        .iter()
        .map(|(shard, line)| {
            let conn = &mut conns[*shard];
            let t0 = Instant::now();
            conn.send(line).expect("send hop probe");
            conn.lines(1, |_| {}).expect("read hop probe answer");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// `serve.router.hop_added_ms`: what the router (and the relay behind it)
/// adds to a request, with the computation taken out. Specs no window
/// request shares are first sent to their owning shards, which computes
/// and caches them; then the same requests are timed one at a time, in
/// alternating rounds, through the router and straight to the owner. Both
/// are cache hits on the same shard, so the difference of the medians is
/// the hop. Run before the window, with every shard reachable.
fn hop_added_ms(size: &Size, cluster: &Cluster, seed: u64) -> f64 {
    // A grid origin no spec of the window shares (see `cell_specs`).
    let ring = HashRing::new(SHARDS);
    let direct: Vec<(usize, Vec<u8>)> = cell_specs(size.hop_probes, size.cell, seed + 1_000_003)
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let owner = ring.shard_for(ClusterClient::shard_key(&RequestKind::Cell(spec.clone())));
            (owner, request_line(i as u64 + 1, spec))
        })
        .collect();
    let routed: Vec<(usize, Vec<u8>)> = direct.iter().map(|(_, l)| (0, l.clone())).collect();
    let connect = |addr: &SocketAddr| LineConn::connect(*addr).expect("connect for hop probe");
    let mut to_shards: Vec<LineConn> = cluster.shards.iter().map(connect).collect();
    let mut to_router = [connect(&cluster.router)];
    round_trips_ms(&mut to_shards, &direct);
    let (mut routed_ms, mut direct_ms) = (Vec::new(), Vec::new());
    for _ in 0..4 {
        routed_ms.extend(round_trips_ms(&mut to_router, &routed));
        direct_ms.extend(round_trips_ms(&mut to_shards, &direct));
    }
    order::median(&routed_ms) - order::median(&direct_ms)
}

/// Mean delay from each scheduled edge to the first poll whose counter
/// (picked by `counter`) had risen above its value at the edge.
fn mean_reaction_ms(polls: &[Poll], edges: &[f64], counter: fn(&SuspicionStats) -> u64) -> f64 {
    let reactions: Vec<f64> = edges
        .iter()
        .filter_map(|&edge| {
            let before = polls.iter().rev().find(|p| p.at_s <= edge)?;
            let risen = polls
                .iter()
                .find(|p| p.at_s > edge && counter(&p.stats) > counter(&before.stats))?;
            Some((risen.at_s - edge) * 1e3)
        })
        .collect();
    if reactions.is_empty() {
        0.0
    } else {
        reactions.iter().sum::<f64>() / reactions.len() as f64
    }
}

pub fn run(size: &Size, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::new();
    let specs = cell_specs(size.specs, size.cell, seed);
    let total = (size.rate * seconds).round() as usize;
    let mut rng = SplitMix64::new(seed ^ 0x636c_7573_7465_7221);
    let picks: Vec<usize> = (0..total).map(|_| rng.below(specs.len())).collect();
    let warm_lines: Vec<Vec<u8>> = (0..4 * size.warm_batches)
        .map(|i| request_line(i as u64 + 1, &specs[rng.below(specs.len())]))
        .collect();
    let schedule = OutageSchedule::new(seconds, SHARDS, seed);

    let (mut cluster, setup_s) = repeated_setup(|| setup(size, &warm_lines), Cluster::stop);
    let hop_added = if traced {
        hop_added_ms(size, &cluster, seed)
    } else {
        0.0
    };
    let stats_before = server_stats(cluster.router);
    let failovers_before = cluster.failovers();
    let mut ledger = CellLedger::new(&specs);
    let plan = Plan {
        specs: &specs,
        picks: &picks,
        rate: size.rate,
        seconds,
        schedule: &schedule,
    };
    let w = window(&plan, &cluster, traced, &mut ledger);
    let stats_after = server_stats(cluster.router);
    let failovers = cluster.failovers() - failovers_before;
    let peak_rss_mb = Target::Pid(cluster.child.pid()).peak_rss_mb();
    cluster.stop();
    ledger.check_against_run_cell(&mut out);

    let mut arrivals = vec![None; total];
    let mut refusals = std::collections::BTreeMap::new();
    for arrival in &w.arrivals {
        match arrival.answer {
            Answer::Consistent => arrivals[arrival.request] = Some(arrival.at_s),
            Answer::Refused(code) => *refusals.entry(format!("{code:?}")).or_insert(0u64) += 1,
            Answer::Wrong => out.mismatch(format!("request {}: wrong answer", arrival.request)),
        }
    }
    let accounting = account(&arrivals, size.rate, size.latency_limit_s);
    out.notes.push(format!(
        "{} answers of {total}; refused: {refusals:?}; first misses due at {:?} s",
        w.arrivals.len(),
        accounting
            .missed
            .iter()
            .take(3)
            .map(|&k| due_s(k, size.rate))
            .collect::<Vec<_>>()
    ));
    // A slice holds the requests due in it; `latencies_s` is in request
    // order, so a slice's samples are a contiguous range of it.
    let mut answered_before = vec![0usize; total + 1];
    for k in 0..total {
        answered_before[k + 1] = answered_before[k] + usize::from(arrivals[k].is_some());
    }
    let first_due_from = |t_s: f64| ((t_s * size.rate).ceil() as usize).min(total);
    let slices = w
        .cpu_at
        .windows(2)
        .map(|pair| {
            let (from, to) = (pair[0], pair[1]);
            let samples =
                answered_before[first_due_from(from.0)]..answered_before[first_due_from(to.0)];
            Slice {
                elapsed_s: to.0 - from.0,
                cpu_s: to.1 - from.1,
                work: samples.len() as f64,
                samples,
            }
        })
        .collect();
    let stats = WindowStats {
        cpu_s: w.cpu_at[SLICES].1 - w.cpu_at[0].1,
        loadgen_cpu_s: w.loadgen_cpu_s,
        attempted: total as u64,
        ok: accounting.ok,
        failed: accounting.failed,
        work: accounting.latencies_s.len() as f64,
        latencies_s: accounting.latencies_s,
        slices,
        // Seven slices in ten see no outage, so the midmeans over slices
        // are clean-path figures; what an outage costs is in `ok_share`.
        latency_by_slice: true,
    };
    out.attempted = stats.attempted;
    out.failed = stats.failed;
    out.latency_samples = stats.latencies_s.len();
    out.end_to_end = stats.end_to_end(setup_s, peak_rss_mb);
    out.exact_counts = vec![("cluster_outage.attempted", stats.attempted)];

    if traced {
        let outages = schedule.outages();
        let ring = HashRing::new(SHARDS);
        let owner = |request: usize| {
            ring.shard_for(ClusterClient::shard_key(&RequestKind::Cell(
                specs[picks[request]].clone(),
            )))
        };
        // A miss belongs to the outage whose black hole (plus a second of
        // aftermath) covers its due time; it is a bystander's when the
        // victim does not own its key.
        let bystanders = accounting
            .missed
            .iter()
            .filter(|&&request| {
                let due = due_s(request, size.rate);
                outages
                    .iter()
                    .find(|o| (o.start_s..o.end_s + 1.0).contains(&due))
                    .is_none_or(|o| o.victim != owner(request))
            })
            .count();
        let polled: Vec<_> = outages.iter().skip(1).collect();
        let before = stats_before.suspicion.expect("router suspicion stats");
        let after = stats_after.suspicion.expect("router suspicion stats");
        let (hits0, requests0) = cell_counters(&stats_before);
        let (hits1, requests1) = cell_counters(&stats_after);
        let first_cycle_end = SLICES / OutageSchedule::CYCLES;
        let cpu_untraced = w.cpu_at[first_cycle_end].1 - w.cpu_at[0].1;
        let cpu_traced = (w.cpu_at[SLICES].1 - w.cpu_at[first_cycle_end].1) / polled.len() as f64;

        let computed: Vec<&Arrival> = w.arrivals.iter().filter(|a| a.compute_ms > 0.0).collect();
        let stamp_p50 = |stamp: fn(&Arrival) -> f64| {
            order::median(&computed.iter().map(|a| stamp(a)).collect::<Vec<_>>())
        };
        let l = &mut out.layers;
        l.set("serve.server.compute_ms_p50", stamp_p50(|a| a.compute_ms));
        l.set(
            "serve.server.queue_wait_ms_p50",
            stamp_p50(|a| a.queue_wait_ms),
        );
        l.set("serve.router.hop_added_ms", hop_added);
        l.set("serve.router.failovers", failovers as f64);
        l.set(
            "serve.detector.detect_ms",
            mean_reaction_ms(
                &w.polls,
                &polled.iter().map(|o| o.start_s).collect::<Vec<_>>(),
                |s| s.suspects_raised,
            ),
        );
        l.set(
            "serve.detector.readmit_ms",
            mean_reaction_ms(
                &w.polls,
                &polled.iter().map(|o| o.end_s).collect::<Vec<_>>(),
                |s| s.suspects_cleared,
            ),
        );
        l.set(
            "serve.detector.probes_per_s",
            (after.probes_sent - before.probes_sent) as f64 / seconds,
        );
        l.set(
            "serve.detector.false_suspicions",
            (after.suspects_raised - before.suspects_raised).saturating_sub(outages.len() as u64)
                as f64,
        );
        l.set(
            "serve.router.unserved_ms_per_outage",
            accounting.missed.len() as f64 / outages.len() as f64 / size.rate * 1e3,
        );
        l.set(
            "serve.router.bystander_miss_share",
            bystanders as f64 / accounting.missed.len().max(1) as f64,
        );
        l.set(
            "serve.server.hit_share",
            (hits1 - hits0) as f64 / (requests1 - requests0) as f64,
        );
        l.set("loadgen.cpu_share", stats.loadgen_cpu_share());
        l.set(
            "loadgen.late_p99_ms",
            order::percentile(&order::sort(w.lateness_s.clone()), 99.0) * 1e3,
        );
        l.set("par.threads", ktudc_par::thread_count() as f64);
        l.set("trace.overhead_share", cpu_traced / cpu_untraced - 1.0);
        layers::run_cell_ms(&specs[..specs.len().min(48)], l);
        layers::hit_path(&w.sample, l);
        let kinds: Vec<RequestKind> = specs.iter().cloned().map(RequestKind::Cell).collect();
        layers::routing(&kinds, l);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Latency counts from when a request was due, not from when a
    /// stalled generator or a stalled server let it through.
    #[test]
    fn latency_counts_from_the_due_time() {
        let rate = 100.0; // one request every 10 ms
                          // Request 0 answered 4 ms after it was due; request 1 was due at
                          // 10 ms and answered at 150 ms (a stall); request 2, due at 20 ms,
                          // queued behind it and came back at 151 ms; request 3 was refused;
                          // request 4 never came back.
        let arrivals = [Some(0.004), Some(0.150), Some(0.151), None, None];
        let accounting = account(&arrivals, rate, 0.1);
        let expected = [0.004, 0.140, 0.131];
        assert_eq!(accounting.latencies_s.len(), expected.len());
        for (got, want) in accounting.latencies_s.iter().zip(expected) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
        assert_eq!(accounting.ok, 1);
        assert_eq!(accounting.failed, 2);
        assert_eq!(accounting.missed, [1, 2, 3, 4]);
    }

    #[test]
    fn reaction_is_measured_from_the_edge_to_the_first_risen_poll() {
        let poll = |at_s: f64, raised: u64| Poll {
            at_s,
            stats: SuspicionStats {
                suspects_raised: raised,
                ..SuspicionStats::default()
            },
        };
        let polls = [
            poll(0.90, 1),
            poll(0.99, 1),
            poll(1.20, 1),
            poll(1.45, 2),
            poll(1.50, 2),
            poll(2.95, 2),
            poll(3.30, 3),
        ];
        let mean = mean_reaction_ms(&polls, &[1.0, 3.0], |s| s.suspects_raised);
        assert!((mean - 375.0).abs() < 1e-6, "{mean}");
        // An edge nobody reacted to contributes nothing.
        let mean = mean_reaction_ms(&polls, &[1.0, 5.0], |s| s.suspects_raised);
        assert!((mean - 450.0).abs() < 1e-6, "{mean}");
    }
}
