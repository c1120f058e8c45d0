//! Workload `serve_hot`: every request is a cache hit.
//!
//! One child `serve` with defaults, its cache warm with 64 cell
//! scenarios; one generator thread on one connection sends pipelined
//! batches of 32 pre-encoded request lines drawn zipf(1.0) over the 64
//! and waits for all 32 answers. Compute is zero, so wire decode and
//! encode, the cache's read path, metrics recording and the connection
//! thread are the whole cost.
//!
//! Sizing (measured on two cores): two generator threads read 171k–209k
//! requests a second from run to run, one thread on one long-lived
//! connection is bimodal (the connection thread's core placement sticks
//! for the whole run), one thread reconnecting every 2000 batches stays
//! within 4 %. A single hit takes tens of microseconds, which is wake-up
//! noise; a latency sample is therefore a whole batch round trip.

use crate::child::ChildProc;
use crate::fixtures::{cell_specs, request_line, CellSize, LIGHT_CELL, SMOKE_CELL};
use crate::layers::{self, WireSample};
use crate::loadgen::{cell_counters, parse_response, server_stats, Answer, CellLedger, LineConn};
use crate::procfs::Target;
use crate::report::Outcome;
use crate::rng::{SplitMix64, Zipf};
use crate::stats as order;
use crate::window::{repeated_setup, run_windows, Meter, Until, WindowStats};
use crate::wirefast;
use ktudc_core::harness::CellSpec;
use ktudc_serve::Client;
use std::net::SocketAddr;
use std::time::Instant;

/// A batch answered later than this misses `ok_share`.
const LATENCY_LIMIT_S: f64 = 1.0;

pub struct Size {
    pub scenarios: usize,
    pub depth: usize,
    /// Batches sent on one connection before the generator reconnects.
    pub reconnect_every: usize,
    /// Hot batches sent in set-up, after the cache is warm.
    pub warm_batches: usize,
    pub cell: CellSize,
}

pub const FULL: Size = Size {
    scenarios: 64,
    depth: 32,
    reconnect_every: 2000,
    warm_batches: 1200,
    cell: LIGHT_CELL,
};
pub const SMOKE: Size = Size {
    scenarios: 8,
    depth: 8,
    reconnect_every: 50,
    warm_batches: 20,
    cell: SMOKE_CELL,
};

/// The running server and what the generator needs to talk to it.
struct Server {
    child: ChildProc,
    addr: SocketAddr,
    /// Per scenario, the `result` bytes of an answer that was parsed in
    /// full and found equal to `run_cell`.
    exemplars: Vec<Vec<u8>>,
    /// One full response line per scenario, for the wire probes.
    response_lines: Vec<String>,
}

struct Inputs {
    specs: Vec<CellSpec>,
    /// Request line of scenario `i`, sent under id `i + 1`.
    lines: Vec<Vec<u8>>,
}

/// Spawns the server, computes every scenario once (each answer parsed in
/// full and held to the oracle), checks that a second pass is all cache
/// hits, and runs the hot path until it is warm.
fn setup(size: &Size, inputs: &Inputs, seed: u64, out: &mut Outcome) -> Server {
    let mut child = ChildProc::spawn("server", None);
    let addr: SocketAddr = child.expect("ready")[0].parse().expect("server address");
    let mut conn = LineConn::connect(addr).expect("connect to server");
    let mut ledger = CellLedger::new(&inputs.specs);
    let mut exemplars = vec![Vec::new(); inputs.specs.len()];
    let mut response_lines = vec![String::new(); inputs.specs.len()];
    for pass in 0..2 {
        for line in &inputs.lines {
            conn.send(line).expect("send warm-up request");
        }
        conn.lines(inputs.lines.len(), |line| {
            let response = parse_response(line).expect("warm-up answer parses");
            let scenario = response.id as usize - 1;
            if ledger.record(scenario, &response.result) != Answer::Consistent {
                out.mismatch(format!("scenario {scenario}: bad warm-up answer"));
            }
            if pass == 1 && !response.cached {
                out.mismatch(format!(
                    "scenario {scenario}: second pass was not a cache hit"
                ));
            }
            if let Some(parts) = wirefast::split(line) {
                exemplars[scenario] = parts.result.to_vec();
            }
            response_lines[scenario] = String::from_utf8_lossy(line).into_owned();
        })
        .expect("read warm-up answers");
    }
    ledger.check_against_run_cell(out);
    let server = Server {
        child,
        addr,
        exemplars,
        response_lines,
    };
    let warm = Until::Count(size.warm_batches);
    hot_loop(size, inputs, &server, seed, false, warm, out);
    server
}

struct HotWindow {
    stats: WindowStats,
    /// The server's own `micros` stamps (traced windows only).
    service_us: Vec<f64>,
}

/// The generator: batches of `depth` zipf-drawn request lines, one write
/// and `depth` answers each, reconnecting every `reconnect_every` batches.
fn hot_loop(
    size: &Size,
    inputs: &Inputs,
    server: &Server,
    seed: u64,
    traced: bool,
    until: Until,
    out: &mut Outcome,
) -> HotWindow {
    let zipf = Zipf::new(size.scenarios, 1.0);
    let mut rng = SplitMix64::new(seed ^ 0x686f_745f_7069_636b);
    let mut batch = Vec::with_capacity(size.depth * 256);
    let mut due = vec![0u32; size.scenarios];
    let mut service_us = Vec::new();
    let mut stats = WindowStats::default();
    let connect = || {
        LineConn::connect(server.addr)
            .and_then(LineConn::spinning)
            .expect("connect to server")
    };
    let mut conn = connect();
    let mut batches = 0usize;

    stats.latency_by_slice = true;
    let mut meter = Meter::start(Target::Pid(server.child.pid()), until);
    while until.open(batches, meter.elapsed_s()) {
        if batches > 0 && batches.is_multiple_of(size.reconnect_every) {
            conn = connect();
        }
        batch.clear();
        for _ in 0..size.depth {
            let scenario = zipf.sample(&mut rng);
            batch.extend_from_slice(&inputs.lines[scenario]);
            due[scenario] += 1;
        }
        let mut right = 0u64;
        let mut refused = 0u64;
        let t0 = Instant::now();
        conn.send(&batch).expect("send batch");
        conn.lines(size.depth, |line| {
            // Fast path: the answer's `result` bytes equal the exemplar's.
            // Anything else is parsed in full before it is called wrong.
            let verdict = match wirefast::split(line) {
                Some(parts) => {
                    let scenario = (parts.id as usize).wrapping_sub(1);
                    if traced {
                        service_us.push(parts.micros as f64);
                    }
                    match server.exemplars.get(scenario) {
                        Some(exemplar) if exemplar.as_slice() == parts.result => {
                            due[scenario] = due[scenario].wrapping_sub(1);
                            Answer::Consistent
                        }
                        _ => slow_verdict(line, server, &mut due),
                    }
                }
                None => slow_verdict(line, server, &mut due),
            };
            match verdict {
                Answer::Consistent => right += 1,
                Answer::Refused(_) => refused += 1,
                Answer::Wrong => out.mismatch("a hot answer differs from its checked exemplar"),
            }
        })
        .expect("read batch answers");
        let latency = t0.elapsed().as_secs_f64();
        if due.iter().any(|&d| d != 0) {
            out.mismatch("a batch's answers do not match its requests one for one");
            due.fill(0);
        }
        batches += 1;
        stats.attempted += size.depth as u64;
        stats.failed += refused;
        stats.work += right as f64;
        if latency <= LATENCY_LIMIT_S {
            stats.ok += right;
        }
        stats.latencies_s.push(latency);
        meter.tick(stats.work, stats.latencies_s.len());
    }
    meter.stop(&mut stats);
    HotWindow { stats, service_us }
}

/// Full parse of an answer the fast path could not vouch for.
fn slow_verdict(line: &[u8], server: &Server, due: &mut [u32]) -> Answer {
    let Some(response) = parse_response(line) else {
        return Answer::Wrong;
    };
    let scenario = (response.id as usize).wrapping_sub(1);
    let Some(exemplar_line) = server.response_lines.get(scenario) else {
        return Answer::Wrong;
    };
    due[scenario] = due[scenario].wrapping_sub(1);
    let exemplar = parse_response(exemplar_line.as_bytes()).expect("exemplar parses");
    match response.result {
        ktudc_serve::ResponseKind::Error(e) => Answer::Refused(e.code),
        result if result == exemplar.result => Answer::Consistent,
        _ => Answer::Wrong,
    }
}

pub fn run(size: &Size, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::new();
    let specs = cell_specs(size.scenarios, size.cell, seed);
    let lines = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| request_line(i as u64 + 1, spec))
        .collect();
    let inputs = Inputs { specs, lines };

    let (server, setup_s) = repeated_setup(
        || setup(size, &inputs, seed, &mut out),
        |server| server.child.stop(),
    );
    let before = server_stats(server.addr);
    let windows = run_windows(
        traced,
        seconds,
        |traced, seconds| {
            hot_loop(
                size,
                &inputs,
                &server,
                seed,
                traced,
                Until::Seconds(seconds),
                &mut out,
            )
        },
        |w| w.stats.throughput_per_s(),
    );
    let w = windows.reported;
    let peak_rss_mb = Target::Pid(server.child.pid()).peak_rss_mb();

    out.attempted = w.stats.attempted;
    out.failed = w.stats.failed;
    out.latency_samples = w.stats.latencies_s.len();
    out.end_to_end = w.stats.end_to_end(setup_s, peak_rss_mb);
    if traced {
        let (hits0, requests0) = cell_counters(&before);
        let (hits1, requests1) = cell_counters(&server_stats(server.addr));
        let l = &mut out.layers;
        l.set(
            "serve.server.hit_share",
            (hits1 - hits0) as f64 / (requests1 - requests0) as f64,
        );
        let service_p50 = order::grouped_median(&w.service_us);
        l.set("serve.server.service_us_p50", service_p50);
        l.set(
            "serve.transport.residual_us",
            order::median(&w.stats.latencies_s) * 1e6 / size.depth as f64 - service_p50,
        );
        l.set("serve.server.ping_rtt_us", ping_rtt_us(server.addr));
        l.set("loadgen.cpu_share", w.stats.loadgen_cpu_share());
        l.set("par.threads", ktudc_par::thread_count() as f64);
        l.set("trace.overhead_share", windows.trace_overhead_share);
        let sample = WireSample {
            request_lines: inputs
                .lines
                .iter()
                .map(|l| String::from_utf8_lossy(l).trim_end().to_string())
                .collect(),
            response_lines: server.response_lines.clone(),
        };
        layers::hit_path(&sample, l);
    }
    server.child.stop();
    out
}

/// Median round trip of the inline `Ping` request on an idle server: the
/// floor the transport sets under every request.
fn ping_rtt_us(addr: SocketAddr) -> f64 {
    let mut client = Client::connect(addr).expect("connect for pings");
    let rtts: Vec<f64> = (0..500)
        .map(|_| {
            let t0 = Instant::now();
            client.ping().expect("ping");
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    order::median(&rtts)
}
