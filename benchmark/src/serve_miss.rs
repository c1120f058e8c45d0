//! Workload `serve_miss`: every request is computed.
//!
//! One durable child `serve` (data directory, snapshot every 32 computed
//! outcomes, cache of 256). Requests cycle through 2048 distinct light
//! cell specs in a fixed (seeded) order — the LRU's worst case: always a
//! miss, always an evict — and every tenth request repeats the one sent
//! just before it, which is still in flight, so single-flight gets used.
//! One generator thread keeps four requests outstanding. The same server
//! as `serve_hot`, used the opposite way: cache write path, admission,
//! the worker pool, snapshots and `run_cell` itself; transport is a few
//! percent of the cost here.

use crate::child::ChildProc;
use crate::fixtures::{cell_specs, request_line, CellSize, LIGHT_CELL, SMOKE_CELL};
use crate::layers::{self, WireSample};
use crate::loadgen::{cell_counters, parse_response, server_stats, Answer, CellLedger, LineConn};
use crate::procfs::Target;
use crate::report::Outcome;
use crate::rng::SplitMix64;
use crate::scratch::Scratch;
use crate::stats as order;
use crate::window::{repeated_setup, run_windows, Meter, Until, WindowStats};
use ktudc_core::harness::CellSpec;
use ktudc_serve::ErrorCode;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::Instant;

/// A request answered later than this misses `ok_share`.
const LATENCY_LIMIT_S: f64 = 1.0;

/// Every `DUPLICATE_EVERY`-th request repeats its predecessor.
const DUPLICATE_EVERY: u64 = 10;

pub struct Size {
    pub specs: usize,
    pub depth: usize,
    /// Requests sent in set-up: enough to fill the cache, so the window
    /// starts with every insert already evicting.
    pub warm_requests: usize,
    pub cell: CellSize,
}

pub const FULL: Size = Size {
    specs: 2048,
    depth: 4,
    warm_requests: 288,
    cell: LIGHT_CELL,
};
pub const SMOKE: Size = Size {
    specs: 512,
    depth: 4,
    warm_requests: 288,
    cell: SMOKE_CELL,
};

/// The cyclic request sequence: which spec the next request carries.
struct Sequence {
    order: Vec<usize>,
    position: usize,
    sent: u64,
    last: usize,
}

impl Sequence {
    fn new(specs: usize, seed: u64) -> Self {
        let mut order: Vec<usize> = (0..specs).collect();
        SplitMix64::new(seed ^ 0x6d69_7373_5f73_6571).shuffle(&mut order);
        Sequence {
            order,
            position: 0,
            sent: 0,
            last: 0,
        }
    }

    fn next(&mut self) -> usize {
        self.sent += 1;
        if !self.sent.is_multiple_of(DUPLICATE_EVERY) {
            self.last = self.order[self.position];
            self.position = (self.position + 1) % self.order.len();
        }
        self.last
    }
}

struct Server {
    child: ChildProc,
    addr: SocketAddr,
    /// The server's data directory, removed with the server.
    _data: Scratch,
}

/// What the generator carries from set-up into the windows.
struct Generator<'a> {
    specs: &'a [CellSpec],
    sequence: Sequence,
    ledger: CellLedger<'a>,
    next_id: u64,
    /// Request and response lines kept for the wire probes.
    sample: WireSample,
}

struct MissWindow {
    stats: WindowStats,
    /// Of the answers in the window: served by joining a computation in
    /// flight (`cached: true`), and shed with `Overloaded`.
    joined: u64,
    shed: u64,
    compute_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
}

/// The generator: a sliding window of `depth` outstanding requests on one
/// connection, a new one sent as each answer arrives.
fn miss_loop(
    size: &Size,
    server: &Server,
    conn: &mut LineConn,
    generator: &mut Generator<'_>,
    until: Until,
    out: &mut Outcome,
) -> MissWindow {
    let mut w = MissWindow {
        stats: WindowStats::default(),
        joined: 0,
        shed: 0,
        compute_ms: Vec::new(),
        queue_wait_ms: Vec::new(),
    };
    let mut outstanding: VecDeque<(u64, usize, Instant)> = VecDeque::new();
    let mut sent = 0usize;
    w.stats.latency_by_slice = true;
    let mut meter = Meter::start(Target::Pid(server.child.pid()), until);
    loop {
        let open = until.open(sent, meter.elapsed_s());
        while open && outstanding.len() < size.depth {
            let spec = generator.sequence.next();
            let id = generator.next_id;
            generator.next_id += 1;
            let line = request_line(id, &generator.specs[spec]);
            if generator.sample.request_lines.len() < 64 {
                generator
                    .sample
                    .request_lines
                    .push(String::from_utf8_lossy(&line).trim_end().to_string());
            }
            outstanding.push_back((id, spec, Instant::now()));
            conn.send(&line).expect("send request");
            sent += 1;
        }
        if outstanding.is_empty() {
            break;
        }
        conn.lines(1, |line| {
            let arrived = Instant::now();
            let Some(response) = parse_response(line) else {
                out.mismatch("an answer is not a response line");
                return;
            };
            let Some(at) = outstanding.iter().position(|(id, ..)| *id == response.id) else {
                out.mismatch(format!("answer to unknown request id {}", response.id));
                return;
            };
            let (_, spec, sent_at) = outstanding.remove(at).expect("position is in range");
            let answer = generator.ledger.record(spec, &response.result);
            if answer == Answer::Wrong {
                out.mismatch(format!("spec {spec}: two answers disagree"));
            }
            if !open {
                // Sent inside the window, answered after it: checked, but
                // not counted.
                return;
            }
            let latency = (arrived - sent_at).as_secs_f64();
            w.stats.attempted += 1;
            match answer {
                Answer::Consistent => {
                    w.stats.work += 1.0;
                    if latency <= LATENCY_LIMIT_S {
                        w.stats.ok += 1;
                    }
                    w.stats.latencies_s.push(latency);
                    if response.cached {
                        w.joined += 1;
                    } else {
                        w.compute_ms.push(response.compute_ms);
                        w.queue_wait_ms.push(response.queue_wait_ms);
                    }
                    if generator.sample.response_lines.len() < 64 {
                        generator
                            .sample
                            .response_lines
                            .push(String::from_utf8_lossy(line).into_owned());
                    }
                }
                Answer::Refused(code) => {
                    w.stats.failed += 1;
                    if code == ErrorCode::Overloaded {
                        w.shed += 1;
                    }
                }
                Answer::Wrong => {}
            }
        })
        .expect("read answer");
        if open {
            meter.tick(w.stats.work, w.stats.latencies_s.len());
        }
    }
    meter.stop(&mut w.stats);
    w
}

pub fn run(size: &Size, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::new();
    let specs = cell_specs(size.specs, size.cell, seed);

    // Set-up: spawn the durable server and fill its cache, so that the
    // window starts in the steady state of insert-and-evict with the
    // snapshot cadence already running.
    let ((server, mut conn, mut generator), setup_s) = repeated_setup(
        || {
            let data = Scratch::new("serve-miss");
            let mut child = ChildProc::spawn("server", Some(data.path()));
            let addr: SocketAddr = child.expect("ready")[0].parse().expect("server address");
            let server = Server {
                child,
                addr,
                _data: data,
            };
            let mut conn = LineConn::connect(addr).expect("connect to server");
            let mut generator = Generator {
                specs: &specs,
                sequence: Sequence::new(size.specs, seed),
                ledger: CellLedger::new(&specs),
                next_id: 1,
                sample: WireSample {
                    request_lines: Vec::new(),
                    response_lines: Vec::new(),
                },
            };
            miss_loop(
                size,
                &server,
                &mut conn,
                &mut generator,
                Until::Count(size.warm_requests),
                &mut out,
            );
            (server, conn, generator)
        },
        |(server, conn, _)| {
            drop(conn);
            server.child.stop();
        },
    );
    let before = server_stats(server.addr);
    let windows = run_windows(
        traced,
        seconds,
        |_, seconds| {
            miss_loop(
                size,
                &server,
                &mut conn,
                &mut generator,
                Until::Seconds(seconds),
                &mut out,
            )
        },
        |w| w.stats.throughput_per_s(),
    );
    let w = windows.reported;
    let peak_rss_mb = Target::Pid(server.child.pid()).peak_rss_mb();
    let after = server_stats(server.addr);
    drop(conn);
    server.child.stop();
    generator.ledger.check_against_run_cell(&mut out);

    out.attempted = w.stats.attempted;
    out.failed = w.stats.failed;
    out.latency_samples = w.stats.latencies_s.len();
    out.end_to_end = w.stats.end_to_end(setup_s, peak_rss_mb);
    if traced {
        let (hits0, requests0) = cell_counters(&before);
        let (hits1, requests1) = cell_counters(&after);
        let compute = order::median(&w.compute_ms);
        let queue_wait = order::median(&w.queue_wait_ms);
        let l = &mut out.layers;
        l.set(
            "serve.server.hit_share",
            (hits1 - hits0) as f64 / (requests1 - requests0) as f64,
        );
        l.set("serve.server.compute_ms_p50", compute);
        l.set("serve.server.queue_wait_ms_p50", queue_wait);
        l.set(
            "serve.server.overhead_ms",
            out.end_to_end.latency_p50_ms - queue_wait - compute,
        );
        l.set(
            "serve.server.single_flight_share",
            w.joined as f64 / w.stats.attempted as f64,
        );
        l.set(
            "serve.server.shed_share",
            w.shed as f64 / w.stats.attempted as f64,
        );
        l.set("loadgen.cpu_share", w.stats.loadgen_cpu_share());
        l.set("par.threads", ktudc_par::thread_count() as f64);
        l.set("trace.overhead_share", windows.trace_overhead_share);
        layers::run_cell_ms(&specs[..specs.len().min(48)], l);
        layers::hit_path(&generator.sample, l);
        layers::miss_path(&generator.sample, l);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_tenth_request_repeats_its_predecessor() {
        let mut sequence = Sequence::new(16, 3);
        let sent: Vec<usize> = (0..40).map(|_| sequence.next()).collect();
        for (i, pair) in sent.windows(2).enumerate() {
            // `pair[1]` is request number i + 2.
            assert_eq!(
                pair[0] == pair[1],
                (i as u64 + 2).is_multiple_of(DUPLICATE_EVERY)
            );
        }
        // Apart from the repeats, the first cycle visits every spec once.
        let mut firsts: Vec<usize> = sent.clone();
        firsts.dedup();
        let mut cycle = firsts[..16].to_vec();
        cycle.sort_unstable();
        assert_eq!(cycle, (0..16).collect::<Vec<_>>());
        assert_eq!(firsts[16], firsts[0], "then the cycle starts over");
    }
}
