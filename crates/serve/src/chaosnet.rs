//! Deterministic in-process TCP fault proxy — chaos on the wire plane.
//!
//! PR 3's [`FaultPlan`](ktudc_sim::faults) injects faults at the
//! *simulated* channel boundary. This module moves the same taxonomy to
//! the real TCP path: a [`ChaosProxy`] listens on an ephemeral port,
//! forwards every accepted connection to one upstream address, and
//! applies a seeded schedule of **toxics** (toxiproxy-style) to the byte
//! stream in each direction. Interpose it on any hop — `ctl`↔router,
//! router↔worker, client↔server — and the hardened layers above must
//! mask everything it does, which `serve::audit` checks end to end.
//!
//! # Toxic vocabulary (the wire-plane mirror of `FaultPlan`)
//!
//! | sim `FaultPlan`            | wire toxic                                  |
//! |----------------------------|---------------------------------------------|
//! | `delay_spikes(w, extra)`   | [`Toxic::DelaySpike`] — stall a frame       |
//! | `burst_loss(w)`            | [`Toxic::TruncateEvery`] — torn frame + cut |
//! | `duplicate(p)`             | client resend storms (the proxy never dupes: TCP can't; the *client's* reconnect-and-resend is the duplication the auditor must prove harmless) |
//! | `partition_link(from, to)` | [`Toxic::Partition`] — one-way silent drop  |
//! | `sever_link(from, to)`     | [`Toxic::ResetEvery`] / unbounded partition |
//! | *(no sim analogue)*        | [`Toxic::CorruptEvery`], [`Toxic::StallEvery`], [`Toxic::Throttle`] |
//!
//! # Determinism
//!
//! All scheduling is counter-based: each direction keeps one **global**
//! frame counter shared by every connection through the proxy (the same
//! shared-sequence idiom as [`ServerFaults`](crate::server::ServerFaults)),
//! so "every k-th frame" is stable across client reconnects and cannot
//! stay aligned with a fixed batch size. The only randomness — which
//! byte a corruption lands on — is drawn statelessly from
//! `splitmix64(seed ^ CHAOS_STREAM_SALT ^ frame_index)`, mirroring the
//! simulator's dedicated fault RNG stream. An empty [`ToxicPlan`]
//! forwards every byte unchanged (the zero-perturbation invariant,
//! pinned by a unit test), and a fixed plan + seed + frame sequence
//! reproduces the same injections.
//!
//! # Framing
//!
//! The wire protocol is newline-delimited JSON, so the proxy cuts the
//! stream into newline-terminated *frames* and schedules toxics per
//! frame: a truncation is guaranteed to tear mid-frame, a corruption
//! lands inside a frame body (never on the delimiter), and a partition
//! drops whole frames silently. Bytes that overrun
//! [`MAX_PROXY_FRAME`] without a newline are flushed as-is (opaque
//! pass-through) so a non-JSON peer cannot balloon proxy memory.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Salt for the proxy's corruption-position stream, in the same spirit
/// as the simulator's `FAULT_STREAM_SALT`: chaos randomness must never
/// collide with any other consumer of the seed.
pub const CHAOS_STREAM_SALT: u64 = 0x70c1_c0de_5eed_cab1;

/// How often the accept loop re-checks the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Pump read poll: how long a relay thread blocks in `read` before
/// re-checking shutdown. Purely an implementation liveness knob — it
/// never delays delivery of bytes that have arrived.
const PUMP_POLL: Duration = Duration::from_millis(10);

/// A frame accumulating past this many bytes without a newline is
/// flushed as an opaque chunk instead of buffering further.
pub const MAX_PROXY_FRAME: usize = 4 << 20;

/// One step of `splitmix64` used statelessly: full avalanche of `x`.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Which half of the proxied conversation a toxic applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Client → upstream bytes (requests).
    Upstream,
    /// Upstream → client bytes (responses).
    Downstream,
}

/// One wire-plane fault. All `every`-style toxics count frames on a
/// per-direction counter that is global across connections.
#[derive(Clone, Debug)]
pub enum Toxic {
    /// Sleep `extra` before forwarding frames whose index falls in the
    /// leading `width` slots of each `period` (the simulator's
    /// `Window` shape): a bounded latency spike.
    DelaySpike {
        /// Window period in frames.
        period: u64,
        /// Spiked slots at the start of each period.
        width: u64,
        /// Added forwarding delay for spiked frames.
        extra: Duration,
    },
    /// Forward every frame, but in write slices of at most `chunk`
    /// bytes with `pause` between slices: a throttled, sliced writer
    /// that exercises short-read handling on the receiver.
    Throttle {
        /// Largest single write.
        chunk: usize,
        /// Pause between slices.
        pause: Duration,
    },
    /// Every k-th frame: forward only the first half of the frame, then
    /// sever the proxied connection — a torn frame the peer can never
    /// complete.
    TruncateEvery(u64),
    /// Every k-th frame: overwrite one frame byte (never the trailing
    /// newline) with `0x00`, which no JSON encoding contains, so the
    /// corruption is guaranteed visible to the decoder instead of
    /// silently producing a different valid document.
    CorruptEvery(u64),
    /// Every k-th frame: drop it and sever the proxied connection
    /// without warning (abrupt close; the peer observes a mid-exchange
    /// connection reset / EOF).
    ResetEvery(u64),
    /// Every k-th frame: swallow it and go **half-open** — this
    /// connection keeps reading (and discarding) in this direction
    /// forever but forwards nothing further, while the opposite
    /// direction stays untouched. The peer sees a socket that is alive
    /// but permanently silent; only its own deadline can save it.
    StallEvery(u64),
    /// Silently drop every frame with index in `start..until`
    /// (`None` = forever): an asymmetric one-way partition when armed
    /// on a single direction.
    Partition {
        /// First dropped frame index.
        start: u64,
        /// First index delivered again; `None` severs the direction
        /// permanently.
        until: Option<u64>,
    },
}

/// A per-direction set of toxics. Empty by default: the proxy is then a
/// byte-exact relay.
#[derive(Clone, Debug, Default)]
pub struct ToxicPlan {
    upstream: Vec<Toxic>,
    downstream: Vec<Toxic>,
}

impl ToxicPlan {
    /// No toxics: forwards everything unchanged.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Arms `toxic` on client → upstream traffic.
    #[must_use]
    pub fn upstream(mut self, toxic: Toxic) -> Self {
        self.upstream.push(toxic);
        self
    }

    /// Arms `toxic` on upstream → client traffic.
    #[must_use]
    pub fn downstream(mut self, toxic: Toxic) -> Self {
        self.downstream.push(toxic);
        self
    }

    /// True when no toxic is armed in either direction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.upstream.is_empty() && self.downstream.is_empty()
    }

    fn for_direction(&self, dir: Direction) -> &[Toxic] {
        match dir {
            Direction::Upstream => &self.upstream,
            Direction::Downstream => &self.downstream,
        }
    }
}

/// Injection counters, mirroring the simulator's `FaultStats`: every
/// toxic that fires is counted, nothing is ever injected silently.
#[derive(Debug, Default)]
pub struct ChaosStats {
    connections: AtomicU64,
    frames_forwarded: AtomicU64,
    bytes_forwarded: AtomicU64,
    spike_delayed: AtomicU64,
    throttled_writes: AtomicU64,
    truncated: AtomicU64,
    corrupted: AtomicU64,
    resets: AtomicU64,
    stalled: AtomicU64,
    partition_dropped: AtomicU64,
    /// Global frame index of the first injection, plus one (0 = none
    /// yet) — the wire analogue of `FaultStats::first_injection`.
    first_injection: AtomicU64,
}

impl ChaosStats {
    fn note_injection(&self, frame: u64) {
        let _ = self.first_injection.compare_exchange(
            0,
            frame + 1,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// A plain copy of the counters at this instant.
    #[must_use]
    pub fn snapshot(&self) -> ChaosStatsSnapshot {
        ChaosStatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            frames_forwarded: self.frames_forwarded.load(Ordering::Relaxed),
            bytes_forwarded: self.bytes_forwarded.load(Ordering::Relaxed),
            spike_delayed: self.spike_delayed.load(Ordering::Relaxed),
            throttled_writes: self.throttled_writes.load(Ordering::Relaxed),
            truncated: self.truncated.load(Ordering::Relaxed),
            corrupted: self.corrupted.load(Ordering::Relaxed),
            resets: self.resets.load(Ordering::Relaxed),
            stalled: self.stalled.load(Ordering::Relaxed),
            partition_dropped: self.partition_dropped.load(Ordering::Relaxed),
            first_injection: match self.first_injection.load(Ordering::Relaxed) {
                0 => None,
                n => Some(n - 1),
            },
        }
    }
}

/// Point-in-time view of [`ChaosStats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosStatsSnapshot {
    /// Connections accepted and proxied.
    pub connections: u64,
    /// Frames delivered intact (possibly delayed or sliced).
    pub frames_forwarded: u64,
    /// Payload bytes delivered.
    pub bytes_forwarded: u64,
    /// Frames held by a delay spike before delivery.
    pub spike_delayed: u64,
    /// Sliced writes issued by the throttle toxic.
    pub throttled_writes: u64,
    /// Frames torn mid-body (then severed).
    pub truncated: u64,
    /// Frames delivered with one corrupted byte.
    pub corrupted: u64,
    /// Connections severed by the reset toxic.
    pub resets: u64,
    /// Frames swallowed by a half-open stall.
    pub stalled: u64,
    /// Frames dropped by a one-way partition.
    pub partition_dropped: u64,
    /// Global frame index of the first injection, if any.
    pub first_injection: Option<u64>,
}

impl ChaosStatsSnapshot {
    /// Total toxic firings of any kind.
    #[must_use]
    pub fn injections(&self) -> u64 {
        self.spike_delayed
            + self.throttled_writes
            + self.truncated
            + self.corrupted
            + self.resets
            + self.stalled
            + self.partition_dropped
    }
}

/// Per-direction shared scheduling state: the global frame counter.
#[derive(Debug, Default)]
struct DirState {
    frames: AtomicU64,
}

/// A running chaos proxy. Dropping it stops accepting; connections
/// already relayed die with their endpoints.
#[derive(Debug)]
pub struct ChaosProxy {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ChaosStats>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// The proxy's own listen address — point clients here.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Injection counters so far.
    #[must_use]
    pub fn stats(&self) -> ChaosStatsSnapshot {
        self.stats.snapshot()
    }

    /// Stops accepting new connections and joins the accept thread.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Starts a chaos proxy on an ephemeral local port, forwarding every
/// accepted connection to `upstream` under `plan`'s toxics with a
/// seeded corruption stream.
///
/// # Errors
///
/// Propagates the listener bind failure.
pub fn chaos_proxy(
    upstream: impl Into<String>,
    plan: ToxicPlan,
    seed: u64,
) -> std::io::Result<ChaosProxy> {
    let upstream = upstream.into();
    let listener = TcpListener::bind("127.0.0.1:0")?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(ChaosStats::default());
    let up_state = Arc::new(DirState::default());
    let down_state = Arc::new(DirState::default());
    let accept = {
        let shutdown = Arc::clone(&shutdown);
        let stats = Arc::clone(&stats);
        std::thread::spawn(move || {
            while !shutdown.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((client, _peer)) => {
                        let _ = client.set_nodelay(true);
                        let Ok(server) = TcpStream::connect(&upstream) else {
                            // Upstream refused: the client sees an
                            // immediate close, exactly what a dead
                            // worker looks like.
                            drop(client);
                            continue;
                        };
                        let _ = server.set_nodelay(true);
                        stats.connections.fetch_add(1, Ordering::Relaxed);
                        spawn_pumps(
                            &client,
                            &server,
                            &plan,
                            seed,
                            &up_state,
                            &down_state,
                            &stats,
                            &shutdown,
                        );
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(_) => std::thread::sleep(ACCEPT_POLL),
                }
            }
        })
    };
    Ok(ChaosProxy {
        addr,
        shutdown,
        stats,
        accept: Some(accept),
    })
}

/// Spawns the two relay threads for one proxied connection.
#[allow(clippy::too_many_arguments)]
fn spawn_pumps(
    client: &TcpStream,
    server: &TcpStream,
    plan: &ToxicPlan,
    seed: u64,
    up_state: &Arc<DirState>,
    down_state: &Arc<DirState>,
    stats: &Arc<ChaosStats>,
    shutdown: &Arc<AtomicBool>,
) {
    for (dir, state) in [
        (Direction::Upstream, up_state),
        (Direction::Downstream, down_state),
    ] {
        let (src, dst) = match dir {
            Direction::Upstream => (client.try_clone(), server.try_clone()),
            Direction::Downstream => (server.try_clone(), client.try_clone()),
        };
        let (Ok(src), Ok(dst)) = (src, dst) else {
            let _ = client.shutdown(Shutdown::Both);
            let _ = server.shutdown(Shutdown::Both);
            return;
        };
        let toxics = plan.for_direction(dir).to_vec();
        let state = Arc::clone(state);
        let stats = Arc::clone(stats);
        let shutdown = Arc::clone(shutdown);
        std::thread::spawn(move || pump(src, dst, &toxics, seed, &state, &stats, &shutdown));
    }
}

/// What the schedule decided for one frame.
enum FrameAction {
    Pass,
    Corrupt,
    Truncate,
    Reset,
    Stall,
    PartitionDrop,
}

/// Relays one direction of one connection, applying `toxics` per frame.
fn pump(
    mut src: TcpStream,
    mut dst: TcpStream,
    toxics: &[Toxic],
    seed: u64,
    state: &DirState,
    stats: &ChaosStats,
    shutdown: &AtomicBool,
) {
    let _ = src.set_read_timeout(Some(PUMP_POLL));
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 8192];
    // Once a stall toxic fires, this direction reads and discards
    // forever (half-open): the socket stays up, nothing is forwarded.
    let mut stalled = false;
    loop {
        let n = match src.read(&mut chunk) {
            Ok(0) => {
                // Clean EOF: propagate the half-close and stop.
                let _ = dst.shutdown(Shutdown::Write);
                return;
            }
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                let _ = dst.shutdown(Shutdown::Both);
                return;
            }
        };
        if stalled {
            continue;
        }
        pending.extend_from_slice(&chunk[..n]);
        // Deliver every complete newline-terminated frame.
        while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
            let frame: Vec<u8> = pending.drain(..=pos).collect();
            match deliver_frame(&frame, &mut src, &mut dst, toxics, seed, state, stats) {
                Delivery::Continue => {}
                Delivery::Stalled => {
                    stalled = true;
                    pending.clear();
                    break;
                }
                Delivery::Closed => return,
            }
        }
        // A frame that never terminates must not balloon memory:
        // flush it as an opaque chunk (no toxic schedule — it is not a
        // protocol frame).
        if pending.len() > MAX_PROXY_FRAME {
            if dst.write_all(&pending).is_err() {
                let _ = src.shutdown(Shutdown::Both);
                return;
            }
            stats
                .bytes_forwarded
                .fetch_add(pending.len() as u64, Ordering::Relaxed);
            pending.clear();
        }
    }
}

/// Outcome of delivering (or not) one frame.
enum Delivery {
    Continue,
    Stalled,
    Closed,
}

fn decide(
    toxics: &[Toxic],
    idx: u64,
) -> (FrameAction, Option<Duration>, Option<(usize, Duration)>) {
    let mut action = FrameAction::Pass;
    let mut delay = None;
    let mut slice = None;
    for toxic in toxics {
        match *toxic {
            Toxic::DelaySpike {
                period,
                width,
                extra,
            } => {
                if period > 0 && idx % period < width {
                    delay = Some(extra);
                }
            }
            Toxic::Throttle { chunk, pause } => slice = Some((chunk.max(1), pause)),
            Toxic::TruncateEvery(k) => {
                if k > 0 && idx % k == k - 1 {
                    action = FrameAction::Truncate;
                }
            }
            Toxic::CorruptEvery(k) => {
                if k > 0 && idx % k == k - 1 {
                    action = FrameAction::Corrupt;
                }
            }
            Toxic::ResetEvery(k) => {
                if k > 0 && idx % k == k - 1 {
                    action = FrameAction::Reset;
                }
            }
            Toxic::StallEvery(k) => {
                if k > 0 && idx % k == k - 1 {
                    action = FrameAction::Stall;
                }
            }
            Toxic::Partition { start, until } => {
                if idx >= start && until.is_none_or(|u| idx < u) {
                    action = FrameAction::PartitionDrop;
                }
            }
        }
    }
    (action, delay, slice)
}

/// Applies the schedule to one complete frame and forwards, mangles, or
/// drops it.
fn deliver_frame(
    frame: &[u8],
    src: &mut TcpStream,
    dst: &mut TcpStream,
    toxics: &[Toxic],
    seed: u64,
    state: &DirState,
    stats: &ChaosStats,
) -> Delivery {
    let idx = state.frames.fetch_add(1, Ordering::Relaxed);
    let (action, delay, slice) = decide(toxics, idx);
    match action {
        FrameAction::PartitionDrop => {
            stats.partition_dropped.fetch_add(1, Ordering::Relaxed);
            stats.note_injection(idx);
            return Delivery::Continue;
        }
        FrameAction::Stall => {
            stats.stalled.fetch_add(1, Ordering::Relaxed);
            stats.note_injection(idx);
            return Delivery::Stalled;
        }
        FrameAction::Reset => {
            stats.resets.fetch_add(1, Ordering::Relaxed);
            stats.note_injection(idx);
            let _ = dst.shutdown(Shutdown::Both);
            let _ = src.shutdown(Shutdown::Both);
            return Delivery::Closed;
        }
        FrameAction::Truncate => {
            stats.truncated.fetch_add(1, Ordering::Relaxed);
            stats.note_injection(idx);
            let torn = &frame[..frame.len() / 2];
            let _ = dst.write_all(torn);
            let _ = dst.shutdown(Shutdown::Both);
            let _ = src.shutdown(Shutdown::Both);
            return Delivery::Closed;
        }
        FrameAction::Corrupt | FrameAction::Pass => {}
    }
    if let Some(extra) = delay {
        stats.spike_delayed.fetch_add(1, Ordering::Relaxed);
        stats.note_injection(idx);
        std::thread::sleep(extra);
    }
    let mut owned;
    let payload: &[u8] = if matches!(action, FrameAction::Corrupt) && frame.len() > 1 {
        owned = frame.to_vec();
        // Never the trailing newline: the framing survives, the body
        // does not. 0x00 is invalid anywhere in a JSON document, so
        // the decoder is guaranteed to see the damage.
        let body_len = owned.len() - 1;
        let pos = (mix64(seed ^ CHAOS_STREAM_SALT ^ idx) % body_len as u64) as usize;
        owned[pos] = 0x00;
        stats.corrupted.fetch_add(1, Ordering::Relaxed);
        stats.note_injection(idx);
        &owned
    } else {
        frame
    };
    // Count the frame before its bytes can reach the reader: a client that
    // has read a relayed answer must find it counted. A failed write takes
    // the count back, so the tally still means fully written frames.
    let len = payload.len() as u64;
    stats.frames_forwarded.fetch_add(1, Ordering::Relaxed);
    stats.bytes_forwarded.fetch_add(len, Ordering::Relaxed);
    let wrote = if let Some((chunk, pause)) = slice {
        let mut ok = true;
        for piece in payload.chunks(chunk) {
            if dst.write_all(piece).is_err() {
                ok = false;
                break;
            }
            stats.throttled_writes.fetch_add(1, Ordering::Relaxed);
            stats.note_injection(idx);
            std::thread::sleep(pause);
        }
        ok
    } else {
        dst.write_all(payload).is_ok()
    };
    if !wrote {
        stats.frames_forwarded.fetch_sub(1, Ordering::Relaxed);
        stats.bytes_forwarded.fetch_sub(len, Ordering::Relaxed);
        let _ = src.shutdown(Shutdown::Both);
        return Delivery::Closed;
    }
    Delivery::Continue
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// A trivial line-echo upstream: answers every received line with
    /// `echo:<line>`.
    fn echo_upstream() -> (SocketAddr, Arc<AtomicBool>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo");
        listener.set_nonblocking(true).expect("nonblocking");
        let addr = listener.local_addr().expect("addr");
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !flag.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        std::thread::spawn(move || {
                            let Ok(read_half) = stream.try_clone() else {
                                return;
                            };
                            let mut out = stream;
                            for line in BufReader::new(read_half).lines() {
                                let Ok(line) = line else { break };
                                if writeln!(out, "echo:{line}").is_err() {
                                    break;
                                }
                            }
                        });
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
        });
        (addr, stop)
    }

    fn roundtrip_lines(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
        let mut conn = TcpStream::connect(addr).expect("connect proxy");
        conn.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut got = Vec::new();
        let read_half = conn.try_clone().expect("clone");
        let mut reader = BufReader::new(read_half);
        for line in lines {
            writeln!(conn, "{line}").expect("write");
            let mut answer = String::new();
            reader.read_line(&mut answer).expect("read");
            got.push(answer.trim_end().to_string());
        }
        got
    }

    #[test]
    fn empty_plan_is_a_byte_exact_relay() {
        let (upstream, stop) = echo_upstream();
        let proxy = chaos_proxy(upstream.to_string(), ToxicPlan::none(), 7).expect("proxy");
        let lines = ["alpha", "beta", "{\"k\":1}"];
        let got = roundtrip_lines(proxy.addr(), &lines);
        assert_eq!(got, vec!["echo:alpha", "echo:beta", "echo:{\"k\":1}"]);
        let stats = proxy.stats();
        assert_eq!(stats.injections(), 0, "{stats:?}");
        assert_eq!(stats.first_injection, None);
        assert!(stats.frames_forwarded >= 6, "{stats:?}");
        stop.store(true, Ordering::SeqCst);
    }

    #[test]
    fn schedule_is_deterministic_for_a_fixed_seed_and_sequence() {
        let run = || {
            let (upstream, stop) = echo_upstream();
            let plan = ToxicPlan::none()
                .downstream(Toxic::CorruptEvery(3))
                .downstream(Toxic::DelaySpike {
                    period: 4,
                    width: 1,
                    extra: Duration::from_millis(1),
                });
            let proxy = chaos_proxy(upstream.to_string(), plan, 42).expect("proxy");
            let mut conn = TcpStream::connect(proxy.addr()).expect("connect");
            conn.set_read_timeout(Some(Duration::from_secs(5)))
                .expect("timeout");
            let read_half = conn.try_clone().expect("clone");
            let mut reader = BufReader::new(read_half);
            let mut got = Vec::new();
            for i in 0..9 {
                writeln!(conn, "line-{i}").expect("write");
                let mut answer = String::new();
                reader.read_line(&mut answer).expect("read");
                got.push(answer.into_bytes());
            }
            let stats = proxy.stats();
            stop.store(true, Ordering::SeqCst);
            (got, stats)
        };
        let (a_lines, a_stats) = run();
        let (b_lines, b_stats) = run();
        assert_eq!(a_lines, b_lines);
        assert_eq!(a_stats.corrupted, b_stats.corrupted);
        assert_eq!(a_stats.corrupted, 3);
        assert_eq!(a_stats.first_injection, b_stats.first_injection);
        // The corrupted byte really is 0x00 and really is mid-frame.
        let torn: Vec<&Vec<u8>> = a_lines.iter().filter(|l| l.contains(&0)).collect();
        assert_eq!(torn.len(), 3, "every third response carries the byte");
    }

    #[test]
    fn one_way_partition_drops_silently_and_recovers() {
        let (upstream, stop) = echo_upstream();
        // Responses 1 and 2 (0-indexed frames 1..3) vanish; everything
        // else flows. The request direction is untouched.
        let plan = ToxicPlan::none().downstream(Toxic::Partition {
            start: 1,
            until: Some(3),
        });
        let proxy = chaos_proxy(upstream.to_string(), plan, 1).expect("proxy");
        let mut conn = TcpStream::connect(proxy.addr()).expect("connect");
        conn.set_read_timeout(Some(Duration::from_millis(200)))
            .expect("timeout");
        let read_half = conn.try_clone().expect("clone");
        let mut reader = BufReader::new(read_half);
        let mut answered = Vec::new();
        for i in 0..5 {
            writeln!(conn, "m{i}").expect("write");
            let mut answer = String::new();
            match reader.read_line(&mut answer) {
                Ok(_) if !answer.is_empty() => answered.push(answer.trim_end().to_string()),
                _ => {} // dropped inside the partition window
            }
        }
        assert_eq!(answered, vec!["echo:m0", "echo:m3", "echo:m4"]);
        let stats = proxy.stats();
        assert_eq!(stats.partition_dropped, 2, "{stats:?}");
        assert_eq!(stats.first_injection, Some(1));
        stop.store(true, Ordering::SeqCst);
    }

    #[test]
    fn reset_severs_and_truncate_tears_mid_frame() {
        let (upstream, stop) = echo_upstream();
        let plan = ToxicPlan::none().downstream(Toxic::ResetEvery(2));
        let proxy = chaos_proxy(upstream.to_string(), plan, 3).expect("proxy");
        let mut conn = TcpStream::connect(proxy.addr()).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let read_half = conn.try_clone().expect("clone");
        let mut reader = BufReader::new(read_half);
        writeln!(conn, "first").expect("write");
        let mut answer = String::new();
        reader.read_line(&mut answer).expect("read");
        assert_eq!(answer.trim_end(), "echo:first");
        // Second response frame hits the reset: the connection dies
        // without delivering it.
        writeln!(conn, "second").expect("write");
        let mut dead = String::new();
        let got = reader.read_line(&mut dead).unwrap_or(0);
        assert_eq!(got, 0, "reset delivers nothing: {dead:?}");
        assert_eq!(proxy.stats().resets, 1);

        // Truncation: a fresh proxy tearing every response mid-body.
        let plan = ToxicPlan::none().downstream(Toxic::TruncateEvery(1));
        let proxy = chaos_proxy(upstream.to_string(), plan, 3).expect("proxy");
        let mut conn = TcpStream::connect(proxy.addr()).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        writeln!(conn, "torn-frame-request").expect("write");
        let mut buf = Vec::new();
        let mut r = BufReader::new(conn);
        r.read_to_end(&mut buf).expect("drain");
        let full = b"echo:torn-frame-request\n";
        assert_eq!(buf, full[..full.len() / 2].to_vec());
        assert_eq!(proxy.stats().truncated, 1);
        stop.store(true, Ordering::SeqCst);
    }

    #[test]
    fn stall_goes_half_open_without_closing_the_socket() {
        let (upstream, stop) = echo_upstream();
        let plan = ToxicPlan::none().downstream(Toxic::StallEvery(2));
        let proxy = chaos_proxy(upstream.to_string(), plan, 9).expect("proxy");
        let mut conn = TcpStream::connect(proxy.addr()).expect("connect");
        conn.set_read_timeout(Some(Duration::from_millis(150)))
            .expect("timeout");
        let read_half = conn.try_clone().expect("clone");
        let mut reader = BufReader::new(read_half);
        writeln!(conn, "a").expect("write");
        let mut answer = String::new();
        reader.read_line(&mut answer).expect("read");
        assert_eq!(answer.trim_end(), "echo:a");
        // The next response is swallowed; the socket stays open so the
        // read times out instead of returning EOF.
        writeln!(conn, "b").expect("write");
        let mut silent = String::new();
        let err = reader.read_line(&mut silent).expect_err("stalled");
        assert!(
            err.kind() == ErrorKind::WouldBlock || err.kind() == ErrorKind::TimedOut,
            "{err:?}"
        );
        assert_eq!(proxy.stats().stalled, 1);
        stop.store(true, Ordering::SeqCst);
    }
}
