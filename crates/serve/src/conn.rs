//! One connection's I/O, shared by the server and the router: a bounded
//! line reader over one reusable buffer, and a response writer that
//! coalesces a pipelined batch into one `write`.
//!
//! # Flush rule
//!
//! A response is appended to the connection's buffer ([`Outbox::send`])
//! and the buffer is written with a single `write_all`:
//!
//! 1. by the connection thread whenever the reader holds no further
//!    complete line — [`BoundedLineReader::next_line`] does it before
//!    every `read`, so the thread never blocks on input with answers
//!    still buffered;
//! 2. at once by a sender on any other thread (a worker with a computed
//!    or forwarded answer, a single-flight waiter's primary), and by the
//!    connection thread itself when it is *not* in the middle of a batch;
//! 3. when the buffer reaches [`FLUSH_AT_BYTES`];
//! 4. before a [`ServerFaults`] sever, short write or delay, before an
//!    inline handler that may block ([`Outbox::flush`]), and when the
//!    reader is dropped.
//!
//! "In the middle of a batch" is the connection thread's id under the
//! writer's mutex, set by the reader when it hands out a line and cleared
//! — together with the flush — before it reads again. Only that thread's
//! own inline answers (cache hits, pings, stats, refusals) are held back,
//! and it is guaranteed to pass through (1) or (4) before it can wait on
//! the peer or on anything else. Every other sender writes immediately,
//! taking whatever the connection thread has buffered along with it. So
//! no response waits on a blocked reader, and none waits on a slow inline
//! handler either.

use crate::metrics::Metrics;
use crate::server::ServerFaults;
use crate::wire::{encode_result, write_response_line, Envelope, ErrorCode, Response};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Duration;

/// The size of a connection's read buffer; only a single longer line
/// takes it further. Every open connection holds one resident whether it
/// pipelines or not (the allocator zeroes it), so it is sized for a batch
/// — 32 cell requests are about 5 KiB — and not for the most the socket could
/// deliver: at 64 KiB the benchmark's `cluster_outage` fleet, some twenty
/// connections, measured 1.2 MB (13 %) more peak RSS for no gain.
const READ_BUF_BYTES: usize = 16 * 1024;

/// The level at which a connection's write buffer is flushed mid-batch.
const FLUSH_AT_BYTES: usize = 64 * 1024;

/// What [`BoundedLineReader::next_line`] observed on the socket.
enum LineEvent<'a> {
    /// A complete newline-terminated line, delimiter (and a preceding
    /// `\r`) stripped, borrowed from the reader's buffer.
    Line(&'a str),
    /// A complete line that is not UTF-8. It is consumed; the next call
    /// carries on with the line after it.
    InvalidUtf8,
    /// A line longer than the frame cap, with or without its newline in
    /// sight yet.
    Oversized,
    /// No bytes arrived within the idle deadline (a half-open or merely
    /// silent peer — this includes a partial frame followed by
    /// silence).
    IdleTimeout,
    /// Clean close, or an unrecoverable read error.
    Eof,
}

/// A line reader with the two bounds a hostile or broken peer forces on
/// a production accept loop: a per-read idle deadline (so a half-open
/// connection is reaped instead of pinning its thread forever) and a
/// frame-size cap (so a newline-less firehose cannot grow server memory
/// without limit). It also drives the connection's [`Outbox`] through
/// its batches (see the module docs).
pub(crate) struct BoundedLineReader {
    stream: TcpStream,
    out: Arc<Outbox>,
    /// The read buffer; its whole length is readable into.
    buf: Vec<u8>,
    /// Start of the line being assembled.
    start: usize,
    /// `buf[start..scanned]` is known to hold no newline.
    scanned: usize,
    /// End of the bytes read so far.
    end: usize,
    max_line: usize,
    /// Whether a line has been handed out since the last `read`.
    in_batch: bool,
}

/// Splits an accepted connection into its reader and its shared writer.
/// `idle_timeout` is the per-read deadline (`None` = block forever) and
/// `max_line` the longest line served, newline excluded. Fails only if
/// the socket cannot be cloned or rejects the timeout.
pub(crate) fn open(
    stream: TcpStream,
    idle_timeout: Option<Duration>,
    max_line: usize,
    metrics: &Arc<Metrics>,
    faults: ServerFaults,
) -> std::io::Result<(BoundedLineReader, Arc<Outbox>)> {
    let read_half = stream.try_clone()?;
    read_half.set_read_timeout(idle_timeout)?;
    let out = Arc::new(Outbox {
        metrics: Arc::clone(metrics),
        faults,
        writer: Mutex::new(ConnWriter {
            stream,
            buf: Vec::new(),
            batching: None,
        }),
    });
    let reader = BoundedLineReader {
        stream: read_half,
        out: Arc::clone(&out),
        // One byte past the cap is enough to tell a line of exactly
        // `max_line` bytes (its newline fits) from a longer one.
        buf: vec![0; READ_BUF_BYTES.min(max_line + 1)],
        start: 0,
        scanned: 0,
        end: 0,
        max_line,
        in_batch: false,
    };
    Ok((reader, out))
}

impl BoundedLineReader {
    /// Runs the connection to its end: every non-blank line goes to
    /// `on_line`; a line the reader itself refuses is answered with a
    /// typed `BadRequest` on id 0 (no id is recoverable), stamped with
    /// the listener's `generation` — the connection survives a line that
    /// is not UTF-8 and is closed after an oversized one. A connection
    /// idle past its deadline is reaped, and counted unless the listener
    /// is shutting down anyway.
    pub(crate) fn serve(
        mut self,
        generation: u64,
        shutdown: &AtomicBool,
        mut on_line: impl FnMut(&str),
    ) {
        let out = Arc::clone(&self.out);
        let refuse = |message: String| {
            let refusal = Response::error(0, ErrorCode::BadRequest, message);
            let mut envelope = refusal.envelope();
            envelope.generation = generation;
            out.send(&envelope, &encode_result(&refusal.result));
        };
        loop {
            match self.next_line() {
                LineEvent::Line(line) => {
                    if !line.trim().is_empty() {
                        on_line(line);
                    }
                }
                LineEvent::InvalidUtf8 => {
                    // Refused as it stands: decoding it lossily would
                    // canonicalise, cache and route a body nobody sent.
                    out.metrics.record_malformed();
                    refuse("request line is not valid UTF-8".to_string());
                }
                LineEvent::Oversized => {
                    out.metrics.record_oversized();
                    refuse(format!("request line exceeds {} bytes", self.max_line));
                    break;
                }
                LineEvent::IdleTimeout => {
                    if !shutdown.load(Ordering::SeqCst) {
                        out.metrics.record_idle_reap();
                    }
                    break;
                }
                LineEvent::Eof => break,
            }
        }
    }

    /// Blocks (up to the idle deadline) for the next complete line.
    fn next_line(&mut self) -> LineEvent<'_> {
        loop {
            let unscanned = &self.buf[self.scanned..self.end];
            if let Some(at) = unscanned.iter().position(|&b| b == b'\n') {
                let (from, to) = (self.start, self.scanned + at);
                self.start = to + 1;
                self.scanned = self.start;
                if to - from > self.max_line {
                    return LineEvent::Oversized;
                }
                if !self.in_batch {
                    self.in_batch = true;
                    self.out.begin_batch();
                }
                let line = &self.buf[from..to];
                let line = line.strip_suffix(b"\r").unwrap_or(line);
                return match std::str::from_utf8(line) {
                    Ok(line) => LineEvent::Line(line),
                    Err(_) => LineEvent::InvalidUtf8,
                };
            }
            self.scanned = self.end;
            if self.end - self.start > self.max_line {
                return LineEvent::Oversized;
            }
            // About to wait on the peer: everything answered so far goes
            // out first, and senders stop deferring to this thread.
            self.in_batch = false;
            self.out.end_batch();
            self.make_room();
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) => return LineEvent::Eof,
                Ok(n) => self.end += n,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return LineEvent::IdleTimeout;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return LineEvent::Eof,
            }
        }
    }

    /// Guarantees `buf[end..]` is non-empty. Called with no complete line
    /// buffered and the partial one (`buf[start..end]`) within the cap.
    fn make_room(&mut self) {
        if self.start == self.end {
            // Everything consumed: rewind instead of moving bytes.
            (self.start, self.scanned, self.end) = (0, 0, 0);
        } else if self.end == self.buf.len() && self.start > 0 {
            // The partial line straddles the buffer's end: move it down.
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.scanned -= self.start;
            self.start = 0;
        } else if self.end == self.buf.len() {
            // One line takes up the whole buffer. It is at most `max_line`
            // long, so the buffer is shorter than the limit and grows.
            let limit = self.max_line + 1;
            self.buf.resize((self.buf.len() * 2).min(limit), 0);
        }
    }
}

impl Drop for BoundedLineReader {
    /// The connection thread is leaving: whatever it buffered goes out,
    /// and late senders (workers still computing) write for themselves.
    fn drop(&mut self) {
        self.out.end_batch();
    }
}

/// The write half behind the per-connection mutex.
struct ConnWriter {
    stream: TcpStream,
    /// Response lines not yet written.
    buf: Vec<u8>,
    /// The connection thread, while it is working through lines it has
    /// already read; it will flush before it reads again.
    batching: Option<ThreadId>,
}

impl ConnWriter {
    /// Writes the buffer with one `write_all`. A failure is dropped: the
    /// peer is gone, and the server has nothing useful to do about it.
    fn flush(&mut self, metrics: &Metrics) {
        if self.buf.is_empty() {
            return;
        }
        metrics.record_flush();
        let _ = self.stream.write_all(&self.buf);
        self.buf.clear();
    }
}

/// A connection's outgoing side, shared by its reader thread (inline
/// answers: cache hits, stats, pings, refusals) and the workers
/// (computed or forwarded answers) — which is what lets responses stream
/// back in completion order.
pub(crate) struct Outbox {
    metrics: Arc<Metrics>,
    faults: ServerFaults,
    writer: Mutex<ConnWriter>,
}

impl Outbox {
    fn writer(&self) -> MutexGuard<'_, ConnWriter> {
        self.writer.lock().expect("connection writer lock poisoned")
    }

    /// Queues one response line and flushes per the module's rule,
    /// applying any armed [`ServerFaults`] on its way out.
    pub(crate) fn send(&self, envelope: &Envelope, result_json: &str) {
        let seq = self.metrics.next_response();
        let fires = |every: u64| every > 0 && seq.is_multiple_of(every);
        if let Some((every, delay)) = self.faults.delay_every {
            if fires(every) {
                self.writer().flush(&self.metrics);
                std::thread::sleep(delay);
            }
        }
        let mut writer = self.writer();
        if self.faults.sever_every.is_some_and(fires) {
            writer.flush(&self.metrics);
            let _ = writer.stream.shutdown(Shutdown::Both);
            return;
        }
        let line_start = writer.buf.len();
        write_response_line(&mut writer.buf, envelope, result_json);
        if self.faults.short_write_every.is_some_and(fires) {
            let half = (writer.buf.len() - line_start) / 2;
            writer.buf.truncate(line_start + half);
            writer.flush(&self.metrics);
            let _ = writer.stream.shutdown(Shutdown::Both);
            return;
        }
        let deferred = writer.batching == Some(std::thread::current().id());
        if !deferred || writer.buf.len() >= FLUSH_AT_BYTES {
            writer.flush(&self.metrics);
        }
    }

    /// Writes what the connection thread has buffered so far. For an
    /// inline handler about to block on something other than the peer.
    pub(crate) fn flush(&self) {
        self.writer().flush(&self.metrics);
    }

    /// Called by the connection thread.
    fn begin_batch(&self) {
        self.writer().batching = Some(std::thread::current().id());
    }

    /// Tolerates a poisoned lock (a sender panicked mid-write; the
    /// connection is lost either way) because the reader's `Drop` calls
    /// this, possibly while unwinding.
    fn end_batch(&self) {
        if let Ok(mut writer) = self.writer.lock() {
            writer.batching = None;
            writer.flush(&self.metrics);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;

    /// A loopback pair: the peer's end, and the accepted end opened with
    /// `max_line` and a one-second idle deadline.
    fn pair(
        max_line: usize,
        faults: ServerFaults,
    ) -> (TcpStream, BoundedLineReader, Arc<Outbox>, Arc<Metrics>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        let metrics = Arc::new(Metrics::new());
        let (reader, out) = open(
            accepted,
            Some(Duration::from_secs(1)),
            max_line,
            &metrics,
            faults,
        )
        .expect("open");
        (peer, reader, out, metrics)
    }

    fn expect_line(reader: &mut BoundedLineReader, want: &str) {
        match reader.next_line() {
            LineEvent::Line(line) => assert_eq!(line, want),
            _ => panic!("expected the line {want:?}"),
        }
    }

    #[test]
    fn frames_lines_across_reads_without_losing_bytes() {
        let (mut peer, mut reader, _out, _metrics) = pair(64, ServerFaults::default());
        // Three lines in one write, one of them CRLF, plus the head of a
        // fourth whose tail arrives later.
        peer.write_all(b"one\ntwo\r\n\nfo").expect("write");
        expect_line(&mut reader, "one");
        expect_line(&mut reader, "two");
        expect_line(&mut reader, "");
        peer.write_all(b"ur\n").expect("write");
        expect_line(&mut reader, "four");
        drop(peer);
        assert!(matches!(reader.next_line(), LineEvent::Eof));
    }

    #[test]
    fn a_line_straddling_the_buffer_is_moved_to_its_front() {
        // A cap of 16 makes the buffer 17 bytes: the first read ends in
        // the middle of the second line, which then has to be moved down
        // to make room for its tail. (Growth to a full-size line is covered by the
        // 1 MiB boundary test in `tests/serve_pipelining.rs`.)
        let (mut peer, mut reader, _out, _metrics) = pair(16, ServerFaults::default());
        peer.write_all(b"abc\n0123456789abcdef\nxyz\n")
            .expect("write");
        expect_line(&mut reader, "abc");
        expect_line(&mut reader, "0123456789abcdef");
        expect_line(&mut reader, "xyz");
    }

    #[test]
    fn the_cap_is_on_the_line_itself() {
        let (mut peer, mut reader, _out, _metrics) = pair(8, ServerFaults::default());
        // Exactly the cap is served, with or without a CR inside it.
        peer.write_all(b"12345678\n1234567\r\n").expect("write");
        expect_line(&mut reader, "12345678");
        expect_line(&mut reader, "1234567");
        // One byte over is refused even though its newline is in sight.
        peer.write_all(b"123456789\n").expect("write");
        assert!(matches!(reader.next_line(), LineEvent::Oversized));

        // And refused without waiting for a newline that may never come.
        let (mut peer, mut reader, _out, _metrics) = pair(8, ServerFaults::default());
        peer.write_all(b"123456789").expect("write");
        assert!(matches!(reader.next_line(), LineEvent::Oversized));
    }

    #[test]
    fn a_buffer_grown_for_a_long_line_still_enforces_the_cap() {
        // A cap above the buffer's size: the line at the cap is served
        // after the buffer grows; the line one byte over is refused,
        // whether the read that crosses the cap brings its newline or not.
        let cap = READ_BUF_BYTES + 30_000;
        let (mut peer, mut reader, _out, _metrics) = pair(cap, ServerFaults::default());
        let writer = std::thread::spawn(move || {
            let mut blob = vec![b'a'; cap];
            blob.push(b'\n');
            blob.extend(vec![b'b'; cap + 1]);
            blob.push(b'\n');
            peer.write_all(&blob).expect("write");
            peer
        });
        match reader.next_line() {
            LineEvent::Line(line) => assert_eq!(line.len(), cap),
            _ => panic!("a line at the cap is served"),
        }
        assert!(matches!(reader.next_line(), LineEvent::Oversized));
        drop(writer.join().expect("writer thread"));
    }

    #[test]
    fn invalid_utf8_is_reported_not_repaired() {
        let (mut peer, mut reader, _out, _metrics) = pair(64, ServerFaults::default());
        peer.write_all(b"ok\n\"caf\xe9\"\nnext\n").expect("write");
        expect_line(&mut reader, "ok");
        assert!(matches!(reader.next_line(), LineEvent::InvalidUtf8));
        expect_line(&mut reader, "next");
    }

    #[test]
    fn silence_past_the_deadline_is_an_idle_timeout() {
        let (mut peer, mut reader, _out, _metrics) = pair(64, ServerFaults::default());
        peer.write_all(b"partial").expect("write");
        assert!(matches!(reader.next_line(), LineEvent::IdleTimeout));
    }

    #[test]
    fn a_batch_goes_out_in_one_write_and_a_lone_sender_writes_at_once() {
        let (mut peer, mut reader, out, metrics) = pair(64, ServerFaults::default());
        let flushes = |m: &Metrics| m.report(Default::default(), 0, 0).flushes;
        peer.write_all(b"a\nb\nc\n").expect("write");
        for id in 1..=3 {
            assert!(matches!(reader.next_line(), LineEvent::Line(_)));
            out.send(&Envelope::new(id, false, 0), "\"Pong\"");
        }
        // Mid-batch: nothing has been written yet.
        assert_eq!(flushes(&metrics), 0);

        // The reader runs dry, so it flushes before it waits; a sender on
        // another thread then finds no batch and writes for itself.
        peer.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut lines = std::io::BufReader::new(peer.try_clone().expect("clone")).lines();
        std::thread::scope(|scope| {
            scope.spawn(|| assert!(matches!(reader.next_line(), LineEvent::Eof)));
            for id in 1..=3 {
                let line = lines.next().expect("a line").expect("read");
                assert!(line.contains(&format!("\"id\":{id},")), "{line}");
            }
            assert_eq!(flushes(&metrics), 1, "three answers, one write");
            // The reader is now blocked in `read`.
            out.send(&Envelope::new(4, false, 0), "\"Pong\"");
            let line = lines.next().expect("a line").expect("read");
            assert!(line.contains("\"id\":4,"), "{line}");
            assert_eq!(flushes(&metrics), 2);
            peer.shutdown(Shutdown::Write).expect("half-close");
        });
        let report = metrics.report(Default::default(), 0, 0);
        assert_eq!((report.responses, report.flushes), (4, 2));
    }

    #[test]
    fn the_buffer_is_flushed_when_it_reaches_its_bound() {
        let (mut peer, mut reader, out, metrics) = pair(64, ServerFaults::default());
        peer.write_all(b"go\n").expect("write");
        assert!(matches!(reader.next_line(), LineEvent::Line(_)));
        // Drain on the side so the sender never blocks on a full socket.
        let mut sink = peer.try_clone().expect("clone");
        let drained = std::thread::spawn(move || {
            let mut total = 0;
            let mut chunk = [0u8; 8192];
            while let Ok(n) = sink.read(&mut chunk) {
                if n == 0 {
                    break;
                }
                total += n;
            }
            total
        });
        let payload = format!("\"{}\"", "x".repeat(1000));
        let mut sent = 0;
        while metrics.report(Default::default(), 0, 0).flushes == 0 {
            out.send(&Envelope::new(1, false, 0), &payload);
            sent += 1;
            assert!(sent < 1000, "a mid-batch buffer must not grow unbounded");
        }
        // It went out on the send that crossed the bound, not before: a
        // line is the payload plus an envelope of under 200 bytes.
        assert!(sent * (payload.len() + 200) >= FLUSH_AT_BYTES, "{sent}");
        assert!((sent - 1) * payload.len() < FLUSH_AT_BYTES, "{sent}");
        drop(reader);
        drop(out);
        drop(peer);
        assert!(drained.join().expect("drain thread") >= FLUSH_AT_BYTES);
    }
}
