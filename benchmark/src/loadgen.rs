//! What the three serving workloads share: a line-framed connection that
//! allocates nothing per response, the ledger that holds every answer to
//! the oracle, and a few wire calls used around the measured window.

use crate::report::Outcome;
use ktudc_core::harness::{run_cell, CellOutcome, CellSpec};
use ktudc_serve::{Client, ErrorCode, Response, ResponseKind, StatsReport};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// A TCP connection read one `\n`-terminated line at a time out of one
/// reused buffer.
pub struct LineConn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Busy-poll instead of sleeping in the kernel (see [`LineConn::spinning`]).
    spin: bool,
}

impl LineConn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<LineConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(LineConn::over(stream))
    }

    pub fn over(stream: TcpStream) -> LineConn {
        LineConn {
            stream,
            buf: vec![0; 64 * 1024],
            start: 0,
            end: 0,
            spin: false,
        }
    }

    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Makes every wait on this connection a busy poll instead of a sleep
    /// in the kernel. A generator that sleeps is woken by each response the
    /// server writes, and what that wake-up costs the *server* depends on
    /// where the scheduler last put the two threads — measured as a 10 %
    /// run-to-run spread on two cores. A generator that never sleeps keeps
    /// one core to itself and the server's writes cost the same every time.
    pub fn spinning(mut self) -> std::io::Result<LineConn> {
        self.stream.set_nonblocking(true)?;
        self.spin = true;
        Ok(self)
    }

    pub fn send(&mut self, mut bytes: &[u8]) -> std::io::Result<()> {
        while !bytes.is_empty() {
            match self.stream.write(bytes) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => bytes = &bytes[n..],
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && self.spin => {
                    std::hint::spin_loop();
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Hands the next `count` lines (newline stripped) to `on_line`,
    /// blocking for more bytes as needed. An error (a read timeout
    /// included) leaves the buffered bytes in place, so the call can be
    /// repeated.
    pub fn lines(&mut self, count: usize, mut on_line: impl FnMut(&[u8])) -> std::io::Result<()> {
        let mut handled = 0;
        while handled < count {
            let pending = &self.buf[self.start..self.end];
            if let Some(at) = pending.iter().position(|&b| b == b'\n') {
                on_line(&pending[..at]);
                self.start += at + 1;
                handled += 1;
                continue;
            }
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            if self.end == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
            }
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && self.spin => {
                    std::hint::spin_loop();
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// How one answer fared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    /// A cell outcome consistent with every earlier answer for the spec.
    Consistent,
    /// Refused or failed with a typed error: a miss, not a wrong answer.
    Refused(ErrorCode),
    /// Differs from an earlier answer for the same spec, or is no cell
    /// outcome at all.
    Wrong,
}

/// Every distinct answer the server gave, per spec, so that each can be
/// compared with `run_cell` once the window is over and the CPU is free.
pub struct CellLedger<'a> {
    specs: &'a [CellSpec],
    seen: Vec<Option<CellOutcome>>,
}

impl<'a> CellLedger<'a> {
    pub fn new(specs: &'a [CellSpec]) -> Self {
        CellLedger {
            specs,
            seen: vec![None; specs.len()],
        }
    }

    pub fn record(&mut self, spec: usize, result: &ResponseKind) -> Answer {
        match result {
            ResponseKind::Cell(outcome) => match &self.seen[spec] {
                None => {
                    self.seen[spec] = Some(*outcome);
                    Answer::Consistent
                }
                Some(first) if first == outcome => Answer::Consistent,
                Some(_) => Answer::Wrong,
            },
            ResponseKind::Error(e) => Answer::Refused(e.code),
            _ => Answer::Wrong,
        }
    }

    /// The oracle: every spec that was answered, computed directly.
    pub fn check_against_run_cell(&self, out: &mut Outcome) {
        let answered: Vec<(usize, CellOutcome)> = self
            .seen
            .iter()
            .enumerate()
            .filter_map(|(i, outcome)| outcome.map(|o| (i, o)))
            .collect();
        let specs = self.specs;
        let wrong = ktudc_par::par_map(answered, |(i, outcome)| {
            (run_cell(&specs[i]) != outcome).then_some(i)
        });
        for i in wrong.into_iter().flatten() {
            out.mismatch(format!(
                "spec {i}: the served outcome differs from run_cell"
            ));
        }
    }
}

/// Parses one response line in full.
pub fn parse_response(line: &[u8]) -> Option<Response> {
    serde_json::from_str(std::str::from_utf8(line).ok()?).ok()
}

/// The server's `Stats` report, over a connection of its own.
pub fn server_stats(addr: SocketAddr) -> StatsReport {
    Client::connect(addr)
        .and_then(|mut client| client.stats())
        .expect("stats request")
}

/// Cache hits and requests on the `cell` endpoint, from a `Stats` report.
pub fn cell_counters(report: &StatsReport) -> (u64, u64) {
    report
        .endpoints
        .iter()
        .find(|e| e.endpoint == "cell")
        .map_or((0, 0), |e| (e.cache_hits, e.requests))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktudc_core::harness::{FdChoice, ProtocolChoice};
    use ktudc_serve::WireError;
    use std::net::TcpListener;

    fn light_specs() -> Vec<CellSpec> {
        (0..2)
            .map(|i| {
                CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable)
                    .trials(2)
                    .horizon(60 + i)
            })
            .collect()
    }

    #[test]
    fn ledger_accepts_the_truth() {
        let specs = light_specs();
        let mut ledger = CellLedger::new(&specs);
        let truth = ResponseKind::Cell(run_cell(&specs[0]));
        assert_eq!(ledger.record(0, &truth), Answer::Consistent);
        assert_eq!(ledger.record(0, &truth), Answer::Consistent);
        let refused = ResponseKind::Error(WireError {
            code: ErrorCode::Overloaded,
            message: String::new(),
            retry_after_ms: 1,
        });
        assert_eq!(
            ledger.record(1, &refused),
            Answer::Refused(ErrorCode::Overloaded)
        );
        let mut out = Outcome::new();
        ledger.check_against_run_cell(&mut out);
        assert!(out.correct);
    }

    /// A poisoned expectation must come out as `correct: false`: first an
    /// answer that contradicts an earlier one, then one that is merely
    /// not what `run_cell` computes.
    #[test]
    fn ledger_catches_a_wrong_answer() {
        let specs = light_specs();
        let mut ledger = CellLedger::new(&specs);
        let mut poisoned = run_cell(&specs[0]);
        poisoned.satisfied += 1;
        assert_eq!(
            ledger.record(0, &ResponseKind::Cell(poisoned)),
            Answer::Consistent
        );
        assert_eq!(
            ledger.record(0, &ResponseKind::Cell(run_cell(&specs[0]))),
            Answer::Wrong
        );
        assert_eq!(ledger.record(1, &ResponseKind::Pong), Answer::Wrong);
        let mut out = Outcome::new();
        ledger.check_against_run_cell(&mut out);
        assert!(!out.correct);
        assert_eq!(out.mismatches.len(), 1);
    }

    #[test]
    fn line_conn_reassembles_lines_across_reads() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            for chunk in [&b"ab"[..], b"c\nde", b"\n\nf", b"gh\n"] {
                stream.write_all(chunk).unwrap();
                stream.flush().unwrap();
            }
        });
        let mut conn = LineConn::connect(addr).unwrap();
        let mut lines = Vec::new();
        conn.lines(3, |l| lines.push(l.to_vec())).unwrap();
        conn.lines(1, |l| lines.push(l.to_vec())).unwrap();
        assert_eq!(lines, [&b"abc"[..], b"de", b"", b"fgh"]);
        writer.join().unwrap();
        let eof = conn.lines(1, |_| {}).unwrap_err();
        assert_eq!(eof.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}
