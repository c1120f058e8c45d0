//! A TCP relay with a black-hole switch, and the wall-clock schedule that
//! throws it.
//!
//! `serve::chaosnet`'s `Partition` arms on a frame index; an outage that
//! must start two seconds into a cycle whatever the traffic did needs a
//! switch thrown by the clock. While armed the relay swallows bytes in
//! both directions — connections stay open and simply go silent, which is
//! what a partitioned peer looks like — and on heal it severs every
//! connection that lost bytes, since both ends of such a connection are
//! out of step for good.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the accept loop looks for a stop request.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// One relayed connection: the accepted socket and the one dialled
/// upstream (each a clone; the pump threads own the others).
struct Link {
    downstream: TcpStream,
    upstream: TcpStream,
    /// Bytes of this connection were swallowed while the relay was armed.
    swallowed: AtomicBool,
}

impl Link {
    fn sever(&self) {
        let _ = self.downstream.shutdown(Shutdown::Both);
        let _ = self.upstream.shutdown(Shutdown::Both);
    }
}

struct Shared {
    upstream: SocketAddr,
    armed: AtomicBool,
    stop: AtomicBool,
    links: Mutex<Vec<Arc<Link>>>,
    pumps: Mutex<Vec<JoinHandle<()>>>,
}

/// A relay in front of one upstream address.
pub struct Relay {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl Relay {
    pub fn start(upstream: SocketAddr) -> std::io::Result<Relay> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            upstream,
            armed: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            links: Mutex::new(Vec::new()),
            pumps: Mutex::new(Vec::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(Relay {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Arms or heals the black hole. Healing severs every connection that
    /// had bytes swallowed.
    pub fn set_black_hole(&self, armed: bool) {
        // SeqCst: the switch orders against the pumps' reads of it and
        // their `swallowed` marks; it is thrown a handful of times a run.
        let was = self.shared.armed.swap(armed, Ordering::SeqCst);
        if was && !armed {
            let mut links = self.shared.links.lock().expect("links lock poisoned");
            links.retain(|link| {
                let lost = link.swallowed.load(Ordering::SeqCst);
                if lost {
                    link.sever();
                }
                !lost
            });
        }
    }

    /// Severs everything and joins every thread the relay started.
    pub fn stop(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            accept.join().expect("relay accept thread panicked");
        }
        for link in self
            .shared
            .links
            .lock()
            .expect("links lock poisoned")
            .drain(..)
        {
            link.sever();
        }
        let pumps = std::mem::take(&mut *self.shared.pumps.lock().expect("pumps lock poisoned"));
        for pump in pumps {
            pump.join().expect("relay pump thread panicked");
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        let Ok((downstream, _)) = listener.accept() else {
            std::thread::sleep(ACCEPT_POLL);
            continue;
        };
        // A refused upstream just closes the accepted socket: the caller
        // sees the same reset it would have seen without the relay.
        let Ok(link) = open_link(downstream, shared.upstream) else {
            continue;
        };
        let link = Arc::new(link);
        let (Ok(from_down), Ok(from_up)) = (link.downstream.try_clone(), link.upstream.try_clone())
        else {
            continue;
        };
        let (Ok(to_up), Ok(to_down)) = (link.upstream.try_clone(), link.downstream.try_clone())
        else {
            continue;
        };
        shared
            .links
            .lock()
            .expect("links lock poisoned")
            .push(Arc::clone(&link));
        let mut pumps = shared.pumps.lock().expect("pumps lock poisoned");
        for (from, to) in [(from_down, to_up), (from_up, to_down)] {
            let (shared, link) = (Arc::clone(shared), Arc::clone(&link));
            pumps.push(std::thread::spawn(move || pump(from, to, &shared, &link)));
        }
    }
}

fn open_link(downstream: TcpStream, upstream: SocketAddr) -> std::io::Result<Link> {
    downstream.set_nonblocking(false)?;
    downstream.set_nodelay(true)?;
    let upstream = TcpStream::connect(upstream)?;
    upstream.set_nodelay(true)?;
    Ok(Link {
        downstream,
        upstream,
        swallowed: AtomicBool::new(false),
    })
}

/// Copies one direction until either side closes; swallows while armed.
fn pump(mut from: TcpStream, mut to: TcpStream, shared: &Shared, link: &Link) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if shared.armed.load(Ordering::SeqCst) {
                    link.swallowed.store(true, Ordering::SeqCst);
                    // Healed between the two lines above: the healer may
                    // have looked at `swallowed` too early, so cut here.
                    if !shared.armed.load(Ordering::SeqCst) {
                        break;
                    }
                } else if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    link.sever();
}

/// One planned outage: which shard's relay goes dark, and when, in
/// seconds from the start of the window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Outage {
    pub victim: usize,
    pub start_s: f64,
    pub end_s: f64,
}

/// The outage plan of a window: `CYCLES` equal cycles, and in cycle `c`
/// the relay of shard `(c + seed) mod shards` is dark for the second
/// quarter of the cycle.
#[derive(Clone, Debug)]
pub struct OutageSchedule {
    outages: Vec<Outage>,
}

impl OutageSchedule {
    pub const CYCLES: usize = 3;

    pub fn new(window_s: f64, shards: usize, seed: u64) -> Self {
        let cycle = window_s / Self::CYCLES as f64;
        let outages = (0..Self::CYCLES)
            .map(|c| Outage {
                victim: ((c as u64 + seed) % shards as u64) as usize,
                start_s: (c as f64 + 0.25) * cycle,
                end_s: (c as f64 + 0.5) * cycle,
            })
            .collect();
        OutageSchedule { outages }
    }

    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// The shard whose relay is dark `t_s` seconds into the window.
    pub fn victim_at(&self, t_s: f64) -> Option<usize> {
        self.outages
            .iter()
            .find(|o| (o.start_s..o.end_s).contains(&t_s))
            .map(|o| o.victim)
    }

    /// Throws the switches of `relays` (indexed by shard) for time `t_s`.
    pub fn apply(&self, relays: &[Relay], t_s: f64) {
        let victim = self.victim_at(t_s);
        for (shard, relay) in relays.iter().enumerate() {
            relay.set_black_hole(victim == Some(shard));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An upstream that echoes every byte back.
    fn echo_server() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                std::thread::spawn(move || {
                    let mut buf = [0u8; 256];
                    while let Ok(n) = stream.read(&mut buf) {
                        if n == 0 || stream.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        addr
    }

    fn dial(relay: &Relay) -> TcpStream {
        let stream = TcpStream::connect(relay.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(150)))
            .unwrap();
        stream
    }

    fn echoes(stream: &mut TcpStream, byte: u8) -> bool {
        let mut got = [0u8; 1];
        stream.write_all(&[byte]).is_ok()
            && matches!(stream.read(&mut got), Ok(1))
            && got[0] == byte
    }

    #[test]
    fn relays_both_directions_when_clear() {
        let relay = Relay::start(echo_server()).unwrap();
        let mut a = dial(&relay);
        let mut b = dial(&relay);
        assert!(echoes(&mut a, 1));
        assert!(echoes(&mut b, 2));
        assert!(echoes(&mut a, 3));
        relay.stop();
    }

    #[test]
    fn armed_relay_swallows_and_heal_severs_what_it_swallowed() {
        let relay = Relay::start(echo_server()).unwrap();
        let mut used = dial(&relay);
        let mut idle = dial(&relay);
        assert!(echoes(&mut used, 1));
        assert!(echoes(&mut idle, 1));

        relay.set_black_hole(true);
        // Silence, not an error: the write succeeds, nothing comes back.
        used.write_all(&[2]).unwrap();
        let mut got = [0u8; 1];
        let silent = used.read(&mut got).unwrap_err();
        assert!(matches!(
            silent.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ));
        // A connection opened during the outage is swallowed too.
        let mut late = dial(&relay);
        late.write_all(&[3]).unwrap();
        assert!(late.read(&mut got).is_err());

        relay.set_black_hole(false);
        // Connections that lost bytes are cut; the untouched one lives on.
        assert!(!matches!(used.read(&mut got), Ok(1)));
        assert!(!echoes(&mut late, 4));
        assert!(echoes(&mut idle, 5));
        assert!(echoes(&mut dial(&relay), 6));
        relay.stop();
    }

    #[test]
    fn schedule_is_three_quarter_cycle_outages_rotating_from_the_seed() {
        let schedule = OutageSchedule::new(24.0, 3, 7);
        assert_eq!(
            schedule.outages(),
            [
                Outage {
                    victim: 1,
                    start_s: 2.0,
                    end_s: 4.0
                },
                Outage {
                    victim: 2,
                    start_s: 10.0,
                    end_s: 12.0
                },
                Outage {
                    victim: 0,
                    start_s: 18.0,
                    end_s: 20.0
                },
            ]
        );
        assert_eq!(schedule.victim_at(0.0), None);
        assert_eq!(schedule.victim_at(1.999), None);
        assert_eq!(schedule.victim_at(2.0), Some(1));
        assert_eq!(schedule.victim_at(3.999), Some(1));
        assert_eq!(schedule.victim_at(4.0), None);
        assert_eq!(schedule.victim_at(11.0), Some(2));
        assert_eq!(schedule.victim_at(19.5), Some(0));
        assert_eq!(schedule.victim_at(23.9), None);
        // Another seed, another rotation; same times.
        let other = OutageSchedule::new(24.0, 3, 8);
        assert_eq!(other.outages()[0].victim, 2);
        assert_eq!(other.outages()[0].start_s, 2.0);
    }
}
