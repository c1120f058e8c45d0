//! Inputs of the five workloads, all derived from the run's seed.
//!
//! The explorer protocols and the checker's formula battery are copies of
//! the fixtures in `crates/bench/src/bin/perf.rs` (`Echo`, `OneShot`,
//! `checker_formulas`) so that the benchmark times the same shapes the
//! repository's own perf binary has always timed; the message bytes come
//! from the seed, which changes every digest but not the shape of the
//! state space.

use crate::rng::SplitMix64;
use ktudc_core::harness::{CellSpec, FdChoice, ProtocolChoice};
use ktudc_epistemic::Formula;
use ktudc_model::{ActionId, Event, ProcessId, Time};
use ktudc_serve::{Request, RequestKind};
use ktudc_sim::{ExploreConfig, ProtoAction, Protocol};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Two distinct non-zero message bytes drawn from the seed.
fn message_bytes(seed: u64) -> (u8, u8) {
    let mut rng = SplitMix64::new(seed ^ 0x6d65_7373_6167_6573);
    let a = 1 + (rng.next_u64() % 250) as u8;
    let mut b = 1 + (rng.next_u64() % 250) as u8;
    if b == a {
        b = if a == 250 { 1 } else { a + 1 };
    }
    (a, b)
}

/// The explorer workload's protocol: an echo server. Every client
/// (process 1..n) sends one message to process 0, which acks each back to
/// its source in order of receipt. Nobody names a client by index, so
/// behaviour is equivariant under relabelling the client class — the
/// hypothesis the symmetry reduction needs.
#[derive(Clone, Debug)]
pub struct Echo {
    me: ProcessId,
    inbox: Vec<ProcessId>,
    acked: usize,
    sent: bool,
    hello: u8,
    ack: u8,
}

impl Protocol<u8> for Echo {
    fn start(&mut self, me: ProcessId, _n: usize) {
        self.me = me;
    }
    fn observe(&mut self, _t: Time, e: &Event<u8>) {
        match e {
            Event::Recv { from, .. } if self.me.index() == 0 => self.inbox.push(*from),
            Event::Send { .. } => {
                if self.me.index() == 0 {
                    self.acked += 1;
                } else {
                    self.sent = true;
                }
            }
            _ => {}
        }
    }
    fn next_action(&mut self, _t: Time) -> Option<ProtoAction<u8>> {
        if self.me.index() == 0 {
            (self.acked < self.inbox.len()).then(|| ProtoAction::Send {
                to: self.inbox[self.acked],
                msg: self.ack,
            })
        } else {
            (!self.sent).then_some(ProtoAction::Send {
                to: p(0),
                msg: self.hello,
            })
        }
    }
    fn quiescent(&self) -> bool {
        if self.me.index() == 0 {
            self.acked == self.inbox.len()
        } else {
            self.sent
        }
    }
}

/// The `explore` workload's cell: n processes, one failure, echo protocol.
#[derive(Clone, Debug)]
pub struct ExploreFixture {
    pub plain: ExploreConfig,
    pub reduced: ExploreConfig,
    hello: u8,
    ack: u8,
}

impl ExploreFixture {
    pub fn new(n: usize, horizon: Time, seed: u64) -> Self {
        let (hello, ack) = message_bytes(seed);
        let plain = ExploreConfig::new(n, horizon)
            .max_failures(1)
            .max_runs(600_000);
        let reduced = plain.clone().symmetric((1..n).collect()).with_sleep_sets();
        ExploreFixture {
            plain,
            reduced,
            hello,
            ack,
        }
    }

    /// The per-process protocol constructor the explorer wants.
    pub fn make(&self) -> impl Fn(ProcessId) -> Echo + Sync + '_ {
        move |_| Echo {
            me: p(0),
            inbox: Vec::new(),
            acked: 0,
            sent: false,
            hello: self.hello,
            ack: self.ack,
        }
    }
}

/// The checker workload's protocol: p0 sends one message to p1; the
/// explorer branches over crash timing, delivery timing and initiations.
#[derive(Clone, Debug)]
pub struct OneShot {
    me: ProcessId,
    sent: bool,
    msg: u8,
}

impl Protocol<u8> for OneShot {
    fn start(&mut self, me: ProcessId, _n: usize) {
        self.me = me;
    }
    fn observe(&mut self, _t: Time, e: &Event<u8>) {
        if matches!(e, Event::Send { .. }) {
            self.sent = true;
        }
    }
    fn next_action(&mut self, _t: Time) -> Option<ProtoAction<u8>> {
        (self.me == p(0) && !self.sent).then_some(ProtoAction::Send {
            to: p(1),
            msg: self.msg,
        })
    }
    fn quiescent(&self) -> bool {
        self.sent
    }
}

/// The `check` workload's inputs: the system to explore and the battery.
#[derive(Clone, Debug)]
pub struct CheckFixture {
    pub config: ExploreConfig,
    pub formulas: Vec<Formula<u8>>,
    msg: u8,
}

impl CheckFixture {
    pub fn new(horizon: Time, max_runs: usize, seed: u64) -> Self {
        let (msg, _) = message_bytes(seed);
        let alpha = ActionId::new(p(0), 0);
        let config = ExploreConfig::new(3, horizon)
            .max_failures(1)
            .initiate(1, alpha)
            .optional_initiations()
            .max_runs(max_runs);
        let mut formulas = checker_formulas(msg);
        // The order decides which formula pays for a shared subtable; a
        // seeded shuffle keeps the total work fixed and the order honest.
        SplitMix64::new(seed ^ 0x6261_7474_6572_7921).shuffle(&mut formulas);
        CheckFixture {
            config,
            formulas,
            msg,
        }
    }

    pub fn make(&self) -> impl Fn(ProcessId) -> OneShot + Sync + '_ {
        move |_| OneShot {
            me: p(0),
            sent: false,
            msg: self.msg,
        }
    }
}

/// Knowledge-heavy formula set over the explored system's vocabulary:
/// plain prims, boolean connectives, both temporal operators and (nested)
/// knowledge — 145 formulas, 141 of them distinct.
fn checker_formulas(msg: u8) -> Vec<Formula<u8>> {
    let alpha = ActionId::new(p(0), 0);
    let crashed2 = Formula::crashed(p(2));
    let sent = Formula::sent(p(0), p(1), msg);
    let received = Formula::received(p(1), p(0), msg);
    let mut out = vec![
        crashed2.clone(),
        Formula::not(crashed2.clone()),
        sent.clone(),
        Formula::initiated(alpha),
        Formula::eventually(crashed2.clone()),
        Formula::always(Formula::not(crashed2.clone())),
        Formula::knows(p(0), crashed2.clone()),
        Formula::knows(p(1), sent.clone()),
        Formula::knows(p(0), Formula::knows(p(1), crashed2.clone())),
        Formula::knows(p(0), Formula::eventually(crashed2.clone())),
        Formula::always(Formula::implies(
            received.clone(),
            Formula::eventually(Formula::knows(p(0), received.clone())),
        )),
        Formula::or(vec![
            Formula::knows(p(0), crashed2.clone()),
            Formula::knows(p(1), crashed2.clone()),
        ]),
        Formula::eventually(Formula::and(vec![
            Formula::knows(p(0), Formula::initiated(alpha)),
            Formula::not(Formula::knows(p(1), crashed2.clone())),
        ])),
    ];
    let base = [crashed2, sent, received, Formula::initiated(alpha)];
    for proc in 0..3 {
        for (i, x) in base.iter().enumerate() {
            out.push(Formula::knows(p(proc), x.clone()));
            out.push(Formula::knows(p(proc), Formula::eventually(x.clone())));
            out.push(Formula::knows(
                p(proc),
                Formula::always(Formula::not(x.clone())),
            ));
            for (j, y) in base.iter().enumerate() {
                if i == j {
                    continue;
                }
                out.push(Formula::knows(
                    p(proc),
                    Formula::or(vec![x.clone(), y.clone()]),
                ));
                out.push(Formula::eventually(Formula::knows(
                    p(proc),
                    Formula::and(vec![x.clone(), Formula::not(y.clone())]),
                )));
            }
            for q in 0..3 {
                if q != proc {
                    out.push(Formula::knows(p(proc), Formula::knows(p(q), x.clone())));
                }
            }
        }
    }
    out
}

/// How heavy one Cell request is.
#[derive(Clone, Copy, Debug)]
pub struct CellSize {
    pub trials: u64,
    pub horizon: Time,
}

/// The light cell of the serving workloads: with the spec family of
/// [`cell_specs`], about 1.6 ms of `run_cell` on two cores (3 ms of CPU) —
/// enough that a request that misses the cache is real work, little
/// enough that thousands fit in a window.
pub const LIGHT_CELL: CellSize = CellSize {
    trials: 8,
    horizon: 320,
};

/// The toy cell of `--smoke`.
pub const SMOKE_CELL: CellSize = CellSize {
    trials: 2,
    horizon: 60,
};

/// `count` pairwise-distinct Cell specs of equal expected cost: n = 4,
/// t = 2, t-useful detector, generalized protocol, fair-lossy channels.
/// Horizon steps over a band of 32 ticks and the drop probability over a
/// grid of 1e-3 around 0.2, the grid's origin shifted by the seed, so two
/// seeds share no spec but cost the same.
pub fn cell_specs(count: usize, size: CellSize, seed: u64) -> Vec<CellSpec> {
    let shift = seed % 97;
    (0..count)
        .map(|i| {
            let drop = (20_000 + 100 * (i / 32) as u64 + shift) as f64 / 100_000.0;
            CellSpec::new(
                4,
                2,
                Some(drop),
                FdChoice::TUseful,
                ProtocolChoice::Generalized,
            )
            .trials(size.trials)
            .horizon(size.horizon + (i % 32) as Time)
        })
        .collect()
}

/// One request line (newline-terminated) for `spec` under `id`.
pub fn request_line(id: u64, spec: &CellSpec) -> Vec<u8> {
    let mut line = serde_json::to_string(&Request::new(id, RequestKind::Cell(spec.clone())))
        .expect("a cell request always encodes")
        .into_bytes();
    line.push(b'\n');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn battery_is_the_one_perf_rs_times() {
        // 145 formulas, four of which repeat an earlier one (the checker
        // answers those from its table cache), exactly as in `perf.rs`.
        let fixture = CheckFixture::new(8, 100, 3);
        let distinct: BTreeSet<String> = fixture.formulas.iter().map(|f| f.to_string()).collect();
        assert_eq!(fixture.formulas.len(), 145);
        assert_eq!(distinct.len(), 141);
    }

    #[test]
    fn cell_specs_are_distinct_and_seeded() {
        let size = CellSize {
            trials: 2,
            horizon: 100,
        };
        let a = cell_specs(2048, size, 1);
        let b = cell_specs(2048, size, 2);
        let keys = |specs: &[CellSpec]| -> BTreeSet<String> {
            specs
                .iter()
                .map(|s| serde_json::to_string(s).unwrap())
                .collect()
        };
        assert_eq!(keys(&a).len(), 2048);
        assert!(keys(&a).is_disjoint(&keys(&b)));
        assert_eq!(a, cell_specs(2048, size, 1));
    }
}
