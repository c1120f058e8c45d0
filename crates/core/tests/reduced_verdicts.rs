//! The reduced explorer against the clone-per-branch reference on one
//! exhaustive echo system (n = 3, horizon 5, one failure): the plain
//! walk reproduces the reference run list; the reduced walk (clients
//! symmetric, sleep sets on) covers exactly the reference's behaviours up
//! to relabeling and stutter placement; and a formula battery that is
//! symmetric under relabeling the clients gets the same verdicts from the
//! model checker on both systems.

use ktudc_epistemic::{Formula, ModelChecker};
use ktudc_model::{Event, ProcessId, System, Time};
use ktudc_sim::{
    canonical_run_digests, explore, explore_reference, explore_with_stats, ExploreConfig,
    ProtoAction, Protocol,
};
use std::collections::BTreeSet;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Every client (process 1..n) sends one message to process 0, which
/// acks each message back to its source in order of receipt. Nobody
/// names a client by index — ack targets come from the observed `Recv` —
/// so behaviour is equivariant under relabeling the clients, which is the
/// hypothesis the symmetry reduction needs.
#[derive(Clone, Debug)]
struct Echo {
    me: ProcessId,
    inbox: Vec<ProcessId>,
    acked: usize,
    sent: bool,
}

impl Protocol<u8> for Echo {
    fn start(&mut self, me: ProcessId, _n: usize) {
        self.me = me;
    }
    fn observe(&mut self, _t: Time, e: &Event<u8>) {
        match e {
            Event::Recv { from, .. } if self.me.index() == 0 => self.inbox.push(*from),
            Event::Send { .. } if self.me.index() == 0 => self.acked += 1,
            Event::Send { .. } => self.sent = true,
            _ => {}
        }
    }
    fn next_action(&mut self, _t: Time) -> Option<ProtoAction<u8>> {
        if self.me.index() == 0 {
            (self.acked < self.inbox.len()).then(|| ProtoAction::Send {
                to: self.inbox[self.acked],
                msg: 1,
            })
        } else {
            (!self.sent).then_some(ProtoAction::Send { to: p(0), msg: 9 })
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

fn echo(_: ProcessId) -> Echo {
    Echo {
        me: p(0),
        inbox: Vec::new(),
        acked: 0,
        sent: false,
    }
}

/// Formulas symmetric under relabeling the clients, with mixed verdicts
/// on the echo system: delivery is optional, so the `eventually` shapes
/// are invalid, while the knowledge and safety shapes hold.
fn symmetric_battery(n: usize) -> Vec<Formula<u8>> {
    let everyone = |f: &dyn Fn(usize) -> Formula<u8>| Formula::and((1..n).map(f).collect());
    let someone = |f: &dyn Fn(usize) -> Formula<u8>| Formula::or((1..n).map(f).collect());
    vec![
        Formula::eventually(someone(&|i| Formula::received(p(0), p(i), 9))),
        everyone(&|i| {
            Formula::always(Formula::implies(
                Formula::received(p(0), p(i), 9),
                Formula::knows(p(0), Formula::sent(p(i), p(0), 9)),
            ))
        }),
        Formula::eventually(someone(&|i| Formula::knows(p(0), Formula::crashed(p(i))))),
        Formula::always(Formula::not(everyone(&|i| Formula::crashed(p(i))))),
    ]
}

#[test]
fn reduced_echo_covers_the_reference_and_keeps_symmetric_verdicts() {
    let n = 3;
    let cfg = ExploreConfig::new(n, 5).max_failures(1).max_runs(600_000);
    let reference = explore_reference(&cfg, echo);
    assert!(reference.complete);

    let plain = explore(&cfg, echo);
    assert_eq!(plain.complete, reference.complete);
    assert_eq!(plain.system.runs(), reference.system.runs());

    let reduced_cfg = cfg.symmetric((1..n).collect()).with_sleep_sets();
    let (reduced, _) = explore_with_stats(&reduced_cfg, echo);
    assert_eq!(reduced.complete, reference.complete);
    assert!(reduced.system.len() < reference.system.len());

    // Sleep sets shift delivery times, so the cover is compared on
    // untimed canonical digests.
    let cover = |system: &System<u8>| -> BTreeSet<u64> {
        canonical_run_digests(&reduced_cfg, system, false)
            .into_iter()
            .collect()
    };
    assert_eq!(cover(&reduced.system), cover(&reference.system));

    let battery = symmetric_battery(n);
    let verdicts = |system: &System<u8>| -> Vec<bool> {
        let mut checker = ModelChecker::new(system);
        battery.iter().map(|f| checker.valid(f).is_ok()).collect()
    };
    let expected = verdicts(&reference.system);
    assert_eq!(verdicts(&reduced.system), expected);
    assert!(expected.contains(&true) && expected.contains(&false));
}
