//! Golden pins for the Table-1 cell pipeline: for every detector class ×
//! protocol × channel regime, the tally `run_cell` reports and a
//! [`StableHasher`] digest over every trial's generated run.
//!
//! The constants were recorded before the run generator's internals
//! (Prop 4.1 report state, `RunBuilder` R3 accounting, the shared
//! scheduler slot) were rewritten for speed; they state that the rewrite
//! changed no event of any run. If a row fails, the generator's behaviour
//! changed: find the regression, do not repin. CI runs this file under
//! `KTUDC_THREADS=1` and `KTUDC_THREADS=4`, so the same constants also
//! check that tallies and runs do not depend on the thread count.

use ktudc_core::harness::{
    run_cell, simulate_trial, CellOutcome, CellSpec, FdChoice, ProtocolChoice,
};
use ktudc_model::hashing::StableHasher;
use ktudc_model::ProcessId;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

const TRIALS: u64 = 4;
const HORIZON: u64 = 240;

const FDS: [FdChoice; 10] = [
    FdChoice::None,
    FdChoice::Cycling,
    FdChoice::TUseful,
    FdChoice::Weak,
    FdChoice::ImpermanentStrong,
    FdChoice::Strong,
    FdChoice::Perfect,
    FdChoice::Heartbeat,
    FdChoice::PhiAccrual,
    FdChoice::Gossip,
];
const PROTOCOLS: [ProtocolChoice; 3] = [
    ProtocolChoice::Reliable,
    ProtocolChoice::StrongFd,
    ProtocolChoice::Generalized,
];
const CHANNELS: [Option<f64>; 3] = [None, Some(0.2), Some(0.6)];

/// One pinned cell: satisfied / permanent violations / stalls, mean
/// messages (exact: a multiple of 1/4), and the digest of its four runs.
type Pin = (u64, u64, u64, f64, u64);

fn spec(fd: FdChoice, protocol: ProtocolChoice, drop_prob: Option<f64>) -> CellSpec {
    // The cycling detector exists only for t < n/2.
    let n = if fd == FdChoice::Cycling { 5 } else { 4 };
    CellSpec::new(n, 2, drop_prob, fd, protocol)
        .trials(TRIALS)
        .horizon(HORIZON)
}

/// Every event of every trial's run with its tick, plus what the runner
/// reports beside the run.
fn runs_digest(spec: &CellSpec) -> u64 {
    let mut h = StableHasher::new();
    for seed in 0..spec.trials {
        let out = simulate_trial(spec, seed);
        h.write_u64(out.run.horizon());
        for p in ProcessId::all(out.run.n()) {
            for (t, event) in out.run.timed_history(p) {
                h.write_u64(t);
                event.hash(&mut h);
            }
            // Delimit histories, so moving an event between two
            // processes cannot cancel out.
            h.write_u64(u64::MAX);
        }
        h.write_u8(u8::from(out.quiescent));
        h.write_u64(out.messages_sent);
        h.write_u64(out.messages_dropped);
    }
    h.finish()
}

fn measure(spec: &CellSpec) -> Pin {
    let CellOutcome {
        satisfied,
        violated_permanent,
        unsatisfied_pending,
        mean_messages,
    } = run_cell(spec);
    (
        satisfied,
        violated_permanent,
        unsatisfied_pending,
        mean_messages,
        runs_digest(spec),
    )
}

#[test]
fn cell_tallies_and_run_digests_are_pinned() {
    let mut cells = Vec::new();
    for fd in FDS {
        for protocol in PROTOCOLS {
            for drop_prob in CHANNELS {
                cells.push((fd, protocol, drop_prob));
            }
        }
    }
    assert_eq!(cells.len(), GOLDEN.len(), "one pin per cell of the grid");
    let mut drift = String::new();
    for (&(fd, protocol, drop_prob), &pin) in cells.iter().zip(GOLDEN) {
        let got = measure(&spec(fd, protocol, drop_prob));
        if got != pin {
            writeln!(
                drift,
                "{fd:?} / {protocol:?} / {drop_prob:?}: pinned {pin:?}, got {:?} (digest {:#018x})",
                got, got.4
            )
            .unwrap();
        }
    }
    assert!(drift.is_empty(), "generated runs drifted:\n{drift}");
}

/// In grid order: `FDS` outermost, then `PROTOCOLS`, then `CHANNELS`.
#[rustfmt::skip]
const GOLDEN: &[Pin] = &[
    (4, 0, 0, 48.0, 0xfe3277c3a257be08),
    (4, 0, 0, 47.25, 0x985f981a78dee538),
    (0, 2, 2, 29.25, 0x52b91cb8d0d8bff7),
    (1, 0, 3, 358.0, 0x2341acd0fbf82f33),
    (1, 0, 3, 388.75, 0xbe4565d2effffd1c),
    (0, 0, 4, 492.75, 0x5fee1647a964f1ce),
    (0, 0, 4, 362.75, 0x352a9b16278cff71),
    (0, 0, 4, 374.25, 0xa7f4062142779516),
    (0, 0, 4, 480.5, 0x422a08c1c91de149),
    (4, 0, 0, 82.25, 0x1289f3c6bdb8f2ae),
    (3, 0, 1, 82.0, 0xffb9d11ba737a700),
    (0, 3, 1, 53.75, 0xe8778663e214416f),
    (1, 0, 3, 404.0, 0x6c6c838dc67a0271),
    (0, 0, 4, 445.5, 0x5c67599f4e2773fe),
    (0, 0, 4, 521.0, 0x83b94ce13b17112e),
    (4, 0, 0, 414.25, 0xcaa2a136e8ffdc7d),
    (4, 0, 0, 439.0, 0x853be70ba2167eef),
    (0, 0, 4, 510.75, 0x62d6b85d61b52d44),
    (4, 0, 0, 47.0, 0xf4ec3328334bbbd1),
    (2, 1, 1, 42.0, 0x13f53ceb84b478f9),
    (0, 1, 3, 27.0, 0xd0ffaea5e14e039f),
    (1, 0, 3, 299.75, 0xfcd69fb02aaff77b),
    (1, 0, 3, 326.25, 0x51547a3c6908ddb3),
    (0, 0, 4, 391.25, 0xfc17802f6ffdb13c),
    (4, 0, 0, 308.75, 0x2771a37bd74b4f26),
    (4, 0, 0, 328.5, 0x6be965785548e088),
    (1, 0, 3, 386.0, 0xd7015a8426a07b8d),
    (4, 0, 0, 46.75, 0xdada9e349ac12392),
    (3, 0, 1, 46.0, 0xeaa386ec4856b5f1),
    (0, 2, 2, 33.0, 0x1afd7b19046d85c6),
    (1, 0, 3, 304.75, 0xd4d0c40cba528dd8),
    (1, 0, 3, 322.25, 0x34d1d9dd5706bc86),
    (0, 0, 4, 387.25, 0x71cf4043aba62b8f),
    (0, 0, 4, 334.0, 0x450ce342eaba4a0a),
    (0, 0, 4, 306.75, 0xd0285c3ff8b77adb),
    (0, 0, 4, 387.5, 0x9b753c57fd7fda04),
    (4, 0, 0, 46.75, 0x7cf8eca9c36de245),
    (4, 0, 0, 46.75, 0x33f60805d10eb6a0),
    (0, 2, 2, 33.0, 0xb3ede1233d9e69b0),
    (4, 0, 0, 312.25, 0x54d4965a3995770a),
    (4, 0, 0, 312.5, 0x65b1e0dc8950e66c),
    (1, 0, 3, 392.25, 0x82952fd0943107f9),
    (0, 0, 4, 331.25, 0x79ad52d7f3e78b75),
    (0, 0, 4, 307.0, 0x460b99985ef7398b),
    (0, 0, 4, 388.25, 0xe45e4b0cedcefb03),
    (4, 0, 0, 46.75, 0xbe7bdf7403636d05),
    (3, 0, 1, 46.0, 0xe2b1b288b7491e2c),
    (0, 2, 2, 33.0, 0xe62321f1013e24f6),
    (4, 0, 0, 311.75, 0x864fad313bae3702),
    (4, 0, 0, 312.5, 0x376e2b1b72775026),
    (1, 0, 3, 392.75, 0x74caf8d012ef7fe4),
    (0, 0, 4, 334.0, 0x3ea43dc32e9fcfa3),
    (0, 0, 4, 306.75, 0x00de393405c7bc4f),
    (0, 0, 4, 387.5, 0xaaa36594e6d21da3),
    (4, 0, 0, 47.0, 0x89d58e9008a01ab7),
    (2, 1, 1, 42.0, 0x33be3debeb664cc7),
    (0, 1, 3, 27.0, 0xb004a573f2aa4dcd),
    (4, 0, 0, 295.0, 0x7af93368636a04b4),
    (4, 0, 0, 319.75, 0xbd6f783dc9876d82),
    (1, 0, 3, 388.0, 0xb401ebe93d976fc9),
    (0, 0, 4, 323.5, 0xc9721cd605d96499),
    (0, 0, 4, 332.0, 0x1b24cc5e8e945915),
    (0, 0, 4, 397.0, 0x2b0e3fa3e39d5e59),
    (4, 0, 0, 47.0, 0x6fea88aff80429fc),
    (2, 1, 1, 42.0, 0xb437fb573b2dcade),
    (0, 1, 3, 27.0, 0x31374c148cebb6e4),
    (4, 0, 0, 294.0, 0xc2fe748192623423),
    (4, 0, 0, 320.5, 0xf16595435144ecac),
    (3, 0, 1, 389.0, 0x0e50e3014515ac60),
    (0, 0, 4, 323.5, 0x99a0a1259e2ee58e),
    (0, 0, 4, 332.0, 0x1df785929378145c),
    (0, 0, 4, 397.0, 0xa472192c84bbd614),
    (4, 0, 0, 47.0, 0x1ace04169947876b),
    (2, 1, 1, 42.0, 0x80b754c30092d95b),
    (0, 1, 3, 27.0, 0xf12fad89ff0f1396),
    (4, 0, 0, 295.25, 0x9ddf438587baa2b4),
    (4, 0, 0, 319.0, 0x3968198187a1c443),
    (1, 0, 3, 387.75, 0xff0199431509cbbd),
    (0, 0, 4, 323.5, 0xb56c2d9a53146605),
    (0, 0, 4, 332.0, 0x63c8176b71e3ac6d),
    (0, 0, 4, 397.0, 0x7dcd30e3ac4e7426),
    (4, 0, 0, 47.0, 0xb7aec6cfa5ed3f68),
    (2, 1, 1, 42.0, 0x6b7d23da35ec7e8f),
    (0, 1, 3, 27.0, 0x5c249089be4a5dc4),
    (4, 0, 0, 295.25, 0xea7eaef4ee1fbbc9),
    (4, 0, 0, 319.75, 0xab3dab8c3b63ef14),
    (2, 0, 2, 387.5, 0xd1a209cc06ca5658),
    (0, 0, 4, 323.5, 0x918be8d889481e62),
    (0, 0, 4, 332.0, 0xc1015bb9364d2bbd),
    (0, 0, 4, 397.0, 0x32e1c675763b91d4),
];
